import json
import subprocess
import sys
from pathlib import Path

import pytest

from diffrec import bigraph, corpus, recommend, simkit
from diffrec.cli import SETTINGS, build_parser, main, resolve
from diffrec.corpus import FilterSpec
from diffrec.harness import KNOWN_METHODS, ExperimentConfig
from diffrec.recommend import MfConfig

from conftest import random_dataset


@pytest.fixture()
def fix4_csv(fix4, tmp_path):
    path = tmp_path / "fix4.csv"
    corpus.write_ratings(fix4, path)
    return path


@pytest.fixture()
def synth_csv(tmp_path):
    ds = random_dataset(123, n_users=20, n_items=15, density=0.4)
    path = tmp_path / "synth.csv"
    corpus.write_ratings(ds, path)
    return path


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_stats_fix4(fix4_csv, capsys):
    assert main(["stats", "--input", str(fix4_csv)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "4,4,10,0.3750"


def test_missing_input_errors(capsys):
    assert main(["stats"]) == 1
    assert "error:" in capsys.readouterr().err


def test_nonexistent_file_errors(tmp_path, capsys):
    assert main(["stats", "--input", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_nan_rating_is_a_row_error(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("user,item,rating\na,b,nan\n")
    assert main(["stats", "--input", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: row 1: rating nan is off the scale grid [1.0, 5.0] step 1.0"


def test_non_finite_scale_is_rejected(fix4_csv, capsys):
    assert main(["stats", "--input", str(fix4_csv), "--scale", "1:5:nan"]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: scale min, max and step must be finite, got 1.0:5.0:nan"


def test_unknown_config_key_rejected(fix4_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {fix4_csv}\nbogus_key = 1\n")
    assert main(["stats", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_supplies_input(fix4_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# comment line\ninput = {fix4_csv}\n")
    assert main(["stats", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "4,4,10,0.3750"


def test_flag_overrides_config(fix4_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("input = /does/not/exist.csv\n")
    assert main(["stats", "--config", str(cfg), "--input", str(fix4_csv)]) == 0
    assert capsys.readouterr().out.strip() == "4,4,10,0.3750"


def resolved(tmp_path, config="", flags=()):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    return resolve(build_parser().parse_args(["eval", "--config", str(path), *flags]))


def test_empty_config_takes_the_dataclass_defaults(tmp_path):
    settings = resolved(tmp_path, flags=["--input", "r.csv"])
    assert settings.experiment == ExperimentConfig(mf=MfConfig(seed=0))
    assert settings.filters == FilterSpec()


# config key -> (its text in a config file, the resolved object and field
# it sets, the value it gives there, which is not the default)
NON_DEFAULT = {
    "dataset_name": ("ml", "experiment", "dataset_name", "ml"),
    "folds": ("3", "experiment", "k_folds", 3),
    "seed": ("7", "experiment", "seed", 7),
    "list_length": ("9", "experiment", "list_length", 9),
    "like_threshold": ("4.5", "experiment", "like_threshold", 4.5),
    "methods": ("MD, SVD", "experiment", "methods", ("MD", "SVD")),
    "method": ("PIM+RA", "experiment", "methods", ("PIM+RA",)),
    "theta": ("0.25", "experiment", "theta", 0.25),
    "knn_k": ("4", "experiment", "knn_k", 4),
    "knn_measure": ("cosine", "experiment", "knn_measure", "cosine"),
    "penalty_variant": ("global-max", "experiment", "penalty_variant", "global-max"),
    "step3_weight": ("alt-w_vj", "experiment", "step3_weight", "alt-w_vj"),
    "metric_sim": ("pcc", "experiment", "metric_sim", "pcc"),
    "top_items": ("10", "filters", "top_items", 10),
    "min_item_ratings": ("2", "filters", "min_item_ratings", 2),
    "min_user_ratings": ("3", "filters", "min_user_ratings", 3),
    "input": ("ratings.dat", None, "input", "ratings.dat"),
    "format": ("ml100k-tsv", None, "format", "ml100k-tsv"),
    "scale": ("0:10:0.5", None, "scale", corpus.RatingScale(0.0, 10.0, 0.5)),
    "out_dir": ("results", None, "out_dir", Path("results")),
}


def test_every_config_key_is_covered():
    assert set(NON_DEFAULT) == set(SETTINGS)


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_config_key_reaches_its_field(tmp_path, key):
    text, owner, name, value = NON_DEFAULT[key]
    default = resolved(tmp_path, "input = r.csv\n")
    settings = resolved(tmp_path, f"input = r.csv\n{key} = {text}\n")
    get = lambda s: getattr(getattr(s, owner) if owner else s, name)
    assert get(default) != value
    assert get(settings) == value
    # the MF seed follows the run's seed
    assert settings.experiment.mf.seed == settings.experiment.seed


def test_method_precedence(tmp_path):
    def methods(config, flags=()):
        return resolved(tmp_path, "input = r.csv\n" + config, flags).experiment.methods

    assert methods("") == KNOWN_METHODS
    assert methods("methods = MD,SVD\n") == ("MD", "SVD")
    assert methods("methods = MD,SVD\nmethod = IBCF\n") == ("IBCF",)
    assert methods("methods = MD,SVD\nmethod =\n") == ("MD", "SVD")
    assert methods("methods = MD,SVD\nmethod = IBCF\n", ["--method", "UBCF"]) == ("UBCF",)


def test_flag_overrides_config_value(tmp_path):
    settings = resolved(tmp_path, "input = r.csv\nseed = 3\ntheta = 0.1\n", ["--seed", "5"])
    assert (settings.experiment.seed, settings.experiment.mf.seed) == (5, 5)
    assert settings.experiment.theta == 0.1


def test_recommend_md_fix4(fix4_csv, capsys):
    code = main(
        ["recommend", "--input", str(fix4_csv), "--user", "u1", "--method", "MD"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "user,rank,item,score"
    assert lines[1] == "u1,1,i2,0.3333"
    assert len(lines) == 2


def test_recommend_honours_knn_measure(synth_csv, tmp_path, capsys):
    ds = corpus.load_ratings(synth_csv, "generic-csv", corpus.RatingScale(1, 5, 1))
    g = bigraph.build_graph(ds)
    sim = simkit.normalize(simkit.cosine_matrix(g, "users"))
    rec = recommend.rank(g, [0], recommend.knn_scores(sim, g, 0, k=3)[None, :], 5)[0]
    expected = [
        f"u0,{rank},{ds.item_labels[item]},{score:.4f}"
        for rank, (item, score) in enumerate(zip(rec.items[:5], rec.scores[:5]), start=1)
    ]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("knn_measure = cosine\nknn_k = 3\n")
    code = main(
        ["recommend", "--input", str(synth_csv), "--config", str(cfg),
         "--user", "u0", "--method", "UBCF", "-L", "5"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_recommend_unknown_user(fix4_csv, capsys):
    code = main(
        ["recommend", "--input", str(fix4_csv), "--user", "nobody", "--method", "MD"]
    )
    assert code == 1
    assert "unknown user" in capsys.readouterr().err


def test_prepare_writes_outputs(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 3\nmin_user_ratings = 2\n")
    code = main(
        ["prepare", "--input", str(synth_csv), "--config", str(cfg), "--out-dir", str(out)]
    )
    assert code == 0
    assert (out / "filtered.csv").exists()
    assert (out / "folds.csv").exists()
    line = capsys.readouterr().out.strip()
    assert len(line.split(",")) == 4


def test_eval_writes_report_and_lists(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 3\n")
    code = main(
        [
            "eval",
            "--input", str(synth_csv),
            "--config", str(cfg),
            "--out-dir", str(out),
            "--method", "MD,PIM+RA",
            "-L", "5",
        ]
    )
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "manifest.json").exists()
    for fold in range(3):
        assert (out / f"recommendations_fold{fold}_MD.csv").exists()
        assert (out / f"recommendations_fold{fold}_PIMRA.csv").exists()
    stdout = capsys.readouterr().out
    assert stdout.startswith("dataset,fold,method,theta,L,metric,value")
    assert ",MD," in stdout and ",PIM+RA," in stdout


def test_eval_one_user_fold_writes_na_rows(tmp_path, capsys):
    # 8 folds of this 8 x 8 corpus leave some folds one evaluable user, on
    # whom inter-user diversity is undefined
    triples = [
        (f"u{u}", f"i{i}", 1 + (u * i) % 5) for u in range(8) for i in range(8) if (u + i) % 3
    ]
    data = tmp_path / "c8.csv"
    corpus.write_ratings(corpus.from_triples(triples, corpus.RatingScale(1, 5, 1)), data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 8\n")
    out = tmp_path / "out"
    code = main(["eval", "--input", str(data), "--config", str(cfg), "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    single = [f["fold"] for f in manifest["folds"] if f["evaluated_users"] == 1]
    assert single
    report = (out / "report.csv").read_text().splitlines()
    for fold in single:
        assert f"dataset,{fold},MD,,100,iud,NA" in report
        assert {"fold": str(fold), "method": "MD", "theta": None, "L": 100,
                "metric": "iud", "note": "need at least 2 users"} in manifest["na"]


def test_eval_fold_without_evaluable_users_writes_na_rows(tmp_path, capsys):
    # one-rating folds; the folds whose rating is not liked have no one to rank for
    triples = [
        (f"u{u}", f"i{i}", 2 if (u + i) % 3 == 0 else 3 + (u + i) % 3)
        for u in range(4) for i in range(4) if (u + i) % 2
    ]
    data = tmp_path / "c4.csv"
    corpus.write_ratings(corpus.from_triples(triples, corpus.RatingScale(1, 5, 1)), data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 8\n")
    out = tmp_path / "out"
    code = main(["eval", "--input", str(data), "--config", str(cfg), "--method", "MD",
                 "-L", "5", "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    empty = [f["fold"] for f in manifest["folds"] if f["evaluated_users"] == 0]
    assert empty
    report = (out / "report.csv").read_text().splitlines()
    note = "fold has no evaluable test users (like_threshold 3.0)"
    for fold in empty:
        assert (out / f"recommendations_fold{fold}_MD.csv").read_text() == "user,rank,item,score\n"
        for metric in ("ars", "gini", "id", "iud", "novelty", "avg_popularity"):
            length = "" if metric == "ars" else "5"
            assert f"dataset,{fold},MD,,{length},{metric},NA" in report
            assert {"fold": str(fold), "method": "MD", "theta": None,
                    "L": None if metric == "ars" else 5, "metric": metric,
                    "note": note} in manifest["na"]


def test_eval_rejects_theta_before_any_fold(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["eval", "--input", str(synth_csv), "--out-dir", str(out), "--theta", "1.5"])
    assert code == 1
    assert "theta must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert not list(out.glob("recommendations_*"))


def test_sweep_theta_cli(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 3\n")
    code = main(
        [
            "sweep-theta",
            "--input", str(synth_csv),
            "--config", str(cfg),
            "--out-dir", str(out),
            "--thetas", "0,0.5",
            "-L", "5",
        ]
    )
    assert code == 0
    text = (out / "sweep_theta.csv").read_text()
    assert ",0," in text and ",0.5," in text
    assert capsys.readouterr().out.startswith("dataset,fold,method,theta,L,metric,value")


def test_sweep_knn_cli(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 3\n")
    code = main(
        [
            "sweep-knn",
            "--input", str(synth_csv),
            "--config", str(cfg),
            "--out-dir", str(out),
            "--ks", "1,3",
            "--measures", "pcc",
        ]
    )
    assert code == 0
    text = (out / "sweep_knn.csv").read_text()
    assert "UBCF-pcc" in text and "IBCF-pcc" in text
    capsys.readouterr()


def test_analyze_cli(synth_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(synth_csv), "--out-dir", str(out)])
    assert code == 0
    for name in (
        "cri_ratios.csv",
        "activity_popularity.csv",
        "popularity_rating.csv",
        "similarity_samples.csv",
    ):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert stdout.startswith("cri_skewness,")


def test_entry_point_subprocess(fix4_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "diffrec.cli", "stats", "--input", str(fix4_csv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4,4,10,0.3750"
    assert "resolved config:" in proc.stderr
