import subprocess
import sys

import pytest

from diffrec import bigraph, corpus, recommend, simkit
from diffrec.cli import main

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
    rec = recommend.recommend_knn_cf(sim, g, 0, "UBCF", k=3)
    expected = [
        f"u0,{rank},{ds.item_labels[item]},{score:.4f}"
        for rank, (item, score) in enumerate(rec.ranked[:5], start=1)
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
