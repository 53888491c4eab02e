import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import diffrec
from diffrec import bigraph, cli, corpus, harness, recommend, simkit
from diffrec.cli import COMMANDS, EVERY_COMMAND, SETTINGS, SWEEPS, build_parser, main, resolve
from diffrec.corpus import FilterSpec
from diffrec.harness import EvaluationReport, ExperimentConfig, HarnessError

import oracles
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


def test_bytes_that_are_not_utf8_name_their_line(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"user,item,rating\na,b,3\n\xff,c,4\n")
    assert main(["stats", "--input", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: line 3: byte 0xff is not UTF-8"


def test_non_finite_scale_is_rejected(fix4_csv, capsys):
    assert main(["stats", "--input", str(fix4_csv), "--scale", "1:5:nan"]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: scale min, max and step must be finite, got 1.0:5.0:nan"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["eval", "-L", "abc"], "list_length: invalid literal for int() with base 10: 'abc'"),
        (["stats", "--scale", "a:5:1"], "scale: could not convert string to float: 'a'"),
        (["sweep-theta", "--thetas", "0.1,x"], "--thetas: could not convert string to float: 'x'"),
        (["sweep-length", "--lengths", "5,ten"],
         "--lengths: invalid literal for int() with base 10: 'ten'"),
        (["sweep-knn", "--ks", "1.5"], "--ks: invalid literal for int() with base 10: '1.5'"),
        (["sweep-knn", "--measures", "pcc,,bogus"],
         "measures must be drawn from cosine, pcc, pim, got 'bogus'"),
        (["sweep-knn", "--ks", ","], "no ks given"),
        (["sweep-knn", "--ks", "5,5"], "ks repeat 5"),
        (["sweep-knn", "--measures", ","], "no measures given"),
        (["sweep-knn", "--measures", "pcc,pcc"], "measures repeat 'pcc'"),
        (["sweep-theta", "--thetas", ","], "no thetas given"),
        (["sweep-theta", "--thetas", "0.5,0.50"], "thetas repeat 0.5"),
        (["sweep-length", "--lengths", ","], "no list lengths given"),
        (["sweep-length", "--lengths", "5,5"], "list lengths repeat 5"),
        (["eval", "--method", "MD,MD"], "methods repeat 'MD'"),
        (["eval", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["sweep-knn", "--ks", ""], "no ks given"),
        (["sweep-knn", "--measures", ""], "no measures given"),
        (["sweep-theta", "--thetas", ""], "no thetas given"),
        (["sweep-length", "--lengths", ""], "no list lengths given"),
        (["eval", "--method", ""], "methods must name at least one method"),
    ],
)
def test_malformed_setting_names_its_key(fix4_csv, tmp_path, capsys, argv, message):
    argv += ["--input", str(fix4_csv), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not list((tmp_path / "out").glob("*"))  # nothing written: no fold ran


def test_bare_value_error_is_a_programming_error(fix4_csv, monkeypatch, capsys):
    # typed errors are the user's; a bare ValueError is a bug, and propagates
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(corpus, "load_ratings", broken)
    with pytest.raises(ValueError, match="^boom$"):
        main(["stats", "--input", str(fix4_csv)])
    assert "error:" not in capsys.readouterr().err


def test_timestamp_beyond_int64_is_an_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("user,item,rating,timestamp\na,x,3,1\nb,x,3,99999999999999999999\n")
    assert main(["stats", "--input", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: row 2: timestamp 99999999999999999999 is beyond int64"


# every user rates 2 items, and no fold's pcc over items defines a pair
TINY = "user,item,rating\na,x,3\na,y,4\nb,x,5\nb,z,2\nc,y,4\nc,z,5\nd,x,1\nd,w,5\n"


def test_failed_sweep_knn_similarity_names_its_fold_and_build(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY)
    argv = ["sweep-knn", "--input", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: fold 0 similarity pcc/items: no defined off-diagonal values to normalize"
    assert main(argv + ["--measures", "cosine"]) == 0


def test_failed_analyze_regression_names_it(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY)
    assert main(["analyze", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: need at least 3 points for the activity-popularity regression, got 1"


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
    assert settings.experiment == ExperimentConfig()
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


def test_method_precedence(tmp_path):
    def methods(config, flags=()):
        return resolved(tmp_path, "input = r.csv\n" + config, flags).experiment.methods

    assert methods("") == ("UBCF", "IBCF", "SVD", "MD", "PIM+RA")
    assert methods("methods = MD,SVD\n") == ("MD", "SVD")
    assert methods("methods = MD,SVD\n", ["--method", "UBCF"]) == ("UBCF",)
    with pytest.raises(HarnessError, match="^methods must name at least one method$"):
        methods("methods = MD,SVD\n", ["--method", ""])


# each setting flag -> the config key it sets
SETTING_FLAGS = {flag: key for key, (_, flag) in SETTINGS.items() if flag}


@pytest.mark.parametrize("flag", sorted(SETTING_FLAGS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_takes_only_the_setting_flags_it_reads(command, flag, tmp_path, capsys):
    key = SETTING_FLAGS[flag]
    text, owner, name, value = NON_DEFAULT[key]
    argv = [command, flag, text] + (["--input", "r.csv"] if key != "input" else [])
    if key not in EVERY_COMMAND and key not in COMMANDS[command][1]:
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {text}" in capsys.readouterr().err
        return
    settings = resolve(build_parser().parse_args(argv))
    assert getattr(getattr(settings, owner) if owner else settings, name) == value


@pytest.mark.parametrize(
    "argv",
    [
        ["eval"],
        ["sweep-theta", "--thetas", "0,0.2,0.4,0.6,0.8,1"],
        ["sweep-knn"],
        ["recommend", "--method", "PIM+RA", "-L", "100", "--user", "u1"],
    ],
)
def test_benchmark_command_lines_parse(argv):
    # the argv shapes bench/run.py passes, with its --input and --out-dir
    args = build_parser().parse_args([*argv, "--input", "c.csv", "--out-dir", "out"])
    settings = resolve(args)
    assert (args.command, settings.input, settings.out_dir) == (argv[0], "c.csv", Path("out"))


def test_flag_overrides_config_value(tmp_path):
    settings = resolved(tmp_path, "input = r.csv\nseed = 3\ntheta = 0.1\n", ["--seed", "5"])
    assert settings.experiment.seed == 5
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
    sim = simkit.similarity(g, "cosine", "users")
    rec = recommend.rank(g, [0], [recommend.ubcf_scores(sim, g, [0], k=3)], 5)[0][0]
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


@pytest.mark.parametrize("corpus_seed", [None, 0, 1, 2])
def test_recommend_pimra_reads_its_rows_and_prints_the_whole_matrix_lists(
    fix4, tmp_path, capsys, monkeypatch, corpus_seed
):
    ds = fix4 if corpus_seed is None else random_dataset(corpus_seed, 10, 14, 0.35)
    path = tmp_path / "ratings.csv"
    corpus.write_ratings(ds, path)
    cfg = ExperimentConfig(methods=("PIM+RA",), list_length=6)
    pair = corpus.FoldPair(train=ds, test=ds.subset(np.arange(0)))
    whole = harness.FoldContext(pair, cfg)
    builds, real = [], simkit.similarity

    def spy(*args):
        builds.append(args[4:])
        return real(*args)

    monkeypatch.setattr(simkit, "similarity", spy)
    for user, label in enumerate(ds.user_labels):
        (lists,) = whole.rank("PIM+RA", [user], [None], cfg.list_length)
        want = io.StringIO()
        cli._write_lists(want, lists, ds.item_labels, ds.user_labels)
        builds.clear()
        assert main(["recommend", "--input", str(path), "--user", label,
                     "--method", "PIM+RA", "-L", "6"]) == 0
        assert capsys.readouterr().out == want.getvalue()
        # one build, of the rows of the user's rated items
        ((rows,),) = builds
        assert rows.tolist() == sorted(whole.graph.user_items(user)[0].tolist())


@pytest.mark.parametrize("method, kept", [("PIM+RA", False), ("MD", False), ("SVD", True)])
def test_recommend_holds_the_ratings_only_for_a_method_that_trains(
    synth_csv, monkeypatch, capsys, method, kept
):
    loaded, real_load, real_rank = [], corpus.load_ratings, harness.FoldContext.rank

    def load(*args, **kwargs):
        ds = real_load(*args, **kwargs)
        loaded.extend(weakref.ref(a) for a in (ds.users, ds.items, ds.ratings))
        return ds

    def rank(self, *args):
        gc.collect()
        assert [ref() is not None for ref in loaded] == [kept] * 3
        return real_rank(self, *args)

    monkeypatch.setattr(corpus, "load_ratings", load)
    monkeypatch.setattr(harness.FoldContext, "rank", rank)
    assert main(["recommend", "--input", str(synth_csv), "--user", "u0", "--method", method]) == 0
    assert capsys.readouterr().out.startswith("user,rank,item,score\n")


def test_list_csvs_quote_labels(tmp_path, capsys):
    # labels holding a comma, a quote and a line break, on users and items
    labels = {"u0": "a,b", "u1": 'say "hi"', "i2": "x,y", "i3": "two\nlines"}
    ds = random_dataset(5, n_users=12, n_items=8, density=0.5)
    triples = [(labels.get(u, u), labels.get(i, i), r) for u, i, r in (
        (ds.user_labels[u], ds.item_labels[i], r) for u, i, r in ds.triples())]
    ds = oracles.from_triples(triples, corpus.RatingScale(1, 5, 1))
    data, out = tmp_path / "quoted.csv", tmp_path / "out"
    corpus.write_ratings(ds, data)

    def rows(text):
        table = list(csv.reader(io.StringIO(text)))
        assert table[0] == ["user", "rank", "item", "score"]
        assert all(len(row) == 4 for row in table)
        assert {row[0] for row in table[1:]} <= set(ds.user_labels)
        assert {row[2] for row in table[1:]} <= set(ds.item_labels)
        return table[1:]

    assert main(["recommend", "--input", str(data), "--user", "a,b", "--method", "MD",
                 "-L", "3"]) == 0
    listed = rows(capsys.readouterr().out)
    assert [row[:2] for row in listed] == [["a,b", "1"], ["a,b", "2"], ["a,b", "3"]]
    assert main(["eval", "--input", str(data), "--out-dir", str(out), "--method", "MD",
                 "-L", "5"]) == 0
    listed = [row for f in range(5)
              for row in rows((out / f"recommendations_fold{f}_MD.csv").read_text())]
    assert {row[0] for row in listed} & {"a,b", 'say "hi"'}
    assert {row[2] for row in listed} & {"x,y", "two\nlines"}
    capsys.readouterr()


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


def test_manifest_records_peak_rss_and_versions(synth_csv, tmp_path, capsys):
    import numpy
    import scipy

    import diffrec

    out, cfg = tmp_path / "out", tmp_path / "run.cfg"
    cfg.write_text("folds = 2\n")
    assert main(["eval", "--input", str(synth_csv), "--out-dir", str(out), "--config", str(cfg),
                 "--method", "MD", "-L", "5"]) == 0
    report = (out / "report.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
    assert manifest["versions"] == {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "diffrec": diffrec.__version__,
    }
    # the report itself carries none of it
    assert b"rss" not in report and numpy.__version__.encode() not in report
    capsys.readouterr()


@pytest.mark.parametrize("methods, trained", [("MD", False), ("MD,SVD", True)])
def test_manifest_records_input_digest_and_mf_time(synth_csv, tmp_path, capsys, methods,
                                                   trained):
    out = tmp_path / "out"
    assert main(["eval", "--input", str(synth_csv), "--out-dir", str(out), "--method", methods,
                 "-L", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_sha256"] == hashlib.sha256(synth_csv.read_bytes()).hexdigest()
    assert isinstance(manifest["mf_train_s"], float)
    assert (manifest["mf_train_s"] > 0) is trained
    report = (out / "report.csv").read_bytes()
    assert manifest["input_sha256"].encode() not in report and b"mf_train" not in report
    capsys.readouterr()


def test_eval_memory_ceiling_is_an_error(synth_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simkit, "_memory_limit", lambda: 0)
    code = main(["eval", "--input", str(synth_csv), "--out-dir", str(tmp_path / "out"),
                 "--method", "MD,PIM+RA", "-L", "5"])
    assert code == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_eval_one_user_fold_writes_na_rows(tmp_path, capsys):
    # 8 folds of this 8 x 8 corpus leave some folds one evaluable user, on
    # whom inter-user diversity is undefined
    triples = [
        (f"u{u}", f"i{i}", 1 + (u * i) % 5) for u in range(8) for i in range(8) if (u + i) % 3
    ]
    data = tmp_path / "c8.csv"
    corpus.write_ratings(oracles.from_triples(triples, corpus.RatingScale(1, 5, 1)), data)
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


def test_eval_fold_without_metric_similarity_writes_na_rows(tmp_path, capsys):
    # fold 2 trains on (a, x) and (b, x) alone: one rated item has no
    # defined item similarity, so ID and novelty are undefined there
    data = tmp_path / "one_item.csv"
    data.write_text("user,item,rating\na,x,4\na,y,4\nb,x,2\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 3\n")
    out = tmp_path / "out"
    code = main(["eval", "--input", str(data), "--config", str(cfg), "--method", "MD",
                 "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    report = (out / "report.csv").read_text().splitlines()
    assert "dataset,2,MD,,100,id,NA" in report and "dataset,2,MD,,100,novelty,NA" in report
    assert "dataset,2,MD,,100,avg_popularity,0.0000" in report
    na = json.loads((out / "manifest.json").read_text())["na"]
    note = "no defined off-diagonal values to normalize"
    for metric in ("id", "novelty"):
        assert {"fold": "2", "method": "MD", "theta": None, "L": 100, "metric": metric,
                "note": note} in na


def test_eval_fold_without_evaluable_users_writes_na_rows(tmp_path, capsys):
    # one-rating folds; the folds whose rating is not liked have no one to rank for
    triples = [
        (f"u{u}", f"i{i}", 2 if (u + i) % 3 == 0 else 3 + (u + i) % 3)
        for u in range(4) for i in range(4) if (u + i) % 2
    ]
    data = tmp_path / "c4.csv"
    corpus.write_ratings(oracles.from_triples(triples, corpus.RatingScale(1, 5, 1)), data)
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


# each command's flags on the 20-user synthetic corpus, and whether it writes files
RUNS = {
    "stats": ([], False),
    "prepare": ([], True),
    "eval": (["--method", "MD", "-L", "5"], True),
    "sweep-theta": (["--thetas", "0.5", "-L", "5"], True),
    "sweep-length": (["--method", "MD", "--lengths", "5"], True),
    "sweep-knn": (["--ks", "3", "--measures", "pcc"], True),
    "analyze": ([], True),
    "recommend": (["--user", "u0", "--method", "MD"], False),
}


def test_every_command_is_run():
    assert set(RUNS) == set(COMMANDS)


@pytest.mark.parametrize("command", list(RUNS))
def test_only_commands_that_write_files_make_the_out_dir(command, synth_csv, tmp_path, capsys):
    flags, writes = RUNS[command]
    out = tmp_path / "out"
    assert main([command, *flags, "--input", str(synth_csv), "--out-dir", str(out)]) == 0
    assert out.is_dir() is writes
    capsys.readouterr()


# each sweep's harness function and the lists it runs when no list flag is given
SWEEP_DEFAULTS = {
    "sweep-theta": ("sweep_theta", [[t / 10 for t in range(11)]]),
    "sweep-length": ("sweep_list_length", [list(range(10, 101, 10))]),
    "sweep-knn": ("sweep_knn", [[5, 10, 20, 40, 80], list(simkit.MEASURES)]),
}


@pytest.mark.parametrize("command", list(SWEEPS))
def test_sweep_calls_the_harness_function_of_call_time(
    command, synth_csv, tmp_path, monkeypatch, capsys
):
    # a function patched after import is the one that runs, with the defaults
    name, defaults = SWEEP_DEFAULTS[command]
    calls = []

    def patched(ds, cfg, *lists):
        calls.append(list(lists))
        return EvaluationReport(rows=[], config=cfg)

    monkeypatch.setattr(harness, name, patched)
    assert main([command, "--input", str(synth_csv), "--out-dir", str(tmp_path)]) == 0
    assert calls == [defaults]
    assert capsys.readouterr().out == "dataset,fold,method,theta,L,metric,value\n"


@pytest.mark.parametrize("command", list(SWEEPS))
def test_sweep_help_names_each_default_from_the_table(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, (_, default) in SWEEPS[command][2].items():
        name = flag[2:]
        assert f"{flag} {name.upper()} comma-separated {name} (default {default})" in text


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
    # the child imports the package this test imported, also when pytest
    # put it on sys.path itself
    src = str(Path(diffrec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "diffrec.cli", "stats", "--input", str(fix4_csv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4,4,10,0.3750"
    assert "resolved config:" in proc.stderr
