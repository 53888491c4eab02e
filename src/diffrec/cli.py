"""Command-line front end: dataset stats and preparation, experiments,
sweeps, analyses, and ad-hoc recommendation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from diffrec import corpus, harness, simkit
from diffrec.corpus import FilterSpec, FoldPair, RatingScale
from diffrec.harness import ExperimentConfig


class CliError(ValueError):
    pass


def _parse_scale(text: str) -> RatingScale:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"scale must be min:max:step, got {text!r}")
    return RatingScale(float(parts[0]), float(parts[1]), float(parts[2]))


def _parse_list(text: str) -> tuple[str, ...]:
    """The items of a comma-separated list, blank ones dropped."""
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _parsed(name: str, parse, text: str):
    """parse(text); a bare ValueError becomes a CliError led by `name`, a
    typed one keeps its text."""
    try:
        return parse(text)
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise CliError(f"{name}: {exc}") from exc


def _parsed_list(flag: str, parse, text: str) -> list:
    """The items (maybe none) of a list flag's text, each parsed."""
    return _parsed(flag, lambda t: [parse(m) for m in _parse_list(t)], text)


# config key -> (parser of its text, the flag that sets it or None). An unset
# key takes the default of the ExperimentConfig or FilterSpec field of its
# name ("folds" sets k_folds), or for the input file and the output
# directory, the default in `resolve`.
SETTINGS = {
    "input": (str, "--input"),
    "format": (str, "--format"),
    "scale": (_parse_scale, "--scale"),
    "seed": (int, "--seed"),
    "folds": (int, None),
    "list_length": (int, "-L"),
    "theta": (float, "--theta"),
    "methods": (_parse_list, "--method"),
    "knn_k": (int, "--k"),
    "knn_measure": (str, None),
    "like_threshold": (float, "--like-threshold"),
    "metric_sim": (str, None),
    "penalty_variant": (str, None),
    "step3_weight": (str, None),
    "dataset_name": (str, None),
    "out_dir": (Path, "--out-dir"),
    "top_items": (int, None),
    "min_item_ratings": (int, None),
    "min_user_ratings": (int, None),
}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in SETTINGS:
                raise CliError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


# the settings every command takes from a flag, besides --config
EVERY_COMMAND = ("input", "format", "scale", "out_dir")
# command -> (help, the other settings it reads from a flag, its own flags
# and their help, besides a sweep's list flags). A config file may set any
# key for any command.
COMMANDS = {
    "stats": ("print users,items,links,sparsity for a dataset", (), {}),
    "prepare": ("filter a dataset and write fold manifests", ("seed",), {}),
    "eval": ("run the k-fold experiment over all configured methods",
             ("seed", "list_length", "theta", "methods", "knn_k", "like_threshold"), {}),
    "sweep-theta": ("PIM+RA metrics across theta values",
                    ("seed", "list_length", "like_threshold"), {}),
    "sweep-length": ("metrics across recommendation list lengths",
                     ("seed", "theta", "methods", "knn_k", "like_threshold"), {}),
    "sweep-knn": ("NRMSE across similarity measures, modes, and k", ("seed",), {}),
    "analyze": ("dataset structure analyses as CSV tables", ("seed",), {}),
    "recommend": ("print one user's recommendation list",
                  ("seed", "list_length", "theta", "methods", "knn_k"),
                  {"--user": "external user id"}),
}
# sweep command -> (its harness run `(dataset, config, *lists)`, the report
# CSV it writes, its list flags -> (parser of an item, default)). The runs
# look up `harness`'s functions when called, so that wrappers installed
# later (a tracer, a test's patch) see the calls.
SWEEPS = {
    "sweep-theta": (lambda *args: harness.sweep_theta(*args), "sweep_theta.csv",
                    {"--thetas": (float, "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")}),
    "sweep-length": (lambda *args: harness.sweep_list_length(*args), "sweep_length.csv",
                     {"--lengths": (int, "10,20,30,40,50,60,70,80,90,100")}),
    "sweep-knn": (lambda *args: harness.sweep_knn(*args), "sweep_knn.csv",
                  {"--ks": (int, "5,10,20,40,80"),
                   "--measures": (str, ",".join(simkit.MEASURES))}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffrec",
        description="Bipartite-network recommendation experiments",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, keys, own) in COMMANDS.items():
        # no abbreviations: `--k` must not pass for `--ks`, nor `--theta` for `--thetas`
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        for key, (_, flag) in SETTINGS.items():
            if key in EVERY_COMMAND or key in keys:
                p.add_argument(flag, dest=key, help=f"sets config key {key}")
        for flag, flag_help in own.items():
            p.add_argument(flag, help=flag_help)
        for flag, (_, default) in SWEEPS[name][2].items() if name in SWEEPS else ():
            p.add_argument(flag, default=default,
                           help=f"comma-separated {flag[2:]} (default {default})")
    return parser


@dataclass(frozen=True)
class Settings:
    """Resolved run settings."""

    input: str
    format: str
    scale: RatingScale
    out_dir: Path
    experiment: ExperimentConfig
    filters: FilterSpec


def resolve(args: argparse.Namespace) -> Settings:
    """Each setting from its flag, else the config file, else its default."""
    texts = _read_config_file(args.config) if args.config else {}
    texts.update((k, v) for k in SETTINGS if (v := getattr(args, k, None)) is not None)
    values = {k: _parsed(k, SETTINGS[k][0], text) for k, text in texts.items()}
    if "input" not in values:
        raise CliError("no input dataset given (--input or config 'input')")
    if "folds" in values:
        values["k_folds"] = values.pop("folds")

    def given(cls) -> dict:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    return Settings(
        input=values["input"],
        format=values.get("format", "generic-csv"),
        scale=values.get("scale", RatingScale(1.0, 5.0, 1.0)),
        out_dir=values.get("out_dir", Path(".")),
        experiment=ExperimentConfig(**given(ExperimentConfig)),
        filters=FilterSpec(**given(FilterSpec)),
    )


def _write_lists(fh, lists, item_labels, user_labels):
    """`user,rank,item,score` CSV rows for each list's items, in one write;
    labels are quoted as `csv.writer` quotes them."""
    items = [corpus._csv_field(label) for label in item_labels]
    lines = ["user,rank,item,score\n"]
    for rec in lists:
        user = corpus._csv_field(user_labels[rec.user])
        lines.extend(
            f"{user},{rank},{items[item]},{score:.4f}\n"
            for rank, (item, score) in enumerate(zip(rec.items.tolist(), rec.scores.tolist()), 1)
        )
    fh.write("".join(lines))


def _run(args: argparse.Namespace) -> int:
    settings = resolve(args)
    print(f"resolved config: {settings}", file=sys.stderr)
    cmd, cfg, out = args.command, settings.experiment, settings.out_dir
    ds = corpus.load_ratings(settings.input, settings.format, settings.scale)

    if cmd == "stats":
        st = corpus.dataset_stats(ds)
        print(f"{st.users},{st.items},{st.links},{st.sparsity:.4f}")
        return 0

    if cmd == "recommend":
        if args.user is None:
            raise CliError("recommend requires --user")
        if args.user not in ds.user_labels:
            raise CliError(f"unknown user {args.user!r}")
        # the whole dataset is the training side; nothing is held out
        user = ds.user_labels.index(args.user)
        labels = ds.item_labels, ds.user_labels
        pair = FoldPair(train=ds, test=ds.subset(np.arange(0)))
        ctx = harness.FoldContext(pair, cfg, users=[user])
        # past the graph, the ratings are read only by a method that trains
        # on them, whose context keeps its own reference
        del ds, pair
        (lists,) = ctx.rank(cfg.methods[0], [user], [None], cfg.list_length)
        _write_lists(sys.stdout, lists, *labels)
        return 0

    out.mkdir(parents=True, exist_ok=True)  # every command below writes its files there
    if cmd == "prepare":
        filtered = corpus.filter_dataset(ds, settings.filters)
        corpus.write_ratings(filtered, out / "filtered.csv")
        folds = corpus.kfold_split(filtered, cfg.k_folds, cfg.seed)
        corpus.write_fold_manifest(folds, out / "folds.csv")
        st = corpus.dataset_stats(filtered)
        print(f"{st.users},{st.items},{st.links},{st.sparsity:.4f}")
        return 0

    if cmd == "analyze":
        a = harness.analyze_corpus(ds, cfg)
        for name, header, lines in (
            ("cri_ratios", "ratio", (f"{r:.4f}" for r in a.cri_ratios)),
            ("activity_popularity", "activity,mean_item_popularity",
             (f"{lvl},{val:.4f}" for lvl, val in a.activity_popularity)),
            ("popularity_rating", "popularity,mean_rating",
             (f"{lvl},{val:.4f}" for lvl, val in a.popularity_rating)),
            ("similarity_samples", "measure,normalized_similarity",
             (f"{m},{v:.4f}" for m, vals in a.similarity_samples.items() for v in vals)),
        ):
            with open(out / f"{name}.csv", "w", encoding="utf-8") as fh:
                fh.writelines(f"{line}\n" for line in (header, *lines))
        print(
            f"cri_skewness,{a.cri_skewness:.4f}\n"
            f"activity_slope,{a.activity_regression.slope:.4f}\n"
            f"activity_p,{a.activity_regression.p_value:.4g}\n"
            f"popularity_slope,{a.popularity_regression.slope:.4f}\n"
            f"popularity_p,{a.popularity_regression.p_value:.4g}"
        )
        return 0

    if cmd == "eval":

        def sink(fold, method, lists):
            path = out / f"recommendations_fold{fold}_{method.replace('+', '')}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write_lists(fh, lists, ds.item_labels, ds.user_labels)

        report = harness.run_experiment(ds, cfg, list_sink=sink)
        path = out / "report.csv"
    else:
        run, name, lists = SWEEPS[cmd]
        report = run(ds, cfg, *(_parsed_list(flag, parse, getattr(args, flag[2:]))
                                for flag, (parse, _) in lists.items()))
        path = out / name
    harness.write_manifest(report, out / "manifest.json", settings.input)
    harness.write_report_csv(report, path)
    print(path.read_text(), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _run(args)
    except (harness.HarnessError, ValueError, OSError) as exc:
        if type(exc) is ValueError:
            raise  # a programming error, not a user error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
