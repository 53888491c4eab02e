"""Command-line front end: dataset stats and preparation, experiments,
sweeps, analyses, and ad-hoc recommendation."""

from __future__ import annotations

import argparse
import os
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
    return _parsed(flag, lambda t: [parse(m) for m in _parse_list(t)], text)


# config key -> (parser of its text, the flag that sets it or None). An unset
# key takes the default of the ExperimentConfig or FilterSpec field of its
# name ("folds" sets k_folds; "method", else "methods", sets methods), or
# for the input file and the output directory, the default in `resolve`.
SETTINGS = {
    "input": (str, "--input"),
    "format": (str, "--format"),
    "scale": (_parse_scale, "--scale"),
    "seed": (int, "--seed"),
    "folds": (int, None),
    "list_length": (int, "-L"),
    "theta": (float, "--theta"),
    "methods": (_parse_list, None),
    "method": (_parse_list, "--method"),
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
CONFIG_KEYS = set(SETTINGS)


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
            if key not in CONFIG_KEYS:
                raise CliError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key, (_, flag) in SETTINGS.items():
        if flag:
            parser.add_argument(flag, dest=key, help=f"sets config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffrec",
        description="Bipartite-network recommendation experiments",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("stats", "print users,items,links,sparsity for a dataset"),
        ("prepare", "filter a dataset and write fold manifests"),
        ("eval", "run the k-fold experiment over all configured methods"),
        ("sweep-theta", "PIM+RA metrics across theta values"),
        ("sweep-length", "metrics across recommendation list lengths"),
        ("sweep-knn", "NRMSE across similarity measures, modes, and k"),
        ("analyze", "dataset structure analyses as CSV tables"),
        ("recommend", "print one user's recommendation list"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "sweep-theta":
            p.add_argument("--thetas", help="comma-separated thetas (default 0..1 by 0.1)")
        if name == "sweep-length":
            p.add_argument("--lengths", help="comma-separated lengths (default 10..100)")
        if name == "sweep-knn":
            p.add_argument("--ks", help="comma-separated neighbor counts")
            p.add_argument("--measures", help=f"comma-separated: {','.join(simkit.MEASURES)}")
        if name == "recommend":
            p.add_argument("--user", help="external user id", required=False)
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
    methods = values.pop("method", ()) or values.get("methods")
    if methods is not None:
        values["methods"] = methods
    if "folds" in values:
        values["k_folds"] = values.pop("folds")

    def given(cls) -> dict:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    return Settings(
        input=values["input"],
        format=values.get("format", "generic-csv"),
        scale=values.get("scale", RatingScale(1.0, 5.0, 1.0)),
        out_dir=values.get("out_dir", Path(os.environ.get("DIFFREC_OUT_DIR", "."))),
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


# the report CSV each ranked or prediction-error run writes and prints
REPORTS = {
    "eval": "report.csv",
    "sweep-theta": "sweep_theta.csv",
    "sweep-length": "sweep_length.csv",
    "sweep-knn": "sweep_knn.csv",
}


def _run(args: argparse.Namespace) -> int:
    settings = resolve(args)
    print(f"resolved config: {settings}", file=sys.stderr)
    cmd, cfg, out = args.command, settings.experiment, settings.out_dir
    ds = corpus.load_ratings(settings.input, settings.format, settings.scale)
    out.mkdir(parents=True, exist_ok=True)

    if cmd == "stats":
        st = corpus.dataset_stats(ds)
        print(f"{st.users},{st.items},{st.links},{st.sparsity:.4f}")
        return 0

    if cmd == "prepare":
        filtered = corpus.filter_dataset(ds, settings.filters)
        corpus.write_ratings(filtered, out / "filtered.csv")
        folds = corpus.kfold_split(filtered, cfg.k_folds, cfg.seed)
        corpus.write_fold_manifest(folds, out / "folds.csv")
        st = corpus.dataset_stats(filtered)
        print(f"{st.users},{st.items},{st.links},{st.sparsity:.4f}")
        return 0

    if cmd == "recommend":
        if args.user is None:
            raise CliError("recommend requires --user")
        if args.user not in ds.user_labels:
            raise CliError(f"unknown user {args.user!r}")
        # the whole dataset is the training side; nothing is held out
        ctx = harness.FoldContext(FoldPair(train=ds, test=ds.subset(np.arange(0))), cfg)
        user = ds.user_labels.index(args.user)
        (lists,) = ctx.rank(cfg.methods[0], [user], [None], cfg.list_length)
        _write_lists(sys.stdout, lists, ds.item_labels, ds.user_labels)
        return 0

    if cmd == "analyze":
        a = harness.analyze_corpus(ds, seed=cfg.seed)
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
        harness.write_manifest(report, out / "manifest.json", settings.input)
    elif cmd == "sweep-theta":
        default = [round(0.1 * t, 1) for t in range(11)]
        thetas = _parsed_list("--thetas", float, args.thetas) if args.thetas else default
        report = harness.sweep_theta(ds, cfg, thetas)
    elif cmd == "sweep-length":
        default = list(range(10, 101, 10))
        lengths = _parsed_list("--lengths", int, args.lengths) if args.lengths else default
        report = harness.sweep_list_length(ds, cfg, lengths)
    elif cmd == "sweep-knn":
        ks = _parsed_list("--ks", int, args.ks) if args.ks else [5, 10, 20, 40, 80]
        measures = list(_parse_list(args.measures)) if args.measures else simkit.MEASURES
        report = harness.sweep_knn(ds, cfg, ks, measures)
    else:
        raise CliError(f"unknown command {cmd!r}")
    path = out / REPORTS[cmd]
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
