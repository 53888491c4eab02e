"""Command-line front end: dataset stats and preparation, experiments,
sweeps, analyses, and ad-hoc recommendation."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from diffrec import corpus, harness, simkit
from diffrec.corpus import FilterSpec, FoldPair, RatingScale
from diffrec.harness import ExperimentConfig
from diffrec.recommend import MfConfig


CONFIG_KEYS = {
    "input",
    "format",
    "scale",
    "seed",
    "folds",
    "list_length",
    "theta",
    "methods",
    "method",
    "knn_k",
    "knn_measure",
    "like_threshold",
    "metric_sim",
    "penalty_variant",
    "step3_weight",
    "dataset_name",
    "out_dir",
    "top_items",
    "min_item_ratings",
    "min_user_ratings",
}


class CliError(ValueError):
    pass


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


def _parse_scale(text: str) -> RatingScale:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"scale must be min:max:step, got {text!r}")
    return RatingScale(float(parts[0]), float(parts[1]), float(parts[2]))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="rating file path")
    parser.add_argument("--format", choices=["ml100k-tsv", "generic-csv"])
    parser.add_argument("--scale", help="rating scale as min:max:step")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("-L", dest="list_length", type=int)
    parser.add_argument("--theta", type=float)
    parser.add_argument("--method")
    parser.add_argument("--k", dest="knn_k", type=int)
    parser.add_argument("--like-threshold", dest="like_threshold", type=float)


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


class Resolved:
    """Fully-resolved run settings: config-file values overridden by flags."""

    def __init__(self, args: argparse.Namespace):
        file_vals = _read_config_file(args.config) if args.config else {}

        def pick(flag_val, key, default=None, cast=str):
            if flag_val is not None:
                return flag_val
            if key in file_vals:
                return cast(file_vals[key])
            return default

        self.input = pick(args.input, "input")
        self.format = pick(args.format, "format", "generic-csv")
        scale_text = pick(args.scale, "scale", "1:5:1")
        self.scale = _parse_scale(scale_text)
        self.seed = pick(args.seed, "seed", 0, int)
        self.out_dir = Path(
            pick(args.out_dir, "out_dir", os.environ.get("DIFFREC_OUT_DIR", "."))
        )
        self.list_length = pick(args.list_length, "list_length", 100, int)
        self.theta = pick(args.theta, "theta", 0.6, float)
        self.knn_k = pick(args.knn_k, "knn_k", 20, int)
        self.like_threshold = pick(args.like_threshold, "like_threshold", 3.0, float)
        self.folds = int(file_vals.get("folds", 5))
        self.dataset_name = file_vals.get("dataset_name", "dataset")
        self.metric_sim = file_vals.get("metric_sim", "cosine")
        self.knn_measure = file_vals.get("knn_measure", "pcc")
        self.penalty_variant = file_vals.get("penalty_variant", "pair-max")
        self.step3_weight = file_vals.get("step3_weight", "literal-w_vi")
        self.top_items = int(file_vals.get("top_items", 0))
        self.min_item_ratings = int(file_vals.get("min_item_ratings", 0))
        self.min_user_ratings = int(file_vals.get("min_user_ratings", 0))
        method = pick(args.method, "method")
        if method:
            self.methods = tuple(m.strip() for m in method.split(",") if m.strip())
        elif "methods" in file_vals:
            self.methods = tuple(
                m.strip() for m in file_vals["methods"].split(",") if m.strip()
            )
        else:
            self.methods = harness.KNOWN_METHODS
        if self.input is None:
            raise CliError("no input dataset given (--input or config 'input')")

    def load(self):
        return corpus.load_ratings(self.input, self.format, self.scale)

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            dataset_name=self.dataset_name,
            k_folds=self.folds,
            seed=self.seed,
            list_length=self.list_length,
            like_threshold=self.like_threshold,
            methods=self.methods,
            theta=self.theta,
            knn_k=self.knn_k,
            knn_measure=self.knn_measure,
            penalty_variant=self.penalty_variant,
            step3_weight=self.step3_weight,
            metric_sim=self.metric_sim,
            mf=MfConfig(seed=self.seed),
        )

    def echo(self):
        pairs = sorted(
            (k, v)
            for k, v in vars(self).items()
            if not k.startswith("_") and not callable(v)
        )
        print("resolved config:", ", ".join(f"{k}={v}" for k, v in pairs), file=sys.stderr)


def _parse_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _write_lists_csv(path, lists, item_labels, user_labels, length=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("user,rank,item,score\n")
        for rec in lists:
            ranked = rec.ranked if length is None else rec.ranked[:length]
            for rank, (item, score) in enumerate(ranked, start=1):
                fh.write(
                    f"{user_labels[rec.user]},{rank},{item_labels[item]},{score:.4f}\n"
                )


def _run(args: argparse.Namespace) -> int:
    res = Resolved(args)
    res.echo()
    res.out_dir.mkdir(parents=True, exist_ok=True)
    ds = res.load()
    cmd = args.command

    if cmd == "stats":
        st = corpus.dataset_stats(ds)
        print(f"{st.users},{st.items},{st.links},{st.sparsity:.4f}")
        return 0

    if cmd == "prepare":
        spec = FilterSpec(
            top_items=res.top_items,
            min_item_ratings=res.min_item_ratings,
            min_user_ratings=res.min_user_ratings,
        )
        filtered = corpus.filter_dataset(ds, spec)
        corpus.write_ratings(filtered, res.out_dir / "filtered.csv")
        folds = corpus.kfold_split(filtered, res.folds, res.seed)
        corpus.write_fold_manifest(folds, res.out_dir / "folds.csv")
        st = corpus.dataset_stats(filtered)
        print(f"{st.users},{st.items},{st.links},{st.sparsity:.4f}")
        return 0

    cfg = res.experiment_config()

    if cmd == "recommend":
        user_label = getattr(args, "user", None)
        if user_label is None:
            raise CliError("recommend requires --user")
        if user_label not in ds.user_labels:
            raise CliError(f"unknown user {user_label!r}")
        # the whole dataset is the training side; nothing is held out
        ctx = harness.FoldContext(FoldPair(train=ds, test=ds.subset(np.arange(0))), cfg)
        (rec,) = ctx.rank(cfg.methods[0], [ds.user_labels.index(user_label)])
        print("user,rank,item,score")
        for rank, (item, score) in enumerate(rec.ranked[: res.list_length], start=1):
            print(f"{user_label},{rank},{ds.item_labels[item]},{score:.4f}")
        return 0

    if cmd == "eval":
        sinks = []

        def sink(fold, method, lists):
            path = res.out_dir / f"recommendations_fold{fold}_{method.replace('+', '')}.csv"
            _write_lists_csv(path, lists, ds.item_labels, ds.user_labels, res.list_length)
            sinks.append(path)

        report = harness.run_experiment(ds, cfg, list_sink=sink)
        harness.write_report_csv(report, res.out_dir / "report.csv")
        harness.write_manifest(report, res.out_dir / "manifest.json")
        print((res.out_dir / "report.csv").read_text(), end="")
        return 0

    if cmd == "sweep-theta":
        thetas = (
            _parse_floats(args.thetas)
            if getattr(args, "thetas", None)
            else [round(0.1 * t, 1) for t in range(11)]
        )
        report = harness.sweep_theta(ds, cfg, thetas)
        harness.write_report_csv(report, res.out_dir / "sweep_theta.csv")
        print((res.out_dir / "sweep_theta.csv").read_text(), end="")
        return 0

    if cmd == "sweep-length":
        lengths = (
            _parse_ints(args.lengths)
            if getattr(args, "lengths", None)
            else list(range(10, 101, 10))
        )
        report = harness.sweep_list_length(ds, cfg, lengths)
        harness.write_report_csv(report, res.out_dir / "sweep_length.csv")
        print((res.out_dir / "sweep_length.csv").read_text(), end="")
        return 0

    if cmd == "sweep-knn":
        ks = _parse_ints(args.ks) if getattr(args, "ks", None) else [5, 10, 20, 40, 80]
        measures = (
            [m.strip() for m in args.measures.split(",")]
            if getattr(args, "measures", None)
            else simkit.MEASURES
        )
        report = harness.sweep_knn(ds, cfg, ks, measures)
        harness.write_report_csv(report, res.out_dir / "sweep_knn.csv")
        print((res.out_dir / "sweep_knn.csv").read_text(), end="")
        return 0

    if cmd == "analyze":
        analysis = harness.analyze_corpus(ds, seed=res.seed)
        out = res.out_dir
        with open(out / "cri_ratios.csv", "w", encoding="utf-8") as fh:
            fh.write("ratio\n")
            for r in analysis.cri_ratios:
                fh.write(f"{r:.4f}\n")
        with open(out / "activity_popularity.csv", "w", encoding="utf-8") as fh:
            fh.write("activity,mean_item_popularity\n")
            for lvl, val in analysis.activity_popularity:
                fh.write(f"{lvl},{val:.4f}\n")
        with open(out / "popularity_rating.csv", "w", encoding="utf-8") as fh:
            fh.write("popularity,mean_rating\n")
            for lvl, val in analysis.popularity_rating:
                fh.write(f"{lvl},{val:.4f}\n")
        with open(out / "similarity_samples.csv", "w", encoding="utf-8") as fh:
            fh.write("measure,normalized_similarity\n")
            for measure, vals in analysis.similarity_samples.items():
                for v in vals:
                    fh.write(f"{measure},{v:.4f}\n")
        print(
            f"cri_skewness,{analysis.cri_skewness:.4f}\n"
            f"activity_slope,{analysis.activity_regression.slope:.4f}\n"
            f"activity_p,{analysis.activity_regression.p_value:.4g}\n"
            f"popularity_slope,{analysis.popularity_regression.slope:.4f}\n"
            f"popularity_p,{analysis.popularity_regression.p_value:.4g}"
        )
        return 0

    raise CliError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _run(args)
    except (CliError, corpus.CorpusError, harness.HarnessError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
