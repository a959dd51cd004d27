"""Command-line front end.

Subcommands: `stats` (dataset summary), `preprocess` (standardized one-hot
matrix export), `train` (single runs over dims and seeds), `benchmark`
(multi-method grid with rank aggregation). A JSON config file can supply any
flag value; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .benchmark import (
    METHODS,
    X_SPACE_METHODS,
    BenchmarkTask,
    run_benchmark,
    run_dir,
    run_single,
    write_report_csv,
    write_report_json,
    write_summary_csv,
)
from .dataset import (
    IngestionError,
    dataset_stats,
    load_csv,
    preprocess,
    write_matrix_csv,
)
from .neuralnet import DivergenceError

DEFAULT_DIMS = "5,10,15,20"


def _add_common(sub, with_label=True):
    sub.add_argument("--dataset", action="append", help="CSV dataset path")
    if with_label:
        sub.add_argument("--label-column", help="name of the ground-truth column")
    sub.add_argument("--json", action="store_true",
                     help="machine-parsable single-line JSON output")


def _add_run_flags(sub):
    sub.add_argument("--method", help=f"one of {', '.join(METHODS)}, comma-separable")
    sub.add_argument("--dims", help=f"embedding dimensions, default {DEFAULT_DIMS}")
    sub.add_argument("--gamma", type=float, help="clustering loss weight, default 0.1")
    sub.add_argument("--pretrain-epochs", type=int, help="default 1000")
    sub.add_argument("--finetune-epochs", type=int, help="default 1000")
    sub.add_argument("--batch-cap", type=int, help="default 256")
    sub.add_argument("--seed", help="seed or comma-separated seeds, default 0")
    sub.add_argument("--out", help="output directory, default runs")
    sub.add_argument("--config", help="JSON file with flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gceals",
        description="Deep clustering of tabular data with a Gaussian cluster head.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_stats = subs.add_parser("stats", help="print dataset summary statistics")
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_pre = subs.add_parser("preprocess", help="export the standardized matrix")
    _add_common(p_pre)
    p_pre.add_argument("--out", help="output CSV path", required=True)
    p_pre.set_defaults(func=cmd_preprocess)

    p_train = subs.add_parser("train", help="train and score a single method")
    _add_common(p_train)
    _add_run_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_bench = subs.add_parser("benchmark", help="multi-method benchmark with ranks")
    _add_common(p_bench)
    _add_run_flags(p_bench)
    p_bench.add_argument("--jobs", type=int, help="parallel workers, default 1")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise IngestionError(f"{path}: config must be a JSON object")
    return loaded


def _pick(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    return value


def _int_list(value, flag: str) -> list:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    try:
        return [int(part) for part in str(value).split(",") if part != ""]
    except ValueError:
        raise IngestionError(f"{flag} must be comma-separated integers, got {value!r}")


def _method_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [part for part in str(value).split(",") if part != ""]


def _dataset_paths(paths) -> list:
    """The --dataset values as a list; at least one is required."""
    if not paths:
        raise IngestionError("--dataset is required")
    return [paths] if isinstance(paths, str) else paths


def _load_tasks(args, config) -> list:
    paths = _dataset_paths(_pick(args, config, "dataset", None))
    label = _pick(args, config, "label_column", None)
    if label is None:
        raise IngestionError("--label-column is required (k comes from the labels)")
    tasks = []
    for path in paths:
        ds = load_csv(path, label_column=label, name=Path(path).stem)
        tasks.append(BenchmarkTask(name=ds.name, x=preprocess(ds), y=ds.labels,
                                   k=ds.n_classes))
    return tasks


def cmd_stats(args) -> int:
    for path in _dataset_paths(args.dataset):
        ds = load_csv(path, label_column=args.label_column, name=Path(path).stem)
        stats = dataset_stats(ds)
        if args.json:
            print(stats.to_json())
        else:
            print(f"{stats.name}: n={stats.n} features={stats.feature_dimension} "
                  f"classes={stats.classes} fs_ratio={stats.fs_ratio:.3f} "
                  f"c_score={stats.c_score:.3f}")
    return 0


def cmd_preprocess(args) -> int:
    paths = _dataset_paths(args.dataset)
    if len(paths) != 1:
        raise IngestionError("preprocess takes exactly one --dataset")
    ds = load_csv(paths[0], label_column=args.label_column,
                  name=Path(paths[0]).stem)
    x = preprocess(ds)
    write_matrix_csv(x, args.out)
    if ds.labels is not None:
        label_path = str(args.out) + ".labels.csv"
        with open(label_path, "w", encoding="utf-8") as fh:
            fh.write("label\n")
            for v in ds.labels:
                fh.write(f"{int(v)}\n")
    if args.json:
        print(json.dumps({"out": str(args.out), "rows": x.shape[0],
                          "columns": x.shape[1]}))
    else:
        print(f"wrote {x.shape[0]}x{x.shape[1]} matrix to {args.out}")
    return 0


def _run_settings(args, config) -> dict:
    return {
        "gamma": float(_pick(args, config, "gamma", 0.1)),
        "pretrain_epochs": int(_pick(args, config, "pretrain_epochs", 1000)),
        "finetune_epochs": int(_pick(args, config, "finetune_epochs", 1000)),
        "batch_cap": int(_pick(args, config, "batch_cap", 256)),
    }


def cmd_train(args) -> int:
    config = _load_config(args)
    tasks = _load_tasks(args, config)
    if len(tasks) != 1:
        raise IngestionError("train takes exactly one --dataset")
    task = tasks[0]
    methods = _method_list(_pick(args, config, "method", "gceals"))
    if len(methods) != 1:
        raise IngestionError("train takes exactly one --method")
    method = methods[0]
    if method not in METHODS:
        raise IngestionError(f"unknown method {method!r}")
    dims = _int_list(_pick(args, config, "dims", DEFAULT_DIMS), "--dims")
    seeds = _int_list(_pick(args, config, "seed", "0"), "--seed")
    out_root = _pick(args, config, "out", "runs")
    settings = _run_settings(args, config)

    job_dims = [None] if method in X_SPACE_METHODS else dims
    for dim in job_dims:
        for seed in seeds:
            out_dir = run_dir(out_root, task.name, method, dim, seed)
            cell = run_single(task, method, dim, seed, out_dir=out_dir, **settings)
            record = {"dataset": task.name, "method": method,
                      "dim": "x" if dim is None else dim, "seed": seed,
                      "acc": round(cell["acc"], 6), "ari": round(cell["ari"], 6),
                      "nmi": round(cell["nmi"], 6)}
            if "stop_reason" in cell:
                record["stop_reason"] = cell["stop_reason"]
                record["stop_epoch"] = cell["stop_epoch"]
            if args.json:
                print(json.dumps(record))
            else:
                # tables quote accuracy on the 0-100 scale; files keep [0, 1]
                parts = [f"dataset={record['dataset']}", f"method={method}",
                         f"dim={record['dim']}", f"seed={seed}",
                         f"acc={100 * record['acc']:.2f}",
                         f"ari={record['ari']:.3f}", f"nmi={record['nmi']:.3f}"]
                if "stop_reason" in record:
                    parts.append(f"stop={record['stop_reason']}@{record['stop_epoch']}")
                print(" ".join(parts))
    return 0


def cmd_benchmark(args) -> int:
    config = _load_config(args)
    tasks = _load_tasks(args, config)
    methods = _method_list(_pick(args, config, "method", ",".join(METHODS)))
    dims = _int_list(_pick(args, config, "dims", DEFAULT_DIMS), "--dims")
    seeds = _int_list(_pick(args, config, "seed", "0"), "--seed")
    jobs = int(_pick(args, config, "jobs", 1))
    out_root = _pick(args, config, "out", "runs")
    settings = _run_settings(args, config)

    os.makedirs(out_root, exist_ok=True)
    report = run_benchmark(tasks, methods, dims, seeds, jobs=jobs,
                           out_root=out_root, **settings)
    write_report_json(report, os.path.join(out_root, "benchmark.json"))
    write_report_csv(report, os.path.join(out_root, "benchmark.csv"))
    write_summary_csv(report, os.path.join(out_root, "summary.csv"))
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        slim = {key: report[key] for key in
                ("datasets", "methods", "dims", "seeds", "best_dim",
                 "ranks", "average_ranks", "warnings")}
        print(json.dumps(slim, sort_keys=True))
    else:
        for method in report["methods"]:
            avg = report["average_ranks"][method]
            if avg["mean"] is None:
                print(f"{method}: no rank (failed runs)")
            else:
                print(f"{method}: avg rank {avg['mean']:.2f} ({avg['std']:.2f})")
        print(f"report written to {out_root}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is reserved for divergence
        return 1 if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
