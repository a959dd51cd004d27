"""Multi-method clustering benchmark harness.

Runs a grid of (dataset, method, dim, seed) jobs, scores each run against the
held-out labels, selects the best embedding dimension per dataset and method
by accuracy, and aggregates within-dataset method ranks into an average rank
per method.

Per-job seeds are derived by stable hashing so results are identical for any
worker count and any execution order. Input-space methods ignore the embedding
dimension: they run once per seed and their scores are replicated across dim
rows of the report. The embedding methods of one (dataset, dim, seed) share a
single pretrained autoencoder, seeded independently of the method, so they
all start from the same embedding.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import gmm_fit, kmeans
from .linalg import DenseMatrix, Rng
from .metrics import (
    LabelPair,
    adjusted_rand_index,
    clustering_accuracy,
    metrics_json,
    normalized_mutual_information,
)
from .neuralnet import encode, pretrain_autoencoder, save_checkpoint
from .training import (
    MODE_DEC,
    MODE_GCEALS,
    MODE_IDEC,
    GcealsConfig,
    train_dec_variant,
    train_gceals,
    write_embedding_csv,
)

METHODS = ("gceals", "dec", "idec", "kmeans_x", "gmm_x", "kmeans_z", "gmm_z")
X_SPACE_METHODS = ("kmeans_x", "gmm_x")
FINETUNE_METHODS = ("gceals", "dec", "idec")
BLAS_SPIN_VAR = "OPENBLAS_THREAD_TIMEOUT"


@dataclass
class BenchmarkTask:
    """One dataset ready to cluster: preprocessed features, labels, k."""

    name: str
    x: DenseMatrix
    y: np.ndarray
    k: int


def job_seed(dataset: str, method: str, dim, seed: int) -> int:
    """Stable per-job seed; dim is ignored for input-space methods."""
    dim_tag = "x" if dim is None else str(int(dim))
    tag = f"{dataset}|{method}|{dim_tag}|{seed}"
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def run_single(task: BenchmarkTask, method: str, dim, seed: int,
               gamma: float = 0.1, pretrain_epochs: int = 1000,
               finetune_epochs: int = 1000, batch_cap: int = 256,
               out_dir=None, pretrained=None) -> dict:
    """One clustering run, scored against the task labels.

    `dim` must be None for input-space methods. When `out_dir` is given the
    run's artifacts (metrics.json, and for embedding methods trace.csv,
    embedding.csv, checkpoint) are written there.

    `pretrained` is a (network, pretrain losses) pair as returned by
    `pretrain_autoencoder`, with bottleneck width `dim`; an embedding method
    then skips its own pretraining. `kmeans_z`/`gmm_z` only encode with the
    network, while `gceals`/`dec`/`idec` fine-tune it in place, so each of
    those needs a network no later run reads.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if (dim is None) != (method in X_SPACE_METHODS):
        raise ValueError(f"dim={dim!r} invalid for method {method!r}")
    if pretrained is not None and \
            pretrained[0].plan.sizes[pretrained[0].plan.bottleneck] != dim:
        raise ValueError(f"pretrained bottleneck width != dim {dim!r}")
    rng = Rng(job_seed(task.name, method, dim, seed))
    x, k = task.x, task.k
    report = None
    embedding = None
    net = None if pretrained is None else pretrained[0]
    started = time.perf_counter()
    if method == "kmeans_x":
        labels = kmeans(x, k, rng).labels
    elif method == "gmm_x":
        labels = gmm_fit(x, k, rng).labels
    elif method in ("kmeans_z", "gmm_z"):
        pre_rng, cluster_rng = rng.split(2)
        if net is None:
            net, _ = pretrain_autoencoder(x, dim, pretrain_epochs, batch_cap, pre_rng)
        embedding = encode(net, x)
        if method == "kmeans_z":
            labels = kmeans(embedding, k, cluster_rng).labels
        else:
            labels = gmm_fit(embedding, k, cluster_rng).labels
    else:
        config = GcealsConfig(
            embedding_dim=dim, gamma=gamma, pretrain_epochs=pretrain_epochs,
            finetune_epochs=finetune_epochs, batch_cap=batch_cap,
            mode=MODE_GCEALS if method == "gceals" else method)
        if method == "gceals":
            run = train_gceals(x, k, config, rng, pretrained=net)
        else:
            run = train_dec_variant(x, k, config, rng, pretrained=net)
        report = run.report
        if pretrained is not None:
            report.pretrain_losses = pretrained[1]
        labels = report.hard_labels
        net = run.autoencoder
        embedding = run.embedding
    runtime = time.perf_counter() - started

    pair = LabelPair(task.y, labels)
    acc = clustering_accuracy(pair)
    ari = adjusted_rand_index(pair)
    nmi = normalized_mutual_information(pair)
    cell = {"acc": acc, "ari": ari, "nmi": nmi, "runtime_sec": runtime,
            "status": "ok"}
    if report is not None:
        cell["stop_reason"] = report.stop_reason
        cell["stop_epoch"] = report.stop_epoch
        report.scores = {"acc": round(acc, 6), "ari": round(ari, 6),
                         "nmi": round(nmi, 6)}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
            fh.write(metrics_json(acc, ari, nmi))
            fh.write("\n")
        if embedding is not None:
            write_embedding_csv(embedding, labels, os.path.join(out_dir, "embedding.csv"))
        if report is not None:
            report.write_trace_csv(os.path.join(out_dir, "trace.csv"))
            with open(os.path.join(out_dir, "train_report.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(report.to_json())
                fh.write("\n")
        if net is not None:
            save_checkpoint(net, os.path.join(out_dir, "checkpoint.npz"))
    return cell


def run_dir(out_root, dataset: str, method: str, dim, seed: int) -> str:
    dim_name = "dimx" if dim is None else f"dim{int(dim)}"
    return os.path.join(str(out_root), dataset, method, dim_name, f"seed{seed}")


def _failed(exc: Exception) -> dict:
    return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}


def _run_unit(unit: dict) -> list:
    """One unit of work: an input-space job, or every embedding method of one
    (dataset, dim, seed) on one shared pretraining. Returns [(key, cell)].

    A fine-tuning method changes the network in place, so it gets a copy
    unless it runs last; at most one copy is alive at a time. A failed
    pretraining fails every cell of its unit.
    """
    task, dim, seed, methods = unit["task"], unit["dim"], unit["seed"], unit["methods"]
    settings, out_root = unit["settings"], unit["out_root"]
    keys = [(task.name, method, dim, seed) for method in methods]
    pretrained = None
    if dim is not None:
        try:
            pretrained = pretrain_autoencoder(
                task.x, dim, settings["pretrain_epochs"], settings["batch_cap"],
                Rng(job_seed(task.name, "pretrain", dim, seed)))
        except Exception as exc:
            return [(key, _failed(exc)) for key in keys]
    outcomes = []
    for i, (key, method) in enumerate(zip(keys, methods)):
        shared = pretrained
        if method in FINETUNE_METHODS and i < len(methods) - 1:
            shared = (copy.deepcopy(pretrained[0]), pretrained[1])
        out_dir = None if out_root is None else run_dir(out_root, *key)
        try:
            cell = run_single(task, method, dim, seed, out_dir=out_dir,
                              pretrained=shared, **settings)
        except Exception as exc:
            cell = _failed(exc)
        outcomes.append((key, cell))
    return outcomes


def _map_units(units: list, jobs: int) -> list:
    """Run the units in order, or on a pool of spawned worker processes."""
    workers = min(jobs, len(units))
    if workers <= 1:
        return [_run_unit(unit) for unit in units]
    # Workers keep this process's BLAS thread count, because OpenBLAS rounds
    # matrix products differently at other counts and the outputs must not
    # depend on --jobs. What they give up is idle BLAS threads spinning on
    # cores the other workers need: 2**4 cycles is OpenBLAS's shortest spin.
    # A worker reads the variable when numpy loads, so it has to be in the
    # environment the worker inherits at spawn.
    unset = BLAS_SPIN_VAR not in os.environ
    os.environ.setdefault(BLAS_SPIN_VAR, "4")
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_run_unit, units))
    finally:
        if unset:
            os.environ.pop(BLAS_SPIN_VAR, None)


def average_rank_of(values: dict) -> dict:
    """Rank methods by score, higher better; tied scores share the mean rank."""
    ranks = {}
    vals = list(values.values())
    for name, v in values.items():
        greater = sum(1 for w in vals if w > v)
        equal = sum(1 for w in vals if w == v)
        ranks[name] = greater + (equal + 1) / 2.0
    return ranks


def run_benchmark(tasks: list, methods: list, dims: list, seeds: list,
                  gamma: float = 0.1, pretrain_epochs: int = 1000,
                  finetune_epochs: int = 1000, batch_cap: int = 256,
                  jobs: int = 1, out_root=None) -> dict:
    """The full grid, scored, aggregated, and rank-ordered.

    Any failed run leaves its cell missing and excludes that whole dataset
    from the rank aggregation, with a warning in the report.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    dims = [int(d) for d in dims]
    for what, values in (("dataset names", [t.name for t in tasks]),
                         ("methods", methods), ("dims", dims), ("seeds", seeds)):
        if len(set(values)) != len(values):
            raise ValueError(f"{what} must be unique")
    if len(methods) < 2:
        raise ValueError("ranking needs at least 2 methods")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")

    settings = {"gamma": gamma, "pretrain_epochs": pretrain_epochs,
                "finetune_epochs": finetune_epochs, "batch_cap": batch_cap}
    embedding_methods = [m for m in methods if m not in X_SPACE_METHODS]
    units = []
    for task in tasks:
        unit = {"task": task, "settings": settings, "out_root": out_root}
        units += [{**unit, "methods": [method], "dim": None, "seed": seed}
                  for method in methods if method in X_SPACE_METHODS for seed in seeds]
        if embedding_methods:
            units += [{**unit, "methods": embedding_methods, "dim": dim, "seed": seed}
                      for dim in dims for seed in seeds]
    results = dict(outcome for outcomes in _map_units(units, jobs)
                   for outcome in outcomes)

    dataset_names = [t.name for t in tasks]
    warnings = []
    rows = []
    failed_datasets = set()
    for name in dataset_names:
        for method in methods:
            for dim in dims:
                for seed in seeds:
                    lookup_dim = None if method in X_SPACE_METHODS else dim
                    cell = results[(name, method, lookup_dim, seed)]
                    row = {"dataset": name, "method": method, "dim": dim,
                           "seed": seed}
                    row.update(cell)
                    rows.append(row)
                    if cell["status"] != "ok":
                        failed_datasets.add(name)
    for name in sorted(failed_datasets):
        warnings.append(f"dataset {name!r} excluded from ranking: failed run(s)")

    # mean score per (dataset, method, dim) across seeds, then best dim by acc
    best = {}
    for name in dataset_names:
        best[name] = {}
        for method in methods:
            per_dim = {}
            for dim in dims:
                lookup_dim = None if method in X_SPACE_METHODS else dim
                cells = [results[(name, method, lookup_dim, s)] for s in seeds]
                if all(c["status"] == "ok" for c in cells):
                    per_dim[dim] = {
                        "acc": float(np.mean([c["acc"] for c in cells])),
                        "ari": float(np.mean([c["ari"] for c in cells])),
                        "nmi": float(np.mean([c["nmi"] for c in cells])),
                    }
            if per_dim:
                top = max(per_dim, key=lambda d: (per_dim[d]["acc"], -d))
                best[name][method] = {"dim": top, **per_dim[top]}

    ranked = [n for n in dataset_names if n not in failed_datasets]
    ranks = {}
    for name in ranked:
        scores = {method: best[name][method]["acc"] for method in methods}
        ranks[name] = average_rank_of(scores)
    average_ranks = {}
    for method in methods:
        if ranked:
            per_dataset = [ranks[name][method] for name in ranked]
            average_ranks[method] = {
                "mean": float(np.mean(per_dataset)),
                "std": float(np.std(per_dataset)),
            }
        else:
            average_ranks[method] = {"mean": None, "std": None}
    if not ranked:
        warnings.append("no dataset completed every run; ranks unavailable")

    return {
        "datasets": dataset_names,
        "methods": list(methods),
        "dims": dims,
        "seeds": list(seeds),
        "gamma": gamma,
        "rows": rows,
        "best_dim": best,
        "ranks": ranks,
        "average_ranks": average_ranks,
        "warnings": warnings,
    }


def write_report_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(report: dict, path) -> None:
    """Score table, one row per (dataset, method, dim, seed).

    Runtimes are deliberately left out so the table is byte-identical across
    reruns and worker counts.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "dim", "seed", "acc", "ari",
                         "nmi", "status"])
        for row in report["rows"]:
            if row["status"] == "ok":
                scores = [repr(round(row[m], 6)) for m in ("acc", "ari", "nmi")]
            else:
                scores = ["", "", ""]
            writer.writerow([row["dataset"], row["method"], row["dim"],
                             row["seed"]] + scores + [row["status"]])


def write_summary_csv(report: dict, path) -> None:
    """Aggregate table: best-dim accuracy per dataset and average rank per method."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "avg_rank", "rank_std"] +
                        [f"acc_{name}" for name in report["datasets"]])
        for method in report["methods"]:
            avg = report["average_ranks"][method]
            cells = []
            for name in report["datasets"]:
                entry = report["best_dim"].get(name, {}).get(method)
                cells.append("" if entry is None else repr(round(entry["acc"], 6)))
            writer.writerow([
                method,
                "" if avg["mean"] is None else repr(round(avg["mean"], 6)),
                "" if avg["std"] is None else repr(round(avg["std"], 6)),
            ] + cells)
