"""Checks of a run's written outputs, computed apart from the program.

ACC is recomputed by brute force over label permutations and ARI by direct
pair counting with exact integer arithmetic; neither uses gceals.metrics or
scipy. Every check raises `CheckFailed` naming the file and what was wrong.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from fractions import Fraction

import numpy as np

SCORE_TOL = 5e-7 + 1e-12  # a reported score is rounded to 6 decimals
SUM_TOL = 1e-9


class CheckFailed(AssertionError):
    """A written output disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def brute_accuracy(y_true, y_pred) -> float:
    """Best agreement over every one-to-one cluster-to-class relabelling."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    side = int(max(y_true.max(), y_pred.max())) + 1
    counts = np.zeros((side, side), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        counts[p, t] += 1
    cols = np.arange(side)
    best = max(int(counts[cols, list(perm)].sum())
               for perm in itertools.permutations(range(side)))
    return best / y_true.size


def pair_counting_ari(y_true, y_pred, chunk: int = 512) -> float:
    """ARI from the four pair counts (same/different in each partition).

    Counts every unordered pair directly, in row chunks to bound memory, and
    evaluates 2(ad - bc) / ((a + b)(b + d) + (a + c)(c + d)) exactly.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    n = y_true.size
    both = same_true = same_pred = 0
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        st = y_true[lo:hi, None] == y_true[None, :]
        sp = y_pred[lo:hi, None] == y_pred[None, :]
        upper = np.arange(lo, hi)[:, None] < np.arange(n)[None, :]
        both += int(np.count_nonzero(st & sp & upper))
        same_true += int(np.count_nonzero(st & upper))
        same_pred += int(np.count_nonzero(sp & upper))
    total = n * (n - 1) // 2
    a = both
    b = same_true - both
    c = same_pred - both
    d = total - a - b - c
    den = (a + b) * (b + d) + (a + c) * (c + d)
    if den == 0:
        return 1.0
    return float(Fraction(2 * (a * d - b * c), den))


def read_labels(path: str) -> np.ndarray:
    """Hard labels from the last column of an embedding.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0][-1] == "label", f"{path}: no label column")
    return np.array([int(r[-1]) for r in rows[1:]], dtype=np.int64)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_scores(where: str, y_true, labels, reported: dict) -> tuple:
    """ACC and ARI recomputed from labels must match the reported ones."""
    acc = brute_accuracy(y_true, labels)
    ari = pair_counting_ari(y_true, labels)
    require(abs(acc - reported["acc"]) <= SCORE_TOL,
            f"{where}: reported acc {reported['acc']} != brute force {acc!r}")
    require(abs(ari - reported["ari"]) <= SCORE_TOL,
            f"{where}: reported ari {reported['ari']} != pair counting {ari!r}")
    return acc, ari


def check_embedding_run(run_dir: str, y_true) -> dict:
    """One embedding-method run directory: labels, posterior, weights, scores."""
    labels = read_labels(os.path.join(run_dir, "embedding.csv"))
    require(labels.size == len(y_true), f"{run_dir}: {labels.size} labels "
            f"for {len(y_true)} rows")
    metrics = read_json(os.path.join(run_dir, "metrics.json"))
    report_path = os.path.join(run_dir, "train_report.json")
    if os.path.exists(report_path):
        report = read_json(report_path)
        post = np.array(report["posterior"], dtype=np.float64)
        require(post.shape[0] == labels.size, f"{report_path}: posterior rows")
        require(bool(np.all(post >= 0.0)), f"{report_path}: negative posterior")
        worst = float(np.max(np.abs(post.sum(axis=1) - 1.0)))
        require(worst <= SUM_TOL,
                f"{report_path}: posterior row sum off by {worst:.3e}")
        require(np.array_equal(np.argmax(post, axis=1), labels),
                f"{run_dir}: labels are not the posterior argmax")
        require(report["hard_labels"] == labels.tolist(),
                f"{run_dir}: embedding.csv and train_report.json labels differ")
        weights = np.array(report["weight_trace"], dtype=np.float64)
        require(weights.ndim == 2 and weights.shape[0] >= 1,
                f"{report_path}: empty weight trace")
        worst = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))
        require(worst <= SUM_TOL,
                f"{report_path}: weight-trace row sum off by {worst:.3e}")
        require(report["scores"]["acc"] == metrics["acc"]
                and report["scores"]["ari"] == metrics["ari"],
                f"{run_dir}: train_report.json scores != metrics.json")
    check_scores(run_dir, y_true, labels, metrics)
    return metrics


def check_grid(out_root: str, report: dict, n_methods: int) -> None:
    """Every cell ok, rank sums M(M+1)/2, best dims equal the CSV arg-max."""
    bad = [r for r in report["rows"] if r["status"] != "ok"]
    require(not bad, f"{out_root}: {len(bad)} failed cell(s), first {bad[:1]}")
    expected = n_methods * (n_methods + 1) / 2.0
    for name, ranks in report["ranks"].items():
        total = sum(ranks.values())
        require(abs(total - expected) <= 1e-9,
                f"{out_root}: ranks of {name} sum to {total}, not {expected}")
    require(sorted(report["ranks"]) == sorted(report["datasets"]),
            f"{out_root}: a dataset is missing from the ranking")
    with open(os.path.join(out_root, "benchmark.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    per_dim: dict = {}
    for r in rows:
        key = (r["dataset"], r["method"])
        per_dim.setdefault(key, {}).setdefault(int(r["dim"]), []).append(
            float(r["acc"]))
    for (name, method), dims in per_dim.items():
        means = {d: sum(v) / len(v) for d, v in dims.items()}
        top = max(means, key=lambda d: (means[d], -d))
        got = report["best_dim"][name][method]["dim"]
        require(got == top, f"{out_root}: best dim of {name}/{method} is {got}, "
                f"benchmark.csv says {top}")
