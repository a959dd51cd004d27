"""External clustering evaluation: ACC (optimal mapping), ARI, and NMI.

ACC solves a linear assignment over the label contingency table; ARI uses the
pair-counting contingency formula; NMI normalizes mutual information by the
geometric mean of the partition entropies. All three are relabeling-invariant,
which the test suite checks against brute-force oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .linalg import ShapeError


@dataclass
class LabelPair:
    """Ground-truth class ids against predicted cluster ids, equal length."""

    y_true: np.ndarray
    y_pred: np.ndarray

    def __post_init__(self):
        self.y_true = np.asarray(self.y_true, dtype=np.int64)
        self.y_pred = np.asarray(self.y_pred, dtype=np.int64)
        if self.y_true.shape != self.y_pred.shape or self.y_true.ndim != 1:
            raise ShapeError("label vectors must be 1-D and the same length")
        if self.y_true.size == 0:
            raise ValueError("empty label vectors")
        if self.y_true.min() < 0 or self.y_pred.min() < 0:
            raise ValueError("label ids must be non-negative")

    @property
    def n(self) -> int:
        return self.y_true.size


@dataclass
class ContingencyTable:
    counts: np.ndarray  # (classes, clusters)
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int


def contingency_table(pair: LabelPair) -> ContingencyTable:
    c_true = int(pair.y_true.max()) + 1
    c_pred = int(pair.y_pred.max()) + 1
    counts = np.zeros((c_true, c_pred), dtype=np.int64)
    np.add.at(counts, (pair.y_true, pair.y_pred), 1)
    return ContingencyTable(
        counts=counts,
        row_marginals=counts.sum(axis=1),
        col_marginals=counts.sum(axis=0),
        n=pair.n,
    )


def clustering_accuracy(pair: LabelPair) -> float:
    """Fraction of samples correct under the best cluster-to-class mapping.

    One linear assignment on the rectangular contingency table, so cluster
    and class counts may differ; the optimal matched count is unique even
    when the optimal mapping is not.
    """
    table = contingency_table(pair).counts
    rows, cols = linear_sum_assignment(table, maximize=True)
    return int(table[rows, cols].sum()) / pair.n


def _comb2(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    return a * (a - 1) // 2


def adjusted_rand_index(pair: LabelPair) -> float:
    """Chance-adjusted pair-counting agreement, in [-0.5, 1].

    All pair counts are integers, so the index is computed as an exact integer
    ratio and only the final division rounds; rational results like -1/2 come
    out exact.
    """
    if pair.n < 2:
        raise ValueError("ARI needs at least 2 samples")
    table = contingency_table(pair)
    sum_comb = int(_comb2(table.counts).sum())
    sum_a = int(_comb2(table.row_marginals).sum())
    sum_b = int(_comb2(table.col_marginals).sum())
    total = int(_comb2(pair.n))
    numerator = 2 * (total * sum_comb - sum_a * sum_b)
    denominator = total * (sum_a + sum_b) - 2 * sum_a * sum_b
    if denominator == 0:
        # both partitions trivial in the same way: perfect agreement
        return 1.0
    return numerator / denominator


def normalized_mutual_information(pair: LabelPair) -> float:
    """I(true; pred) / sqrt(H(true) * H(pred)), natural logs, in [0, 1]."""
    table = contingency_table(pair)
    n = float(pair.n)
    p_true = table.row_marginals / n
    p_pred = table.col_marginals / n
    h_true = float(-np.sum(p_true[p_true > 0] * np.log(p_true[p_true > 0])))
    h_pred = float(-np.sum(p_pred[p_pred > 0] * np.log(p_pred[p_pred > 0])))
    if h_true == 0.0 or h_pred == 0.0:
        # both entropies zero means both partitions are the single trivial cluster
        return 1.0 if h_true == h_pred else 0.0
    # one nonzero per row and column: same partition up to relabeling, I = H
    if np.all(np.count_nonzero(table.counts, axis=0) == 1) and \
            np.all(np.count_nonzero(table.counts, axis=1) == 1):
        return 1.0
    joint = table.counts / n
    mask = joint > 0
    outer = np.outer(p_true, p_pred)
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    mi = max(mi, 0.0)
    return min(mi / np.sqrt(h_true * h_pred), 1.0)


def metrics_json(acc: float, ari: float, nmi: float) -> str:
    """The `{acc, ari, nmi}` JSON object, values at 6 decimal places."""
    return json.dumps({"acc": round(acc, 6), "ari": round(ari, 6), "nmi": round(nmi, 6)})
