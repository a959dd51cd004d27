import itertools
import json
import math

import numpy as np
import pytest

from gceals.metrics import (
    ContingencyTable,
    LabelPair,
    adjusted_rand_index,
    clustering_accuracy,
    contingency_table,
    metrics_json,
    normalized_mutual_information,
)


def brute_force_accuracy(y_true, y_pred):
    """Best agreement over every permutation-style cluster-to-class mapping."""
    side = max(y_true.max(), y_pred.max()) + 1
    best = 0
    for perm in itertools.permutations(range(side)):
        mapped = np.array([perm[c] for c in y_pred])
        best = max(best, int(np.sum(mapped == y_true)))
    return best / len(y_true)


def brute_force_ari(y_true, y_pred):
    """Pair-counting ARI: the a/b/c/d closed form, no contingency table."""
    n = len(y_true)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_t = y_true[i] == y_true[j]
            same_p = y_pred[i] == y_pred[j]
            if same_t and same_p:
                a += 1
            elif same_t:
                b += 1
            elif same_p:
                c += 1
            else:
                d += 1
    num = 2.0 * (a * d - b * c)
    den = (a + b) * (b + d) + (a + c) * (c + d)
    if den == 0:
        return 1.0
    return num / den


def brute_force_nmi(y_true, y_pred):
    n = len(y_true)
    classes = sorted(set(y_true.tolist()))
    clusters = sorted(set(y_pred.tolist()))
    h_t = -sum((np.sum(y_true == t) / n) * math.log(np.sum(y_true == t) / n)
               for t in classes)
    h_p = -sum((np.sum(y_pred == p) / n) * math.log(np.sum(y_pred == p) / n)
               for p in clusters)
    mi = 0.0
    for t in classes:
        for p in clusters:
            joint = np.sum((y_true == t) & (y_pred == p)) / n
            if joint > 0:
                mi += joint * math.log(joint * n * n /
                                       (np.sum(y_true == t) * np.sum(y_pred == p)))
    if h_t == 0.0 or h_p == 0.0:
        return 1.0 if h_t == h_p else 0.0
    return mi / math.sqrt(h_t * h_p)


def random_pairs(count, max_n=30, max_k=5, seed=0):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n = int(gen.integers(2, max_n + 1))
        kt = int(gen.integers(1, max_k + 1))
        kp = int(gen.integers(1, max_k + 1))
        yield (gen.integers(0, kt, size=n).astype(np.int64),
               gen.integers(0, kp, size=n).astype(np.int64))


def test_label_pair_validation():
    with pytest.raises(ValueError):
        LabelPair(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        LabelPair(np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError):
        LabelPair(np.array([-1, 0]), np.array([0, 1]))


def test_contingency_marginals():
    pair = LabelPair(np.array([0, 0, 1, 1, 1]), np.array([0, 1, 1, 1, 2]))
    table = contingency_table(pair)
    assert table.counts.sum() == 5
    assert table.row_marginals.tolist() == [2, 3]
    assert table.col_marginals.tolist() == [1, 3, 1]


def test_accuracy_identity_and_relabeling():
    y = np.array([0, 1, 2, 0, 1, 2])
    assert clustering_accuracy(LabelPair(y, y)) == 1.0
    relabeled = np.array([2, 0, 1, 2, 0, 1])
    assert clustering_accuracy(LabelPair(y, relabeled)) == 1.0


def test_accuracy_worked_example():
    pair = LabelPair(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]))
    assert clustering_accuracy(pair) == 0.75


def test_accuracy_matches_brute_force():
    for y_true, y_pred in random_pairs(60, seed=7):
        got = clustering_accuracy(LabelPair(y_true, y_pred))
        assert abs(got - brute_force_accuracy(y_true, y_pred)) <= 1e-12


def test_ari_identical_partitions():
    y = np.array([0, 0, 1, 2, 2])
    assert adjusted_rand_index(LabelPair(y, y)) == 1.0


def test_ari_reaches_lower_bound():
    pair = LabelPair(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    assert np.isclose(adjusted_rand_index(pair), -0.5)


def test_ari_single_cluster_vs_balanced():
    pair = LabelPair(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0]))
    assert adjusted_rand_index(pair) == 0.0


def test_ari_matches_brute_force():
    for y_true, y_pred in random_pairs(60, seed=8):
        got = adjusted_rand_index(LabelPair(y_true, y_pred))
        assert abs(got - brute_force_ari(y_true, y_pred)) <= 1e-12


def test_ari_needs_two_samples():
    with pytest.raises(ValueError):
        adjusted_rand_index(LabelPair(np.array([0]), np.array([0])))


def test_nmi_identical_partitions():
    y = np.array([0, 0, 1, 1, 2])
    assert normalized_mutual_information(LabelPair(y, y)) == 1.0


def test_nmi_independent_partitions():
    # product contingency: every (class, cluster) cell equally filled
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 0, 1])
    assert abs(normalized_mutual_information(LabelPair(y_true, y_pred))) <= 1e-12


def test_nmi_zero_entropy_conventions():
    flat = np.zeros(4, dtype=int)
    varied = np.array([0, 1, 0, 1])
    assert normalized_mutual_information(LabelPair(flat, flat)) == 1.0
    assert normalized_mutual_information(LabelPair(flat, varied)) == 0.0
    assert normalized_mutual_information(LabelPair(varied, flat)) == 0.0


def test_nmi_worked_example_against_entropy_oracle():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 0, 0, 1])
    got = normalized_mutual_information(LabelPair(y_true, y_pred))
    assert abs(got - brute_force_nmi(y_true, y_pred)) <= 1e-12


def test_nmi_matches_oracle_on_random_pairs():
    for y_true, y_pred in random_pairs(60, seed=9):
        got = normalized_mutual_information(LabelPair(y_true, y_pred))
        assert abs(got - brute_force_nmi(y_true, y_pred)) <= 1e-10


def test_symmetry_and_relabeling_invariance():
    gen = np.random.default_rng(10)
    y_true = gen.integers(0, 3, size=25).astype(np.int64)
    y_pred = gen.integers(0, 4, size=25).astype(np.int64)
    ari = adjusted_rand_index(LabelPair(y_true, y_pred))
    nmi = normalized_mutual_information(LabelPair(y_true, y_pred))
    assert np.isclose(adjusted_rand_index(LabelPair(y_pred, y_true)), ari)
    assert np.isclose(normalized_mutual_information(LabelPair(y_pred, y_true)), nmi)
    relabel = np.array([2, 0, 3, 1])
    assert np.isclose(
        adjusted_rand_index(LabelPair(y_true, relabel[y_pred])), ari)
    acc = clustering_accuracy(LabelPair(y_true, y_pred))
    assert np.isclose(clustering_accuracy(LabelPair(y_true, relabel[y_pred])), acc)


def test_metrics_json_six_decimals():
    doc = json.loads(metrics_json(0.123456789, -0.5, 1.0))
    assert doc == {"acc": 0.123457, "ari": -0.5, "nmi": 1.0}
