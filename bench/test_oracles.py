"""The benchmark's own ACC/ARI implementations against brute force.

Run with `python3 -m pytest bench/test_oracles.py`; the repository's test
suite (testpaths = tests) does not collect it.
"""

import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import brute_accuracy, pair_counting_ari  # noqa: E402


def loop_accuracy(y_true, y_pred):
    """Per-sample count under every relabelling of the predicted ids."""
    side = max(max(y_true), max(y_pred)) + 1
    best = 0
    for perm in itertools.permutations(range(side)):
        best = max(best, sum(perm[p] == t for t, p in zip(y_true, y_pred)))
    return best / len(y_true)


def loop_ari(y_true, y_pred):
    """Hubert-Arabie ARI from the contingency table, in plain Python."""
    n = len(y_true)
    table: dict = {}
    for t, p in zip(y_true, y_pred):
        table[t, p] = table.get((t, p), 0) + 1
    rows: dict = {}
    cols: dict = {}
    for (t, p), c in table.items():
        rows[t] = rows.get(t, 0) + c
        cols[p] = cols.get(p, 0) + c

    def comb2(v):
        return v * (v - 1) / 2

    index = sum(comb2(c) for c in table.values())
    a = sum(comb2(c) for c in rows.values())
    b = sum(comb2(c) for c in cols.values())
    expected = a * b / comb2(n)
    top = (a + b) / 2
    if top == expected:
        return 1.0
    return (index - expected) / (top - expected)


def random_pairs(count, seed):
    gen = random.Random(seed)
    for _ in range(count):
        n = gen.randint(2, 40)
        kt, kp = gen.randint(1, 5), gen.randint(1, 5)
        yield ([gen.randrange(kt) for _ in range(n)],
               [gen.randrange(kp) for _ in range(n)])


@pytest.mark.parametrize("seed", range(4))
def test_accuracy_matches_loop(seed):
    for y_true, y_pred in random_pairs(50, seed):
        assert brute_accuracy(y_true, y_pred) == loop_accuracy(y_true, y_pred)


@pytest.mark.parametrize("seed", range(4))
def test_ari_matches_contingency_formula(seed):
    for y_true, y_pred in random_pairs(50, seed):
        assert abs(pair_counting_ari(y_true, y_pred, chunk=7)
                   - loop_ari(y_true, y_pred)) <= 1e-12


def test_known_values():
    assert pair_counting_ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5
    assert pair_counting_ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert brute_accuracy([0, 0, 1, 1, 2], [2, 2, 0, 0, 0]) == 0.8
