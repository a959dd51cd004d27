import itertools

import numpy as np
import pytest

from gceals.baselines import GmmResult, KMeansResult, gmm_fit, kmeans
from gceals.linalg import Rng

from conftest import make_blobs


def brute_force_inertia(x, k):
    """Minimum inertia over every assignment of n points to k clusters."""
    n = x.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        counts = np.bincount(assign, minlength=k)
        if np.any(counts == 0):
            continue
        total = 0.0
        for j in range(k):
            members = x[np.array(assign) == j]
            centroid = members.mean(axis=0)
            total += float(((members - centroid) ** 2).sum())
        best = min(best, total)
    return best


def test_kmeans_k1_closed_form():
    x = Rng(0).randn(20, 3)
    result = kmeans(x, 1, Rng(1))
    assert np.allclose(result.centroids[0], x.mean(axis=0))
    assert np.isclose(result.inertia, ((x - x.mean(axis=0)) ** 2).sum())


def test_kmeans_two_symmetric_pairs():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    result = kmeans(x, 2, Rng(3))
    got = sorted(result.centroids.tolist())
    assert np.allclose(got, [[0.0, 0.5], [10.0, 0.5]])


def test_kmeans_matches_brute_force_on_8_points():
    for seed in range(6):
        x = Rng(100 + seed).randn(8, 2)
        for k in (2, 3):
            result = kmeans(x, k, Rng(seed))
            assert abs(result.inertia - brute_force_inertia(x, k)) <= 1e-9


def test_kmeans_labels_in_range_and_centroids_are_means():
    x, _ = make_blobs([[0, 0], [8, 8], [0, 8]], 30, seed=2)
    result = kmeans(x, 3, Rng(5))
    assert set(result.labels.tolist()) == {0, 1, 2}
    for j in range(3):
        members = x[result.labels == j]
        assert np.allclose(result.centroids[j], members.mean(axis=0), atol=1e-3)


def test_kmeans_inertia_trace_monotone():
    x = Rng(11).randn(60, 4)
    result = kmeans(x, 4, Rng(12))
    trace = result.inertia_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_deterministic_per_seed():
    x = Rng(13).randn(50, 3)
    a = kmeans(x, 3, Rng(14))
    b = kmeans(x, 3, Rng(14))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_rejects_k_over_n():
    with pytest.raises(ValueError):
        kmeans(Rng(0).randn(3, 2), 4, Rng(1))


@pytest.mark.parametrize("fit", [kmeans, gmm_fit])
def test_fits_reject_non_finite_input(fit):
    x = Rng(15).randn(40, 2)
    x[7, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit(x, 2, Rng(16))


def test_gmm_k1_closed_form():
    x = Rng(20).randn(40, 3)
    result = gmm_fit(x, 1, Rng(21))
    assert np.allclose(result.means[0], x.mean(axis=0))
    expected_cov = np.cov(x.T, bias=True) + 1e-6 * np.eye(3)
    assert np.allclose(result.covariances[0], expected_cov)
    assert np.allclose(result.mixing_weights, [1.0])


def test_gmm_separated_blobs_posteriors_one_hot():
    x, _ = make_blobs([[0.0] * 3, [20.0] * 3], 50, noise=1.0, seed=4)
    result = gmm_fit(x, 2, Rng(22))
    ambiguity = np.minimum(result.responsibilities[:, 0],
                           result.responsibilities[:, 1])
    assert ambiguity.max() < 1e-3


def test_gmm_loglik_trace_monotone():
    for seed in range(8):
        x = Rng(200 + seed).randn(40, 3) * (1 + seed % 3)
        result = gmm_fit(x, 3, Rng(seed))
        trace = result.log_likelihoods
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_gmm_invariants():
    x = Rng(23).randn(50, 4)
    result = gmm_fit(x, 3, Rng(24))
    assert np.isclose(result.mixing_weights.sum(), 1.0)
    assert np.allclose(result.responsibilities.sum(axis=1), 1.0)
    for cov in result.covariances:
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_gmm_ridge_keeps_degenerate_data_solvable():
    # all points on a 1-d line in 3-d space: raw covariance is singular
    t = np.linspace(0, 1, 30)[:, None]
    x = t @ np.array([[1.0, 2.0, -1.0]])
    result = gmm_fit(x, 2, Rng(25))
    assert np.all(np.isfinite(result.log_likelihoods))


def test_gmm_deterministic_per_seed():
    x = Rng(26).randn(45, 3)
    a = gmm_fit(x, 2, Rng(27))
    b = gmm_fit(x, 2, Rng(27))
    assert np.array_equal(a.responsibilities, b.responsibilities)
    assert np.array_equal(a.means, b.means)


def test_gmm_labels_argmax_of_responsibilities():
    x, _ = make_blobs([[0, 0], [9, 9]], 25, seed=6)
    result = gmm_fit(x, 2, Rng(28))
    assert np.array_equal(result.labels,
                          np.argmax(result.responsibilities, axis=1))
