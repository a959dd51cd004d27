"""Traditional clustering baselines: K-means (Lloyd) and full-covariance GMM.

Both run on raw features or on autoencoder embeddings, are deterministic per
seed, and expose enough internals (inertia/log-likelihood traces) for the
monotonicity checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import DenseMatrix, Rng, as_matrix

GMM_RIDGE = 1e-6
# Lloyd stops when no centroid moves farther than LLOYD_TOL, EM when the
# per-sample log-likelihood gains less than GMM_TOL; each at its iteration cap
LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-4
GMM_MAX_ITER = 200
GMM_TOL = 1e-7


class NumericError(RuntimeError):
    """A linear-algebra step failed despite regularization."""


@dataclass
class KMeansResult:
    centroids: DenseMatrix
    labels: np.ndarray
    inertia: float
    inertia_trace: list = field(default_factory=list, repr=False)


@dataclass
class GmmResult:
    means: DenseMatrix
    covariances: np.ndarray  # (k, m, m)
    mixing_weights: np.ndarray
    responsibilities: DenseMatrix
    log_likelihoods: list = field(default_factory=list, repr=False)

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.responsibilities, axis=1)


def _sq_distances(x: DenseMatrix, centers: DenseMatrix) -> DenseMatrix:
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * (x @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def kmeans_plusplus(x: DenseMatrix, k: int, rng: Rng) -> DenseMatrix:
    """Seed centroids by squared-distance-weighted sampling."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(0, n)]
    d2 = _sq_distances(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(0, n)
        else:
            r = float(rng.uniform(0.0, 1.0, ())) * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[j] = x[idx]
        np.minimum(d2, _sq_distances(x, centers[j : j + 1])[:, 0], out=d2)
    return centers


def _repair_empty(x, centers, labels, d2_assigned):
    """Move the farthest point into each empty cluster (lowest index first)."""
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    taken = set()
    for j in range(k):
        if counts[j] > 0:
            continue
        order = np.argsort(-d2_assigned, kind="stable")
        pick = next(int(p) for p in order if p not in taken and counts[labels[p]] > 1)
        taken.add(pick)
        counts[labels[pick]] -= 1
        labels[pick] = j
        counts[j] = 1
        centers[j] = x[pick]
        d2_assigned[pick] = 0.0
    return centers, labels, d2_assigned


def lloyd(x: DenseMatrix, centers: DenseMatrix) -> KMeansResult:
    """Lloyd iterations from given centroids until no centroid moves farther
    than LLOYD_TOL, or LLOYD_MAX_ITER updates.

    The inertia trace has one entry per assignment: one per update, plus the
    final assignment to the returned centroids.
    """
    centers = centers.copy()
    k = centers.shape[0]
    trace = []
    converged = False
    while True:
        d2 = _sq_distances(x, centers)
        labels = np.argmin(d2, axis=1)
        d2_assigned = d2[np.arange(x.shape[0]), labels]
        centers, labels, d2_assigned = _repair_empty(x, centers, labels, d2_assigned)
        trace.append(float(d2_assigned.sum()))
        if converged or len(trace) > LLOYD_MAX_ITER:
            break
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = x[labels == j].mean(axis=0)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        converged = shift <= LLOYD_TOL
    return KMeansResult(
        centroids=centers, labels=labels, inertia=trace[-1], inertia_trace=trace
    )


def kmeans(x: DenseMatrix, k: int, rng: Rng, restarts: int = 10) -> KMeansResult:
    """Best-of-restarts K-means with k-means++ seeding.

    Ties on inertia break toward the lowest restart index, so results are
    deterministic per seed even when restarts may run in parallel.
    """
    x = as_matrix(x, "x")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > x.shape[0]:
        raise ValueError(f"k={k} exceeds sample count {x.shape[0]}")
    best = None
    for child in rng.split(restarts):
        seeds = kmeans_plusplus(x, k, child)
        result = lloyd(x, seeds)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def _gaussian_log_density(x, mean, cov):
    """Row vector of log N(x_i | mean, cov) via Cholesky."""
    m = x.shape[1]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"covariance not positive definite after ridge: {e}") from e
    diff = (x - mean).T
    y = solve_triangular(chol, diff, lower=True)
    quad = np.sum(y * y, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (quad + m * np.log(2.0 * np.pi) + logdet)


def _m_step(x, resp):
    n, m = x.shape
    nk = resp.sum(axis=0)
    nk = np.maximum(nk, 10.0 * np.finfo(np.float64).tiny)
    weights = nk / nk.sum()
    means = (resp.T @ x) / nk[:, None]
    covs = np.empty((resp.shape[1], m, m))
    for j in range(resp.shape[1]):
        diff = x - means[j]
        covs[j] = (diff.T * resp[:, j]) @ diff / nk[j]
        covs[j][np.diag_indices(m)] += GMM_RIDGE
    return weights, means, covs


def gmm_fit(x: DenseMatrix, k: int, rng: Rng) -> GmmResult:
    """EM for a full-covariance mixture, initialized from K-means labels.

    Each M step adds a 1e-6 ridge to the covariance diagonals. Stops when the
    per-sample log-likelihood gain drops below GMM_TOL or after GMM_MAX_ITER
    M steps; a last E step matches the responsibilities to the returned
    parameters.
    """
    km = kmeans(x, k, rng)
    n = x.shape[0]
    resp = np.zeros((n, k))
    resp[np.arange(n), km.labels] = 1.0
    weights, means, covs = _m_step(x, resp)
    trace = []
    converged = False
    while True:
        log_prob = np.empty((n, k))
        for j in range(k):
            log_prob[:, j] = _gaussian_log_density(x, means[j], covs[j]) + np.log(weights[j])
        row_max = log_prob.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.sum(np.exp(log_prob - row_max), axis=1))
        resp = np.exp(log_prob - log_norm[:, None])
        if converged or len(trace) == GMM_MAX_ITER:
            break
        ll = float(log_norm.mean())
        converged = bool(trace) and ll - trace[-1] < GMM_TOL
        trace.append(ll)
        weights, means, covs = _m_step(x, resp)
    return GmmResult(
        means=means,
        covariances=covs,
        mixing_weights=weights,
        responsibilities=resp,
        log_likelihoods=trace,
    )
