"""Joint embedding clustering with a Gaussian cluster head.

The cluster head holds per-cluster means, diagonal covariances (stored as
log-variances so positivity is structural), and non-gradient cluster weights.
All of its math is in log space: the log kernel of a sample is the negated
Mahalanobis distance -D to each cluster, the likelihood is ``row_softmax(-D)``
and the posterior is ``row_softmax(-D + log w)``, so a sample far from every
centroid still goes to the nearest one. A small projection head turns
embeddings into softmax assignments trained to match the posterior via
cross-entropy, jointly with the reconstruction loss.

Also provides the t-distribution baseline mode (``dec`` / ``idec``): trainable
centroids under a sharpened frequency-normalized target and a KL loss.

Both modes share one fine-tune loop: pretraining, K-means initialization, one
class-balanced batch and one Adam step per epoch, traces and the final
assignment. Only the cluster head's loss, gradients, end-of-epoch update and
assignment differ. All gradients are exact reverse-mode; the Gaussian head's
weights are updated by their closed form on the full dataset once per epoch
and trigger early stopping when any weight falls to half of 1/K.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .baselines import kmeans
from .linalg import DenseMatrix, Rng, as_matrix, row_log_softmax, row_softmax
from .neuralnet import (
    AdamState,
    DivergenceError,
    Network,
    apply_layer,
    backward,
    backward_range,
    encode,
    forward,
    init_network,
    mlp_plan,
    pretrain_autoencoder,
    reconstruction_grad,
    reconstruction_loss,
)

LOG_FLOOR = 1e-12

MODE_GCEALS = "gceals"
MODE_DEC = "dec"
MODE_IDEC = "idec"

STOP_COMPLETED = "completed"
STOP_WEIGHT_COLLAPSE = "weight-collapse"

# training stops once a cluster weight falls to this share of 1/K
EARLY_STOP_FACTOR = 0.5


@dataclass
class ClusterHead:
    """Trainable per-cluster means and log-variances, plus closed-form weights."""

    k: int
    means: DenseMatrix  # (k, m)
    log_variances: DenseMatrix  # (k, m)
    weights: np.ndarray  # (k,), on the simplex, not updated by gradients

    @property
    def variances(self) -> DenseMatrix:
        return np.exp(self.log_variances)

    def covariance_determinants(self) -> np.ndarray:
        return np.prod(self.variances, axis=1)


@dataclass
class GcealsConfig:
    embedding_dim: int
    gamma: float = 0.1
    pretrain_epochs: int = 1000
    finetune_epochs: int = 1000
    batch_cap: int = 256
    mode: str = MODE_GCEALS

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.batch_cap < 1:
            raise ValueError("batch_cap must be >= 1")
        if self.mode not in (MODE_GCEALS, MODE_DEC, MODE_IDEC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.pretrain_epochs < 1 or self.finetune_epochs < 1:
            raise ValueError("epoch counts must be >= 1")


@dataclass
class TrainReport:
    """Per-epoch traces plus the final assignments of a training run."""

    pretrain_losses: list = field(default_factory=list)
    recon_losses: list = field(default_factory=list)
    cluster_losses: list = field(default_factory=list)
    weight_trace: list = field(default_factory=list)
    centroid_shifts: list = field(default_factory=list)
    cov_determinants: list = field(default_factory=list)
    stop_epoch: int = 0
    stop_reason: str = STOP_COMPLETED
    hard_labels: np.ndarray | None = None
    posterior: DenseMatrix | None = None
    scores: dict | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "pretrain_losses": self.pretrain_losses,
                "recon_losses": self.recon_losses,
                "cluster_losses": self.cluster_losses,
                "weight_trace": [list(map(float, w)) for w in self.weight_trace],
                "centroid_shifts": [list(map(float, s)) for s in self.centroid_shifts],
                "cov_determinants": [list(map(float, d)) for d in self.cov_determinants],
                "stop_epoch": self.stop_epoch,
                "stop_reason": self.stop_reason,
                "hard_labels": None if self.hard_labels is None
                else [int(v) for v in self.hard_labels],
                "posterior": None if self.posterior is None else self.posterior.tolist(),
                "scores": self.scores,
            }
        )

    def write_trace_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["epoch", "recon_loss", "cluster_loss", "min_weight",
                 "max_centroid_shift", "min_cov_det"]
            )
            for e in range(len(self.recon_losses)):
                writer.writerow(
                    [
                        e + 1,
                        repr(self.recon_losses[e]),
                        repr(self.cluster_losses[e]),
                        repr(float(np.min(self.weight_trace[e]))),
                        repr(float(np.max(self.centroid_shifts[e]))),
                        repr(float(np.min(self.cov_determinants[e]))),
                    ]
                )


@dataclass
class GcealsRun:
    autoencoder: Network
    head: ClusterHead
    mlp: Network | None
    report: TrainReport
    embedding: DenseMatrix  # (n, m): the final network's encoding of x


def soft_assign(z_batch: DenseMatrix, head: ClusterHead) -> DenseMatrix:
    """Log kernel -D: negated Mahalanobis distance of every sample to every
    cluster, shape (n, k)."""
    diff = z_batch[:, None, :] - head.means[None, :, :]
    t = np.sum(diff * diff / head.variances[None, :, :], axis=2)
    return -np.sqrt(np.maximum(t, 0.0))


def likelihood_and_weights(log_kernel: DenseMatrix):
    """Per-sample likelihood row_softmax(-D) and the column-mean cluster weights."""
    p_prime = row_softmax(log_kernel)
    return p_prime, p_prime.mean(axis=0)


def posterior(log_kernel: DenseMatrix, weights: np.ndarray) -> DenseMatrix:
    """Likelihood times cluster weight, renormalized: row_softmax(-D + log w)."""
    return row_softmax(log_kernel + np.log(weights)[None, :])


def clustering_loss(p: DenseMatrix, log_q: DenseMatrix) -> float:
    """Cross-entropy -(1/N) sum p log q, given log q."""
    return float(-np.sum(p * log_q) / p.shape[0])


def joint_loss(recon: float, cluster: float, gamma: float) -> float:
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return recon + gamma * cluster


def balanced_batch(pseudo_labels: np.ndarray, batch_cap: int, rng: Rng) -> np.ndarray:
    """One epoch's class-balanced sample indices.

    Per-cluster quota is min(smallest cluster size, batch_cap // k); the quota
    is drawn without replacement from every cluster, fresh each call.
    """
    counts = np.bincount(pseudo_labels)
    if np.any(counts == 0):
        raise ValueError("every pseudo-label cluster must be non-empty")
    k = counts.size
    quota = int(min(counts.min(), batch_cap // k))
    if quota < 1:
        raise ValueError(f"batch_cap {batch_cap} too small for {k} clusters")
    picks = []
    for j in range(k):
        members = np.flatnonzero(pseudo_labels == j)
        picks.append(members[rng.choice(members.size, quota)])
    return np.concatenate(picks)


def early_stop_check(weights: np.ndarray, k: int) -> bool:
    """True when any cluster weight has fallen to EARLY_STOP_FACTOR/k or below."""
    return bool(np.min(weights) <= EARLY_STOP_FACTOR / k)


def _gaussian_head_gradients(z: DenseMatrix, head: ClusterHead, mlp: Network):
    """Batch cluster loss and exact gradients through both p and q.

    Returns (cluster_loss, dZ, dMeans, dLogVars, mlp_grads, dZ_mlp). The
    cluster weights are treated as constants.
    """
    n = z.shape[0]
    diff = z[:, None, :] - head.means[None, :, :]  # (n, k, m)
    inv_var = 1.0 / head.variances  # (k, m)
    scaled = diff * inv_var[None, :, :]
    d = np.sqrt(np.maximum(np.sum(diff * scaled, axis=2), 0.0))
    p = posterior(-d, head.weights)

    acts = forward(mlp, z)
    log_q = row_log_softmax(acts[-1])
    loss = clustering_loss(p, log_q)

    # path through p: cross-entropy -> posterior softmax(-d + log w) -> distance
    g_p = -log_q / n
    g_d = -p * (g_p - np.sum(g_p * p, axis=1, keepdims=True))
    g_t = g_d / (2.0 * np.maximum(d, 1e-12))
    g_t2 = 2.0 * g_t[:, :, None] * scaled
    d_z = np.sum(g_t2, axis=1)
    d_means = -np.sum(g_t2, axis=0)
    d_logvar = -np.sum(g_t[:, :, None] * diff * scaled, axis=0)

    # path through q: cross-entropy -> log-softmax -> projection head
    mlp_grads, d_z_mlp = backward(mlp, acts, (np.exp(log_q) - p) / n)
    return loss, d_z, d_means, d_logvar, mlp_grads, d_z_mlp


def _autoencoder_gradients(ae: Network, acts: list, x_batch: DenseMatrix,
                           d_z_cluster: DenseMatrix, gamma: float):
    """Reconstruction loss and the gradients of recon + gamma * cluster for
    every autoencoder tensor, given the cluster loss's gradient at the
    bottleneck. The backward pass is split there: the decoder sees only the
    reconstruction loss, the encoder both."""
    bn = ae.plan.bottleneck
    x_hat = acts[-1]
    dec_grads, d_z_recon = backward_range(ae, acts, reconstruction_grad(x_batch, x_hat),
                                          bn, ae.plan.n_layers)
    enc_grads, _ = backward_range(ae, acts, d_z_recon + gamma * d_z_cluster, 0, bn,
                                  need_input_grad=False)
    return reconstruction_loss(x_batch, x_hat), enc_grads + dec_grads


def joint_loss_eval(ae: Network, mlp: Network, head: ClusterHead,
                    x_batch: DenseMatrix, gamma: float) -> float:
    """Forward-only joint loss; the finite-difference side of the gradient check."""
    acts = forward(ae, x_batch)
    z = acts[ae.plan.bottleneck]
    p = posterior(soft_assign(z, head), head.weights)
    cluster = clustering_loss(p, row_log_softmax(forward(mlp, z)[-1]))
    return joint_loss(reconstruction_loss(x_batch, acts[-1]), cluster, gamma)


def joint_step_gradients(ae: Network, mlp: Network, head: ClusterHead,
                         x_batch: DenseMatrix, gamma: float):
    """One batch's losses and gradients for every trainable tensor.

    Gradient layout matches [ae.params..., means, log_variances, mlp.params...].
    """
    acts = forward(ae, x_batch)
    z = acts[ae.plan.bottleneck]
    cluster, d_z_head, d_means, d_logvar, mlp_grads, d_z_mlp = \
        _gaussian_head_gradients(z, head, mlp)
    recon, ae_grads = _autoencoder_gradients(ae, acts, x_batch, d_z_head + d_z_mlp, gamma)
    grads = ae_grads + [gamma * d_means, gamma * d_logvar] + [gamma * g for g in mlp_grads]
    return recon, cluster, grads


def _init_from_kmeans(ae: Network, x: DenseMatrix, k: int, rng: Rng):
    z = encode(ae, x)
    km = kmeans(z, k, rng)
    counts = np.bincount(km.labels, minlength=k)
    if np.any(counts == 0):
        raise ValueError("empty pseudo-cluster at initialization")
    return km.labels, km.centroids.copy()


def tdist_q(z_batch: DenseMatrix, centroids: DenseMatrix) -> DenseMatrix:
    """Student-t kernel assignments (1 + ||z - mu||^2)^-1, row-normalized."""
    diff = z_batch[:, None, :] - centroids[None, :, :]
    w = 1.0 / (1.0 + np.sum(diff * diff, axis=2))
    return w / w.sum(axis=1, keepdims=True)


def dec_target(q: DenseMatrix) -> DenseMatrix:
    """Sharpened target: square q, discount by soft cluster frequency, renormalize."""
    f = q.sum(axis=0)
    if np.any(f <= 0):
        raise ValueError("zero cluster frequency in target computation")
    weight = q * q / f[None, :]
    return weight / weight.sum(axis=1, keepdims=True)


def kl_divergence(p: DenseMatrix, q: DenseMatrix) -> float:
    """sum_ij p log(p/q) with q floored and 0 log 0 = 0."""
    q_floored = np.maximum(q, LOG_FLOOR)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q_floored[mask])))


def _tdist_gradients(z: DenseMatrix, centroids: DenseMatrix):
    """KL loss of q against its sharpened target p, and its gradients w.r.t.
    z and centroids, with p held constant."""
    diff = z[:, None, :] - centroids[None, :, :]
    w = 1.0 / (1.0 + np.sum(diff * diff, axis=2))
    q = w / w.sum(axis=1, keepdims=True)
    p = dec_target(q)
    loss = kl_divergence(p, q)
    coeff = 2.0 * w * (p - q)  # (n, k)
    d_z = np.sum(coeff[:, :, None] * diff, axis=1)
    d_centroids = -np.sum(coeff[:, :, None] * diff, axis=0)
    return loss, d_z, d_centroids


class _GaussianObjective:
    """G-CEALS: the Gaussian head and the projection head, trained jointly with
    the whole autoencoder; the weights are re-estimated on the full data after
    every step. That step's encoding of x is kept as the final embedding, as
    nothing changes the network after the last one."""

    def __init__(self, ae: Network, head: ClusterHead, config: GcealsConfig, rng: Rng):
        self.ae = ae
        self.head = head
        self.mlp = init_network(mlp_plan(config.embedding_dim, head.k), rng)
        self.params = ae.params + [head.means, head.log_variances] + self.mlp.params

    def loss_and_grads(self, x_batch: DenseMatrix, gamma: float):
        return joint_step_gradients(self.ae, self.mlp, self.head, x_batch, gamma)

    def after_epoch(self, x: DenseMatrix) -> bool:
        """Closed-form weight update; True when a weight has collapsed."""
        self.z = encode(self.ae, x)
        _, self.head.weights = likelihood_and_weights(soft_assign(self.z, self.head))
        return early_stop_check(self.head.weights, self.head.k)

    def final_embedding(self, x: DenseMatrix) -> DenseMatrix:
        return self.z

    def assign(self, z: DenseMatrix) -> DenseMatrix:
        return posterior(soft_assign(z, self.head), self.head.weights)


def _encoder_activations(ae: Network, x: DenseMatrix) -> list:
    """The first bottleneck + 1 activations of `forward`, without running the
    decoder: what a loss that reads only the embedding needs."""
    acts = [x]
    for i in range(ae.plan.bottleneck):
        acts.append(apply_layer(ae, i, acts[-1]))
    return acts


class _StudentTObjective:
    """DEC / IDEC: Student-t assignments under the sharpened target and a KL
    loss. ``dec`` trains the encoder and the centroids on KL alone; ``idec``
    adds the reconstruction loss and trains the decoder too. The weights stay
    uniform, so training never stops early."""

    mlp = None

    def __init__(self, ae: Network, head: ClusterHead, idec: bool):
        self.ae = ae
        self.head = head
        self.idec = idec
        self.params = (ae.params if idec else ae.encoder_params) + [head.means]

    def loss_and_grads(self, x_batch: DenseMatrix, gamma: float):
        ae = self.ae
        bn = ae.plan.bottleneck
        acts = forward(ae, x_batch) if self.idec else _encoder_activations(ae, x_batch)
        kl, d_z_kl, d_centroids = _tdist_gradients(acts[bn], self.head.means)
        if self.idec:
            recon, ae_grads = _autoencoder_gradients(ae, acts, x_batch, d_z_kl, gamma)
            return recon, kl, ae_grads + [gamma * d_centroids]
        enc_grads, _ = backward_range(ae, acts, d_z_kl, 0, bn, need_input_grad=False)
        return 0.0, kl, enc_grads + [d_centroids]

    def after_epoch(self, x: DenseMatrix) -> bool:
        return False

    def final_embedding(self, x: DenseMatrix) -> DenseMatrix:
        return encode(self.ae, x)

    def assign(self, z: DenseMatrix) -> DenseMatrix:
        return tdist_q(z, self.head.means)


def _finetune(x: DenseMatrix, k: int, config: GcealsConfig, rng: Rng,
              pretrained: Network | None) -> GcealsRun:
    """The training run every mode shares; `config.mode` picks the cluster head."""
    if k < 2:
        raise ValueError("k must be >= 2")
    x = as_matrix(x, "x")
    m = config.embedding_dim
    pre_rng, km_rng, mlp_rng, batch_rng = rng.split(4)
    report = TrainReport()
    if pretrained is None:
        ae, report.pretrain_losses = pretrain_autoencoder(
            x, m, config.pretrain_epochs, config.batch_cap, pre_rng)
    else:
        ae = pretrained
        if ae.plan.sizes[ae.plan.bottleneck] != m:
            raise ValueError("pretrained bottleneck width != config.embedding_dim")
    pseudo, centroids = _init_from_kmeans(ae, x, k, km_rng)
    head = ClusterHead(k=k, means=centroids, log_variances=np.zeros((k, m)),
                       weights=np.full(k, 1.0 / k))
    if config.mode == MODE_GCEALS:
        objective = _GaussianObjective(ae, head, config, mlp_rng)
    else:
        objective = _StudentTObjective(ae, head, idec=config.mode == MODE_IDEC)

    adam = AdamState(objective.params)
    for epoch in range(1, config.finetune_epochs + 1):
        xb = x[balanced_batch(pseudo, config.batch_cap, batch_rng)]
        recon, cluster, grads = objective.loss_and_grads(xb, config.gamma)
        total = joint_loss(recon, cluster, config.gamma)
        if not np.isfinite(total):
            raise DivergenceError(epoch, total)
        mu_before = head.means.copy()
        adam.step(objective.params, grads)
        collapsed = objective.after_epoch(x)

        report.recon_losses.append(recon)
        report.cluster_losses.append(cluster)
        report.weight_trace.append(head.weights.copy())
        report.centroid_shifts.append(
            np.sqrt(((head.means - mu_before) ** 2).sum(axis=1)))
        report.cov_determinants.append(head.covariance_determinants())
        report.stop_epoch = epoch
        if collapsed:
            report.stop_reason = STOP_WEIGHT_COLLAPSE
            break

    z = objective.final_embedding(x)
    report.posterior = objective.assign(z)
    report.hard_labels = np.argmax(report.posterior, axis=1)
    return GcealsRun(autoencoder=ae, head=head, mlp=objective.mlp, report=report,
                     embedding=z)


def train_gceals(x: DenseMatrix, k: int, config: GcealsConfig, rng: Rng,
                 pretrained: Network | None = None) -> GcealsRun:
    """Full joint training run.

    Pretrains the autoencoder (or continues from `pretrained`), initializes the
    cluster head from K-means on the embedding with unit variances and uniform
    weights, then fine-tunes: one class-balanced batch per epoch, one Adam step
    over encoder, decoder, means, log-variances, and projection head jointly,
    followed by a full-dataset weight update and the weight-collapse check.
    """
    if config.mode != MODE_GCEALS:
        raise ValueError(f"train_gceals needs mode gceals, got {config.mode!r}")
    return _finetune(x, k, config, rng, pretrained)


def train_dec_variant(x: DenseMatrix, k: int, config: GcealsConfig, rng: Rng,
                      pretrained: Network | None = None) -> GcealsRun:
    """The t-distribution baseline: ``dec`` trains encoder and centroids on the
    KL loss alone; ``idec`` adds the reconstruction loss weighted against
    gamma * KL. Same pretraining, K-means initialization, and balanced
    batching as the Gaussian-head run; no covariances, weights, or projection
    head, and no weight-collapse stop. Hard labels are the argmax of q.
    """
    if config.mode not in (MODE_DEC, MODE_IDEC):
        raise ValueError(f"train_dec_variant needs mode dec or idec, got {config.mode!r}")
    return _finetune(x, k, config, rng, pretrained)


def write_embedding_csv(z: DenseMatrix, labels: np.ndarray, path) -> None:
    """Embedding plus hard labels as CSV for external projection/plotting tools."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"z{j}" for j in range(z.shape[1])] + ["label"])
        for row, lab in zip(z, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])
