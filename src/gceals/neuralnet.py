"""Fully connected networks with hand-rolled forward/backward passes.

Provides the symmetric autoencoder (d-500-500-2000-m-2000-500-500-d), the
small projection head used for soft assignments, an Adam optimizer, and the
reconstruction pretraining stage. Gradients are exact reverse-mode: every
operation here is covered by finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DenseMatrix, Rng, ShapeError

RELU = "relu"
LINEAR = "linear"

HIDDEN_WIDTHS = (500, 500, 2000)
MLP_HIDDEN = 256


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"non-finite loss {loss} at epoch {epoch}")


@dataclass
class LayerPlan:
    """Layer widths plus per-layer activation tags.

    `activations[i]` applies to the output of weight layer i; `bottleneck`,
    when set, is the index into `sizes` of the embedding layer.
    """

    sizes: list
    activations: list
    bottleneck: int | None = None

    def __post_init__(self):
        if len(self.activations) != len(self.sizes) - 1:
            raise ShapeError("need one activation tag per weight layer")
        for a in self.activations:
            if a not in (RELU, LINEAR):
                raise ValueError(f"unknown activation {a!r}")

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1


def autoencoder_plan(d: int, m: int) -> LayerPlan:
    """Symmetric plan d-500-500-2000-m-2000-500-500-d with a linear bottleneck."""
    h = list(HIDDEN_WIDTHS)
    sizes = [d] + h + [m] + h[::-1] + [d]
    acts = [RELU] * len(h) + [LINEAR] + [RELU] * len(h) + [LINEAR]
    return LayerPlan(sizes=sizes, activations=acts, bottleneck=len(h) + 1)


def mlp_plan(m: int, k: int, hidden: int = MLP_HIDDEN) -> LayerPlan:
    """Two-layer projection head m -> hidden -> k emitting logits."""
    return LayerPlan(sizes=[m, hidden, k], activations=[RELU, LINEAR])


@dataclass
class Network:
    """A parameter stack: params = [W0, b0, W1, b1, ...] matching the plan."""

    plan: LayerPlan
    params: list = field(repr=False)

    @property
    def encoder_params(self) -> list:
        if self.plan.bottleneck is None:
            raise ValueError("network has no bottleneck")
        return self.params[: 2 * self.plan.bottleneck]

    @property
    def decoder_params(self) -> list:
        if self.plan.bottleneck is None:
            raise ValueError("network has no bottleneck")
        return self.params[2 * self.plan.bottleneck :]


MlpHead = Network


def init_network(plan: LayerPlan, rng: Rng) -> Network:
    """Fan-balanced uniform weights, zero biases."""
    params = []
    for n_in, n_out in zip(plan.sizes, plan.sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        params.append(rng.uniform(-bound, bound, (n_in, n_out)))
        params.append(np.zeros(n_out))
    return Network(plan=plan, params=params)


def forward(net: Network, x: DenseMatrix) -> list:
    """All layer activations [x, a1, ..., aL]; aL is the network output."""
    if x.shape[1] != net.plan.sizes[0]:
        raise ShapeError(
            f"input width {x.shape[1]} != plan input width {net.plan.sizes[0]}"
        )
    acts = [x]
    for i in range(net.plan.n_layers):
        acts.append(apply_layer(net, i, acts[-1]))
    return acts


def apply_layer(net: Network, i: int, a: DenseMatrix) -> DenseMatrix:
    """Weight layer i applied to a, written into the one fresh product array:
    the same bits as ``relu(a @ W + b)`` without two more temporaries."""
    out = a @ net.params[2 * i]
    out += net.params[2 * i + 1]
    if net.plan.activations[i] == RELU:
        np.maximum(out, 0.0, out=out)
    return out


def backward_range(net: Network, acts: list, grad_out: DenseMatrix,
                   start: int, end: int, need_input_grad: bool = True):
    """Reverse-mode gradients for weight layers [start, end).

    `acts` must come from a matching `forward` call. Returns the gradient list
    for those layers (same [dW, db, ...] layout) and the gradient with respect
    to acts[start], or None when `need_input_grad` is false. `grad_out` is
    never written to; the ReLU masks go in place on gradients computed here.
    """
    grads = [None] * (2 * (end - start))
    g = grad_out
    for i in range(end - 1, start - 1, -1):
        if net.plan.activations[i] == RELU:
            if g is grad_out:
                g = g * (acts[i + 1] > 0)
            else:
                np.multiply(g, acts[i + 1] > 0, out=g)
        w = net.params[2 * i]
        grads[2 * (i - start)] = acts[i].T @ g
        grads[2 * (i - start) + 1] = g.sum(axis=0)
        if i > start or need_input_grad:
            g = g @ w.T
        else:
            g = None
    return grads, g


def backward(net: Network, acts: list, grad_out: DenseMatrix):
    """Gradients for every parameter plus the gradient w.r.t. the input."""
    return backward_range(net, acts, grad_out, 0, net.plan.n_layers)


def encode(net: Network, x: DenseMatrix) -> DenseMatrix:
    """Embedding of x: forward pass through the encoder half only."""
    if net.plan.bottleneck is None:
        raise ValueError("network has no bottleneck")
    a = x
    for i in range(net.plan.bottleneck):
        a = apply_layer(net, i, a)
    return a


def reconstruction_loss(x: DenseMatrix, x_hat: DenseMatrix) -> float:
    """Mean over samples of the squared Euclidean row distance."""
    if x.shape != x_hat.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    diff = x_hat - x
    return float(np.sum(diff * diff) / x.shape[0])


def reconstruction_grad(x: DenseMatrix, x_hat: DenseMatrix) -> DenseMatrix:
    """d(reconstruction_loss)/d(x_hat)."""
    return 2.0 * (x_hat - x) / x.shape[0]


# Elements per block of the Adam step. One block of p, g, m and v plus the
# two scratch blocks is 6 * 8 * 2**15 bytes = 1.5 MiB of float64, which stays
# in one core's 2 MiB L2 cache: each block comes from memory once per step
# rather than once per elementwise operation.
ADAM_BLOCK = 1 << 15


class AdamState:
    """Adam with bias correction over a flat tensor list; updates in place.

    Every parameter must be C-contiguous: the step runs over flat views of
    each tensor in blocks of ADAM_BLOCK elements, and flattening any other
    layout would update a copy.
    """

    def __init__(self, params: list, learning_rate: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for i, p in enumerate(params):
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {i} is not C-contiguous")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]
        size = min(ADAM_BLOCK, max((p.size for p in params), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params: list, grads: list) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        step_size = self.learning_rate / bc1
        for tensors in zip(params, grads, self.first_moment, self.second_moment):
            p, g, m, v = (t.reshape(-1) for t in tensors)
            for lo in range(0, p.size, ADAM_BLOCK):
                blk = slice(lo, lo + ADAM_BLOCK)
                pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
                s, denom = (a[: pb.size] for a in self._scratch)
                # m = b1 m + (1 - b1) g
                mb *= b1
                np.multiply(1.0 - b1, gb, out=s)
                mb += s
                # v = b2 v + (1 - b2) g^2
                vb *= b2
                np.multiply(gb, gb, out=s)
                s *= 1.0 - b2
                vb += s
                # p -= (lr / bc1) m / (sqrt(v / bc2) + eps)
                np.divide(vb, bc2, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                np.multiply(step_size, mb, out=s)
                s /= denom
                pb -= s


def pretrain_autoencoder(x: DenseMatrix, m: int, epochs: int, batch: int,
                         rng: Rng, learning_rate: float = 0.001):
    """Train a fresh autoencoder on x by mini-batch reconstruction.

    Shuffles every epoch and keeps the last partial batch. Returns the trained
    network and the per-epoch loss trace (total squared error / n).
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    n, d = x.shape
    net = init_network(autoencoder_plan(d, m), rng)
    adam = AdamState(net.params, learning_rate=learning_rate)
    losses = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch):
            xb = x[order[lo : lo + batch]]
            acts = forward(net, xb)
            x_hat = acts[-1]
            diff = x_hat - xb
            total += float(np.sum(diff * diff))
            grads, _ = backward_range(net, acts, (2.0 / xb.shape[0]) * diff,
                                      0, net.plan.n_layers, need_input_grad=False)
            adam.step(net.params, grads)
        loss = total / n
        if not np.isfinite(loss):
            raise DivergenceError(epoch, loss)
        losses.append(loss)
    return net, losses


CHECKPOINT_FORMAT = "gceals-net-v1"


def save_checkpoint(net: Network, path, step: int = 0) -> None:
    """Single-file binary checkpoint: plan, float64 tensors, optimizer step."""
    payload = {
        "format": np.array(CHECKPOINT_FORMAT),
        "sizes": np.array(net.plan.sizes, dtype=np.int64),
        "activations": np.array(net.plan.activations),
        "bottleneck": np.array(-1 if net.plan.bottleneck is None else net.plan.bottleneck),
        "step": np.array(step, dtype=np.int64),
    }
    for i, p in enumerate(net.params):
        payload[f"param_{i}"] = p
    np.savez(path, **payload)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (network, optimizer step)."""
    with np.load(path, allow_pickle=False) as z:
        fmt = str(z["format"])
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {fmt!r}")
        bottleneck = int(z["bottleneck"])
        plan = LayerPlan(
            sizes=[int(s) for s in z["sizes"]],
            activations=[str(a) for a in z["activations"]],
            bottleneck=None if bottleneck < 0 else bottleneck,
        )
        params = [np.array(z[f"param_{i}"]) for i in range(2 * plan.n_layers)]
        step = int(z["step"])
    return Network(plan=plan, params=params), step
