import numpy as np
import pytest

from gceals.linalg import Rng, ShapeError
from gceals.neuralnet import (
    ADAM_BLOCK,
    LINEAR,
    RELU,
    AdamState,
    DivergenceError,
    LayerPlan,
    autoencoder_plan,
    backward,
    backward_range,
    encode,
    forward,
    init_network,
    load_checkpoint,
    mlp_plan,
    pretrain_autoencoder,
    reconstruction_grad,
    reconstruction_loss,
    save_checkpoint,
)


def small_plan():
    return LayerPlan(sizes=[4, 6, 2, 6, 4],
                     activations=[RELU, LINEAR, RELU, LINEAR], bottleneck=2)


def test_autoencoder_plan_architecture():
    plan = autoencoder_plan(13, 7)
    assert plan.sizes == [13, 500, 500, 2000, 7, 2000, 500, 500, 13]
    assert plan.bottleneck == 4
    # hidden layers rectify, bottleneck and output stay linear
    assert plan.activations[3] == LINEAR
    assert plan.activations[-1] == LINEAR
    assert plan.activations[0] == RELU


def test_mlp_plan_architecture():
    plan = mlp_plan(7, 3)
    assert plan.sizes == [7, 256, 3]
    assert plan.activations == [RELU, LINEAR]


def test_init_glorot_bounds_and_zero_biases():
    net = init_network(small_plan(), Rng(0))
    for i, (n_in, n_out) in enumerate(zip(net.plan.sizes, net.plan.sizes[1:])):
        w, b = net.params[2 * i], net.params[2 * i + 1]
        bound = np.sqrt(6.0 / (n_in + n_out))
        assert np.all(np.abs(w) <= bound)
        assert np.abs(w).max() > 0.5 * bound  # actually spread out
        assert np.array_equal(b, np.zeros(n_out))


def test_forward_shapes_and_input_validation():
    net = init_network(small_plan(), Rng(1))
    acts = forward(net, Rng(2).randn(5, 4))
    assert [a.shape[1] for a in acts] == [4, 6, 2, 6, 4]
    with pytest.raises(ShapeError):
        forward(net, Rng(2).randn(5, 3))


def test_encode_matches_bottleneck_activation():
    net = init_network(small_plan(), Rng(1))
    x = Rng(2).randn(5, 4)
    acts = forward(net, x)
    assert np.array_equal(encode(net, x), acts[net.plan.bottleneck])


def test_reconstruction_loss_mean_over_samples():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    x_hat = np.array([[1.0, 0.0], [1.0, 3.0]])
    # squared row distances 1 and 4, mean 2.5
    assert reconstruction_loss(x, x_hat) == 2.5


def test_backward_matches_finite_differences():
    net = init_network(small_plan(), Rng(3))
    x = Rng(4).randn(7, 4)

    def loss():
        return reconstruction_loss(x, forward(net, x)[-1])

    acts = forward(net, x)
    grads, _ = backward(net, acts, reconstruction_grad(x, acts[-1]))
    h = 1e-6
    for tensor, grad in zip(net.params, grads):
        flat_t, flat_g = tensor.ravel(), grad.ravel()
        for idx in range(flat_t.size):
            orig = flat_t[idx]
            flat_t[idx] = orig + h
            up = loss()
            flat_t[idx] = orig - h
            down = loss()
            flat_t[idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(flat_g[idx] - fd) <= 1e-4 * max(abs(fd), abs(flat_g[idx]), 1e-3)


def test_backward_range_leaves_grad_out_unchanged():
    net = init_network(small_plan(), Rng(3))
    x = Rng(4).randn(7, 4)
    acts = forward(net, x)
    # the last layer is linear, so rectify a middle range too: its first
    # layer (index 2) masks the gradient it is handed
    for start, end in ((0, net.plan.n_layers), (0, 3), (2, 3)):
        grad_out = Rng(5).randn(7, net.plan.sizes[end])
        kept = grad_out.copy()
        backward_range(net, acts, grad_out, start, end)
        assert np.array_equal(grad_out, kept)


def test_adam_rejects_non_contiguous_param():
    with pytest.raises(ValueError):
        AdamState([np.zeros(3), np.zeros((4, 6))[:, ::2]])


def test_adam_blocked_step_matches_reference():
    sizes = (1, ADAM_BLOCK - 1, ADAM_BLOCK, 3 * ADAM_BLOCK + 7)
    gen = np.random.default_rng(0)
    params = [gen.normal(size=s) for s in sizes]
    params[-1] = params[-1].reshape(1, -1)  # flattening a 2-D tensor too
    ref_p = [p.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in params]
    ref_v = [np.zeros_like(p) for p in params]
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    adam = AdamState(params, learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 5):
        grads = [gen.normal(size=p.shape) for p in params]
        adam.step(params, grads)
        # the textbook per-tensor update, in the same operation order
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, g, m, v in zip(ref_p, grads, ref_m, ref_v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            denom = np.sqrt(v / bc2)
            denom += eps
            p -= (lr / bc1) * m / denom
        for p, r in zip(params, ref_p):
            assert np.array_equal(p, r)
    for got, ref in ((adam.first_moment, ref_m), (adam.second_moment, ref_v)):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_adam_first_step_is_signed_learning_rate():
    p = np.array([0.0])
    adam = AdamState([p], learning_rate=0.001)
    adam.step([p], [np.array([1.0])])
    # t=1 with g=1: update = lr * g / (|g| + eps)
    assert np.isclose(p[0], -0.001, rtol=1e-6)


def test_adam_state_tracks_two_tensors():
    p1, p2 = np.ones((2, 2)), np.ones(3)
    adam = AdamState([p1, p2])
    g1, g2 = np.full((2, 2), 0.5), np.full(3, -0.5)
    adam.step([p1, p2], [g1, g2])
    assert np.all(p1 < 1.0)
    assert np.all(p2 > 1.0)
    assert adam.t == 1


def test_pretrain_reduces_loss_and_is_deterministic():
    x = Rng(5).randn(40, 4) @ np.diag([3.0, 2.0, 1.0, 0.5])
    net1, losses1 = pretrain_autoencoder(x, 2, 30, 16, Rng(7))
    net2, losses2 = pretrain_autoencoder(x, 2, 30, 16, Rng(7))
    assert losses1[-1] < losses1[0]
    assert losses1 == losses2
    for a, b in zip(net1.params, net2.params):
        assert np.array_equal(a, b)


def test_pretrain_raises_on_divergence():
    x = np.full((8, 3), 1e200)
    with pytest.raises(DivergenceError) as err:
        pretrain_autoencoder(x, 2, 3, 8, Rng(0))
    assert err.value.epoch == 1


def test_checkpoint_round_trip(tmp_path):
    net = init_network(small_plan(), Rng(8))
    path = tmp_path / "ck.npz"
    save_checkpoint(net, path, step=17)
    loaded, step = load_checkpoint(path)
    assert step == 17
    assert loaded.plan.sizes == net.plan.sizes
    assert loaded.plan.activations == net.plan.activations
    assert loaded.plan.bottleneck == net.plan.bottleneck
    for a, b in zip(loaded.params, net.params):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, format=np.array("other-v9"))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_layer_plan_validation():
    with pytest.raises(ValueError):
        LayerPlan(sizes=[3, 4], activations=[RELU, LINEAR])
    with pytest.raises(ValueError):
        LayerPlan(sizes=[3, 4, 3], activations=[RELU, "tanh"])
