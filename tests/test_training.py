import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gceals.linalg import Rng, ShapeError
from gceals.neuralnet import (
    LINEAR,
    RELU,
    LayerPlan,
    autoencoder_plan,
    encode,
    forward,
    init_network,
    mlp_plan,
)
from gceals.training import (
    ClusterHead,
    GcealsConfig,
    balanced_batch,
    clustering_loss,
    dec_target,
    early_stop_check,
    joint_loss,
    joint_loss_eval,
    joint_step_gradients,
    kl_divergence,
    likelihood_and_weights,
    posterior,
    soft_assign,
    tdist_q,
    train_dec_variant,
    train_gceals,
    write_embedding_csv,
    _encoder_activations,
    _tdist_gradients,
)

from conftest import make_blobs


def unit_head(means, log_variances=None, weights=None):
    means = np.asarray(means, dtype=np.float64)
    k, m = means.shape
    if log_variances is None:
        log_variances = np.zeros((k, m))
    if weights is None:
        weights = np.full(k, 1.0 / k)
    return ClusterHead(k=k, means=means, log_variances=np.asarray(log_variances,
                       dtype=np.float64), weights=np.asarray(weights))


def test_mahalanobis_examples():
    def distance(z, mean, variances):
        head = unit_head([mean], log_variances=[np.log(variances)])
        return -soft_assign(np.array([z]), head)[0, 0]

    assert distance([3.0, 4.0], [0.0, 0.0], [1.0, 1.0]) == 5.0
    assert distance([1.0, 2.0], [1.0, 2.0], [3.0, 0.5]) == 0.0
    assert np.isclose(distance([2.0, 0.0], [0.0, 0.0], [4.0, 1.0]), 1.0)


def test_soft_assign_examples():
    head = unit_head([[0.0, 0.0], [3.0, 4.0]])
    s = soft_assign(np.array([[0.0, 0.0]]), head)
    assert s[0, 0] == 0.0
    assert np.isclose(s[0, 1], -5.0)
    # distance ln 2 from the first mean
    s2 = soft_assign(np.array([[math.log(2.0), 0.0]]), head)
    assert np.isclose(np.exp(s2[0, 0]), 0.5)


def test_posterior_far_sample_goes_to_nearest_cluster():
    # exp(-D) underflows to 0 for both clusters; in log space the nearer one wins
    head = unit_head([[0.0], [1000.0]])
    p = posterior(soft_assign(np.array([[2000.0]]), head), head.weights)
    assert np.all(np.isfinite(p))
    assert p[0, 1] > 0.99


def test_likelihood_and_weights_examples():
    p1, w1 = likelihood_and_weights(np.log([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(p1, 0.5)
    assert np.allclose(w1, [0.5, 0.5])

    p2, w2 = likelihood_and_weights(np.log([[0.8, 0.2]]))
    assert np.allclose(p2, [[0.8, 0.2]])
    assert np.allclose(w2, [0.8, 0.2])

    p3, w3 = likelihood_and_weights(np.log([[1.0, 3.0], [3.0, 1.0]]))
    assert np.allclose(p3, [[0.25, 0.75], [0.75, 0.25]])
    assert np.allclose(w3, [0.5, 0.5])


def test_posterior_examples():
    assert np.allclose(posterior(np.log([[0.5, 0.5]]), np.array([0.9, 0.1])),
                       [[0.9, 0.1]])
    assert np.allclose(posterior(np.log([[0.6, 0.4]]), np.array([0.5, 0.5])),
                       [[0.6, 0.4]])


def log_kernels_and_weights(max_k=5):
    """(n, k) log kernels in [-1e4, 0] and strictly positive weights summing to 1."""
    return st.tuples(st.integers(1, 6), st.integers(2, max_k)).flatmap(
        lambda nk: st.tuples(
            arrays(np.float64, nk, elements=st.floats(-1e4, 0.0)),
            arrays(np.float64, nk[1], elements=st.floats(1e-3, 1.0)).map(
                lambda w: w / w.sum())))


PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@PROPERTY_SETTINGS
@given(log_kernels_and_weights())
def test_posterior_rows_are_finite_distributions(case):
    log_kernel, weights = case
    p = posterior(log_kernel, weights)
    assert np.all(np.isfinite(p))
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(log_kernels_and_weights(), st.randoms(use_true_random=False))
def test_posterior_permutes_with_clusters(case, random):
    log_kernel, weights = case
    perm = np.array(random.sample(range(weights.size), weights.size))
    got = posterior(log_kernel[:, perm], weights[perm])
    assert np.allclose(got, posterior(log_kernel, weights)[:, perm],
                       rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(log_kernels_and_weights(), st.floats(-1e3, 1e3))
def test_posterior_ignores_row_constants(case, shift):
    log_kernel, weights = case
    offsets = shift * np.arange(1, log_kernel.shape[0] + 1)[:, None]
    assert np.allclose(posterior(log_kernel + offsets, weights),
                       posterior(log_kernel, weights), rtol=0.0, atol=1e-9)


def test_clustering_loss_examples():
    assert np.isclose(clustering_loss(np.array([[0.5, 0.5]]),
                                      np.log([[0.5, 0.5]])), math.log(2.0))
    assert clustering_loss(np.array([[1.0, 0.0]]), np.array([[0.0, -50.0]])) == 0.0
    assert np.isclose(clustering_loss(np.array([[0.6, 0.4]]),
                                      np.log([[0.5, 0.5]])), math.log(2.0))


def test_joint_loss():
    assert joint_loss(1.0, 2.0, 0.1) == 1.2
    assert joint_loss(3.5, 999.0, 0.0) == 3.5
    assert np.isclose(joint_loss(0.0, math.log(2.0), 1.0), math.log(2.0))
    with pytest.raises(ValueError):
        joint_loss(1.0, 1.0, -0.1)


def test_balanced_batch_quota_rules():
    rng = Rng(0)
    labels = np.repeat([0, 1], [100, 30])
    batch = balanced_batch(labels, 256, rng)
    assert len(batch) == 60
    assert np.bincount(labels[batch]).tolist() == [30, 30]

    labels = np.repeat([0, 1], [300, 200])
    batch = balanced_batch(labels, 256, rng)
    assert len(batch) == 256
    assert np.bincount(labels[batch]).tolist() == [128, 128]

    labels = np.repeat([0, 1, 2], [10, 500, 500])
    batch = balanced_batch(labels, 256, rng)
    assert len(batch) == 30
    assert np.bincount(labels[batch]).tolist() == [10, 10, 10]


def test_balanced_batch_no_replacement_and_cluster_order():
    labels = np.repeat([0, 1], [40, 40])
    batch = balanced_batch(labels, 80, Rng(1))
    assert len(set(batch.tolist())) == len(batch)
    # concatenated in cluster order: first half from cluster 0
    assert np.all(labels[batch[:40]] == 0)
    assert np.all(labels[batch[40:]] == 1)


def test_balanced_batch_resamples_fresh():
    labels = np.repeat([0, 1], [50, 50])
    rng = Rng(2)
    b1 = balanced_batch(labels, 40, rng)
    b2 = balanced_batch(labels, 40, rng)
    assert not np.array_equal(b1, b2)


def test_balanced_batch_errors():
    with pytest.raises(ValueError):
        balanced_batch(np.array([0, 0, 2]), 256, Rng(0))  # cluster 1 empty
    with pytest.raises(ValueError):
        balanced_batch(np.array([0, 1, 2]), 2, Rng(0))  # cap below k


def test_early_stop_check_examples():
    assert early_stop_check(np.array([0.8, 0.2]), 2)
    assert not early_stop_check(np.array([0.6, 0.4]), 2)
    assert early_stop_check(np.array([0.4, 0.3, 0.2, 0.1]), 4)
    # boundary is inclusive
    assert early_stop_check(np.array([0.75, 0.25]), 2)


def test_joint_gradients_match_finite_differences():
    rng = Rng(3)
    r_ae, r_mlp, r_x, r_head = rng.split(4)
    plan = LayerPlan(sizes=[6, 8, 3, 8, 6],
                     activations=[RELU, LINEAR, RELU, LINEAR], bottleneck=2)
    ae = init_network(plan, r_ae)
    mlp = init_network(mlp_plan(3, 2, hidden=5), r_mlp)
    x = r_x.randn(12, 6)
    means = r_head.randn(2, 3) * 0.8
    near = unit_head(means, log_variances=r_head.randn(2, 3) * 0.3,
                     weights=np.array([0.55, 0.45]))
    # every sample ~1700 from both means: exp(-D) underflows, log space does not
    far = unit_head(means + 1000.0, weights=np.array([0.55, 0.45]))
    gamma = 0.7
    for head in (near, far):
        _, _, grads = joint_step_gradients(ae, mlp, head, x, gamma)
        tensors = ae.params + [head.means, head.log_variances] + mlp.params
        h = 1e-5
        worst = 0.0
        for tensor, grad in zip(tensors, grads):
            flat_t, flat_g = tensor.ravel(), grad.ravel()
            for idx in range(flat_t.size):
                orig = flat_t[idx]
                flat_t[idx] = orig + h
                up = joint_loss_eval(ae, mlp, head, x, gamma)
                flat_t[idx] = orig - h
                down = joint_loss_eval(ae, mlp, head, x, gamma)
                flat_t[idx] = orig
                fd = (up - down) / (2 * h)
                a = flat_g[idx]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-4))
        assert worst < 1e-4
        d_means = grads[len(ae.params)]
        assert np.any(d_means != 0.0)


def blob_config(**overrides):
    base = dict(embedding_dim=3, gamma=0.1, pretrain_epochs=25,
                finetune_epochs=25, batch_cap=64)
    base.update(overrides)
    return GcealsConfig(**base)


def test_train_gceals_recovers_separable_blobs():
    x, y = make_blobs([[6.0] * 6, [-6.0] * 6, [6, -6, 6, -6, 6, -6]], 40, seed=1)
    run = train_gceals(x, 3, blob_config(), Rng(10))
    from gceals.metrics import LabelPair, clustering_accuracy
    acc = clustering_accuracy(LabelPair(y, run.report.hard_labels))
    assert acc >= 0.95
    assert run.report.posterior.shape == (120, 3)
    assert np.allclose(run.report.posterior.sum(axis=1), 1.0, atol=1e-9)


def test_train_gceals_deterministic():
    x, _ = make_blobs([[4.0] * 4, [-4.0] * 4], 30, seed=2)
    a = train_gceals(x, 2, blob_config(embedding_dim=2, pretrain_epochs=6,
                                       finetune_epochs=6), Rng(11))
    b = train_gceals(x, 2, blob_config(embedding_dim=2, pretrain_epochs=6,
                                       finetune_epochs=6), Rng(11))
    assert a.report.recon_losses == b.report.recon_losses
    assert a.report.cluster_losses == b.report.cluster_losses
    assert np.array_equal(a.report.hard_labels, b.report.hard_labels)
    for wa, wb in zip(a.report.weight_trace, b.report.weight_trace):
        assert np.array_equal(wa, wb)
    # the last weight update's encoding is the final network's
    assert np.array_equal(a.embedding, encode(a.autoencoder, x))


def test_train_gceals_gamma_zero_leaves_cluster_params_at_init():
    x, _ = make_blobs([[5.0] * 4, [-5.0] * 4], 30, seed=3)
    run = train_gceals(x, 2, blob_config(embedding_dim=2, gamma=0.0,
                                         pretrain_epochs=8, finetune_epochs=8),
                       Rng(12))
    # zero gradient means Adam's moments stay zero: exact no-op on the head
    assert np.array_equal(run.head.log_variances, np.zeros((2, 2)))
    shifts = np.array(run.report.centroid_shifts)
    assert np.all(shifts == 0.0)
    assert all(np.isfinite(v) for v in run.report.recon_losses)


def test_train_gceals_weight_collapse_stops_early():
    # a single Gaussian blob has no second cluster to hold on to
    gen = np.random.default_rng(4)
    x = gen.normal(size=(200, 4))
    cfg = blob_config(embedding_dim=2, pretrain_epochs=15, finetune_epochs=200,
                      gamma=1.0)
    run = train_gceals(x, 2, cfg, Rng(13))
    assert run.report.stop_reason == "weight-collapse"
    assert run.report.stop_epoch < 200
    assert min(run.report.weight_trace[-1]) <= 0.25
    assert len(run.report.recon_losses) == run.report.stop_epoch
    assert np.array_equal(run.embedding, encode(run.autoencoder, x))


def test_train_gceals_validates_k():
    x, _ = make_blobs([[1.0] * 3, [2.0] * 3], 10, seed=5)
    with pytest.raises(ValueError):
        train_gceals(x, 1, blob_config(), Rng(0))


def test_training_rejects_bad_input_before_pretraining():
    x, _ = make_blobs([[1.0] * 3, [2.0] * 3], 10, seed=5)
    nan_x, inf_x = x.copy(), x.copy()
    nan_x[3, 1] = np.nan
    inf_x[0, 0] = np.inf
    for train, mode in ((train_gceals, "gceals"), (train_dec_variant, "idec")):
        cfg = blob_config(mode=mode)
        for bad in (nan_x, inf_x):
            with pytest.raises(ValueError, match="non-finite"):
                train(bad, 2, cfg, Rng(0))
        with pytest.raises(ShapeError):
            train(x[:, 0], 2, cfg, Rng(0))


def test_train_gceals_rejects_dec_modes():
    x, _ = make_blobs([[1.0] * 3, [3.0] * 3], 10, seed=8)
    for mode in ("dec", "idec"):
        with pytest.raises(ValueError, match="mode"):
            train_gceals(x, 2, blob_config(mode=mode), Rng(0))


def test_training_checks_pretrained_width():
    x, _ = make_blobs([[1.0] * 4, [3.0] * 4], 10, seed=8)
    plan = LayerPlan(sizes=[4, 8, 2, 8, 4],
                     activations=[RELU, LINEAR, RELU, LINEAR], bottleneck=2)
    for train, mode in ((train_gceals, "gceals"), (train_dec_variant, "dec")):
        net = init_network(plan, Rng(1))
        with pytest.raises(ValueError, match="bottleneck width"):
            train(x, 2, blob_config(embedding_dim=3, mode=mode), Rng(0),
                  pretrained=net)


def test_config_validation():
    with pytest.raises(ValueError):
        GcealsConfig(embedding_dim=3, gamma=-1.0)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="batch_cap"):
            GcealsConfig(embedding_dim=3, batch_cap=cap)
    with pytest.raises(ValueError):
        GcealsConfig(embedding_dim=3, mode="other")
    with pytest.raises(ValueError):
        GcealsConfig(embedding_dim=0)


def test_tdist_q_examples():
    z = np.array([[0.0, 0.0]])
    q1 = tdist_q(z, np.array([[1.0, 1.0]]))
    assert np.allclose(q1, [[1.0]])

    q2 = tdist_q(z, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(q2, [[0.5, 0.5]])

    q3 = tdist_q(z, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(q3, [[2.0 / 3.0, 1.0 / 3.0]])


def test_dec_target_examples():
    q = np.full((4, 3), 1.0 / 3.0)
    assert np.allclose(dec_target(q), q)

    single = np.array([[0.8, 0.2]])
    assert np.allclose(dec_target(single), [[0.8, 0.2]])

    random_q = np.abs(Rng(14).randn(10, 4)) + 0.1
    random_q = random_q / random_q.sum(axis=1, keepdims=True)
    p = dec_target(random_q)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_dec_target_rejects_zero_frequency():
    with pytest.raises(ValueError):
        dec_target(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_kl_divergence_examples():
    p = np.array([[0.4, 0.6]])
    assert kl_divergence(p, p) == 0.0
    assert np.isclose(kl_divergence(np.array([[1.0, 0.0]]),
                                    np.array([[0.5, 0.5]])), math.log(2.0))
    got = kl_divergence(np.array([[0.75, 0.25]]), np.array([[0.5, 0.5]]))
    assert np.isclose(got, 0.75 * math.log(1.5) + 0.25 * math.log(0.5))


def test_tdist_gradients_match_finite_differences():
    rng = Rng(16)
    z = rng.randn(7, 3)
    centroids = rng.randn(2, 3)
    q0 = tdist_q(z, centroids)
    p = dec_target(q0)
    _, d_z, d_centroids = _tdist_gradients(z, centroids)
    h = 1e-6

    def loss():
        return kl_divergence(p, tdist_q(z, centroids))

    for tensor, grad in ((z, d_z), (centroids, d_centroids)):
        flat_t, flat_g = tensor.ravel(), grad.ravel()
        for idx in range(flat_t.size):
            orig = flat_t[idx]
            flat_t[idx] = orig + h
            up = loss()
            flat_t[idx] = orig - h
            down = loss()
            flat_t[idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(flat_g[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_encoder_activations_match_forward_exactly():
    ae = init_network(autoencoder_plan(5, 3), Rng(19))
    x = Rng(20).randn(9, 5)
    acts = forward(ae, x)[: ae.plan.bottleneck + 1]
    enc = _encoder_activations(ae, x)
    assert len(enc) == len(acts)
    assert all(np.array_equal(a, b) for a, b in zip(enc, acts))


def test_train_dec_variant_idec_recovers_blobs():
    x, y = make_blobs([[6.0] * 5, [-6.0] * 5], 40, seed=6)
    cfg = blob_config(embedding_dim=2, mode="idec")
    run = train_dec_variant(x, 2, cfg, Rng(17))
    from gceals.metrics import LabelPair, clustering_accuracy
    acc = clustering_accuracy(LabelPair(y, run.report.hard_labels))
    assert acc >= 0.95
    assert run.mlp is None
    assert run.report.stop_reason == "completed"


def test_train_dec_variant_dec_mode_traces():
    x, _ = make_blobs([[4.0] * 4, [-4.0] * 4], 25, seed=7)
    cfg = blob_config(embedding_dim=2, mode="dec", pretrain_epochs=6,
                      finetune_epochs=6)
    run = train_dec_variant(x, 2, cfg, Rng(18))
    # pure-KL mode never evaluates the decoder
    assert run.report.recon_losses == [0.0] * 6
    assert all(v >= 0.0 for v in run.report.cluster_losses)
    assert run.report.stop_epoch == 6


def test_train_dec_variant_rejects_gceals_mode():
    x, _ = make_blobs([[1.0] * 3, [3.0] * 3], 10, seed=8)
    with pytest.raises(ValueError):
        train_dec_variant(x, 2, blob_config(mode="gceals"), Rng(0))


def test_report_trace_csv_schema(tmp_path):
    x, _ = make_blobs([[4.0] * 4, [-4.0] * 4], 20, seed=9)
    run = train_gceals(x, 2, blob_config(embedding_dim=2, pretrain_epochs=5,
                                         finetune_epochs=5), Rng(19))
    path = tmp_path / "trace.csv"
    run.report.write_trace_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "recon_loss", "cluster_loss", "min_weight",
                       "max_centroid_shift", "min_cov_det"]
    assert len(rows) == 1 + run.report.stop_epoch
    assert rows[1][0] == "1"


def test_report_json_round_trip():
    x, _ = make_blobs([[4.0] * 4, [-4.0] * 4], 20, seed=10)
    run = train_gceals(x, 2, blob_config(embedding_dim=2, pretrain_epochs=5,
                                         finetune_epochs=5), Rng(20))
    doc = json.loads(run.report.to_json())
    assert doc["stop_reason"] == "completed"
    assert len(doc["recon_losses"]) == 5
    assert len(doc["weight_trace"][0]) == 2
    assert doc["hard_labels"] == run.report.hard_labels.tolist()


def test_write_embedding_csv_round_trip(tmp_path):
    z = Rng(21).randn(8, 3)
    labels = np.array([0, 1, 0, 1, 1, 0, 1, 0])
    path = tmp_path / "emb.csv"
    write_embedding_csv(z, labels, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z0", "z1", "z2", "label"]
    back = np.array([[float(v) for v in row[:3]] for row in rows[1:]])
    assert np.array_equal(back, z)
    assert [int(r[3]) for r in rows[1:]] == labels.tolist()
