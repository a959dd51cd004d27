import csv
import hashlib
import json
import os

import numpy as np
import pytest

import gceals.benchmark as bm
from gceals.benchmark import (
    BenchmarkTask,
    average_rank_of,
    job_seed,
    run_benchmark,
    run_dir,
    run_single,
    write_report_csv,
    write_summary_csv,
)
from gceals.linalg import Rng
from gceals.neuralnet import autoencoder_plan, init_network

from conftest import make_blobs


def tiny_task(name="toy", seed=0, n_per=12):
    x, y = make_blobs([[4.0, 4.0, 4.0], [-4.0, -4.0, -4.0]], n_per, seed=seed)
    return BenchmarkTask(name=name, x=x, y=y, k=2)


def test_job_seed_layout():
    expected = int.from_bytes(
        hashlib.sha256(b"toy|kmeans_x|x|0").digest()[:8], "big")
    assert job_seed("toy", "kmeans_x", None, 0) == expected
    assert job_seed("toy", "gceals", 5, 1) == int.from_bytes(
        hashlib.sha256(b"toy|gceals|5|1").digest()[:8], "big")
    seen = {job_seed("toy", m, d, s)
            for m in ("kmeans_x", "gceals") for d in (None, 5) for s in (0, 1)
            if (d is None) == (m == "kmeans_x")}
    assert len(seen) == 4


def test_average_rank_of():
    assert average_rank_of({"a": 0.9, "b": 0.5}) == {"a": 1.0, "b": 2.0}
    assert average_rank_of({"a": 0.7, "b": 0.7}) == {"a": 1.5, "b": 1.5}
    assert average_rank_of({"a": 0.9, "b": 0.5, "c": 0.5}) == \
        {"a": 1.0, "b": 2.5, "c": 2.5}


def test_run_single_validates_dim_method_pairing():
    task = tiny_task()
    with pytest.raises(ValueError):
        run_single(task, "kmeans_x", 5, 0)
    with pytest.raises(ValueError):
        run_single(task, "kmeans_z", None, 0)
    with pytest.raises(ValueError):
        run_single(task, "mystery", None, 0)
    net = init_network(autoencoder_plan(3, 2), Rng(0))
    with pytest.raises(ValueError):
        run_single(task, "kmeans_z", 3, 0, pretrained=(net, []))


def test_run_single_kmeans_x_scores_and_artifacts(tmp_path):
    task = tiny_task()
    out = tmp_path / "run"
    cell = run_single(task, "kmeans_x", None, 0, out_dir=str(out))
    assert cell["status"] == "ok"
    assert cell["acc"] == 1.0
    assert (out / "metrics.json").exists()
    # input-space run leaves no embedding, trace, or checkpoint
    assert not (out / "embedding.csv").exists()
    assert not (out / "trace.csv").exists()
    assert not (out / "checkpoint.npz").exists()


def test_run_dir_layout(tmp_path):
    assert run_dir(tmp_path, "toy", "gceals", 5, 2) == \
        os.path.join(str(tmp_path), "toy", "gceals", "dim5", "seed2")
    assert run_dir(tmp_path, "toy", "kmeans_x", None, 0) == \
        os.path.join(str(tmp_path), "toy", "kmeans_x", "dimx", "seed0")


def fixed_score_stub(table):
    """run_single replacement returning canned scores; raises on ('bad', method)."""

    def stub(task, method, dim, seed, gamma=0.1, pretrain_epochs=1000,
             finetune_epochs=1000, batch_cap=256, out_dir=None, pretrained=None):
        if task.name == "bad" and method == "kmeans_z":
            raise RuntimeError("engineered failure")
        acc = table[(method, dim)]
        return {"acc": acc, "ari": acc / 2, "nmi": acc / 3,
                "runtime_sec": 0.0, "status": "ok"}

    return stub


def stub_pretraining(monkeypatch, fail_dim=None):
    """Replaces the shared pretraining with a stand-in network; returns the
    log of its calls as (net, dim, rng seed). Raises for `fail_dim`."""
    calls = []

    def pretrain(x, m, epochs, batch, rng):
        if m == fail_dim:
            raise RuntimeError("engineered pretraining failure")
        net = object()
        calls.append((net, m, rng.seed))
        return net, [float(m)]

    monkeypatch.setattr(bm, "pretrain_autoencoder", pretrain)
    return calls


def stub_runs(monkeypatch, table):
    monkeypatch.setattr(bm, "run_single", fixed_score_stub(table))
    stub_pretraining(monkeypatch)


def test_run_benchmark_grid_shape_and_ranks(monkeypatch):
    table = {("kmeans_x", None): 0.80,
             ("kmeans_z", 2): 0.90, ("kmeans_z", 3): 0.70}
    stub_runs(monkeypatch, table)
    report = run_benchmark([tiny_task("a"), tiny_task("b", seed=1)],
                           ["kmeans_x", "kmeans_z"], dims=[2, 3], seeds=[0, 1])
    assert len(report["rows"]) == 2 * 2 * 2 * 2
    # x-space scores replicated across dim rows
    x_rows = [r for r in report["rows"] if r["method"] == "kmeans_x"]
    assert {r["dim"] for r in x_rows} == {2, 3}
    assert {r["acc"] for r in x_rows} == {0.80}
    for name in ("a", "b"):
        assert report["best_dim"][name]["kmeans_z"]["dim"] == 2
        assert report["ranks"][name] == {"kmeans_z": 1.0, "kmeans_x": 2.0}
    assert report["average_ranks"]["kmeans_z"] == {"mean": 1.0, "std": 0.0}
    assert report["average_ranks"]["kmeans_x"] == {"mean": 2.0, "std": 0.0}
    assert report["warnings"] == []


def test_run_benchmark_best_dim_tie_prefers_lowest(monkeypatch):
    table = {("kmeans_x", None): 0.5,
             ("kmeans_z", 2): 0.9, ("kmeans_z", 3): 0.9}
    stub_runs(monkeypatch, table)
    report = run_benchmark([tiny_task("a")], ["kmeans_x", "kmeans_z"],
                           dims=[3, 2], seeds=[0])
    assert report["best_dim"]["a"]["kmeans_z"]["dim"] == 2


def test_run_benchmark_failed_dataset_excluded(monkeypatch):
    table = {("kmeans_x", None): 0.8, ("kmeans_z", 2): 0.9}
    stub_runs(monkeypatch, table)
    report = run_benchmark([tiny_task("a"), tiny_task("bad", seed=1)],
                           ["kmeans_x", "kmeans_z"], dims=[2], seeds=[0])
    failed = [r for r in report["rows"]
              if r["dataset"] == "bad" and r["method"] == "kmeans_z"]
    assert all(r["status"] == "failed" for r in failed)
    assert "bad" not in report["ranks"]
    assert report["ranks"]["a"] == {"kmeans_z": 1.0, "kmeans_x": 2.0}
    assert any("bad" in w for w in report["warnings"])
    # the average still covers only the surviving dataset
    assert report["average_ranks"]["kmeans_z"]["mean"] == 1.0


def test_run_benchmark_failed_rows_blank_in_csv(monkeypatch, tmp_path):
    table = {("kmeans_x", None): 0.8, ("kmeans_z", 2): 0.9}
    stub_runs(monkeypatch, table)
    report = run_benchmark([tiny_task("bad")], ["kmeans_x", "kmeans_z"],
                           dims=[2], seeds=[0])
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "method", "dim", "seed", "acc", "ari", "nmi",
                       "status"]
    by_method = {r[1]: r for r in rows[1:]}
    assert by_method["kmeans_z"][4:] == ["", "", "", "failed"]
    assert by_method["kmeans_x"][7] == "ok"


def test_run_benchmark_pretrains_once_per_dataset_dim_seed(monkeypatch):
    seen = []

    def record(task, method, dim, seed, pretrained=None, **settings):
        seen.append((task.name, method, dim, seed, pretrained))
        return {"acc": 0.5, "ari": 0.5, "nmi": 0.5, "runtime_sec": 0.0,
                "status": "ok"}

    monkeypatch.setattr(bm, "run_single", record)
    calls = stub_pretraining(monkeypatch)
    run_benchmark([tiny_task("a")], ["gceals", "dec", "kmeans_z", "gmm_z", "kmeans_x"],
                  dims=[2, 3], seeds=[0, 1])
    assert sorted(seed for _, _, seed in calls) == sorted(
        job_seed("a", "pretrain", d, s) for d in (2, 3) for s in (0, 1))
    nets = {(m, seed): net for net, m, seed in calls}
    for name, method, dim, seed, pretrained in seen:
        if method == "kmeans_x":
            assert pretrained is None
            continue
        net = nets[(dim, job_seed(name, "pretrain", dim, seed))]
        assert pretrained[1] == [float(dim)]
        # fine-tuning changes the network, so only the encode-only methods
        # after the last fine-tune may read the original
        assert (pretrained[0] is net) == (method in ("kmeans_z", "gmm_z"))
    assert len(seen) == 2 + 4 * 4


def test_run_benchmark_failed_pretraining_fails_its_group_only(monkeypatch):
    table = {("kmeans_x", None): 0.8, ("gceals", 2): 0.9, ("kmeans_z", 2): 0.7}
    monkeypatch.setattr(bm, "run_single", fixed_score_stub(table))
    stub_pretraining(monkeypatch, fail_dim=3)
    report = run_benchmark([tiny_task("a"), tiny_task("b", seed=1)],
                           ["gceals", "kmeans_x", "kmeans_z"], dims=[2, 3], seeds=[0])
    for row in report["rows"]:
        if row["method"] != "kmeans_x" and row["dim"] == 3:
            assert row["status"] == "failed"
            assert row["error"] == "RuntimeError: engineered pretraining failure"
        else:
            assert row["status"] == "ok"
    assert report["best_dim"]["a"]["gceals"]["dim"] == 2


def test_shared_pretraining_leaves_other_methods_unchanged(tmp_path):
    cells, embeddings = {}, {}
    for tag, methods in (("alone", ["kmeans_z", "kmeans_x"]),
                         ("shared", ["gceals", "kmeans_z", "idec", "kmeans_x"])):
        out = tmp_path / tag
        report = run_benchmark([tiny_task()], methods, dims=[2], seeds=[0],
                               pretrain_epochs=2, finetune_epochs=2, out_root=out)
        row = next(r for r in report["rows"] if r["method"] == "kmeans_z")
        cells[tag] = {m: row[m] for m in ("acc", "ari", "nmi", "status")}
        embeddings[tag] = (out / "toy" / "kmeans_z" / "dim2" / "seed0" /
                           "embedding.csv").read_bytes()
    assert cells["alone"] == cells["shared"]
    assert embeddings["alone"] == embeddings["shared"]
    for method in ("gceals", "idec"):
        run = tmp_path / "shared" / "toy" / method / "dim2" / "seed0"
        assert len(json.loads((run / "train_report.json").read_text())
                   ["pretrain_losses"]) == 2


def test_run_benchmark_validation():
    with pytest.raises(ValueError):
        run_benchmark([tiny_task()], ["kmeans_x"], dims=[2], seeds=[0])
    with pytest.raises(ValueError):
        run_benchmark([tiny_task(), tiny_task()], ["kmeans_x", "gmm_x"],
                      dims=[2], seeds=[0])
    with pytest.raises(ValueError):
        run_benchmark([tiny_task()], ["kmeans_x", "nope"], dims=[2], seeds=[0])
    with pytest.raises(ValueError):
        run_benchmark([tiny_task()], ["kmeans_x", "gmm_x"], dims=[0], seeds=[0])
    for methods, dims, seeds in ((["kmeans_x", "kmeans_x"], [2], [0]),
                                 (["kmeans_x", "gmm_x"], [2, 2], [0]),
                                 (["kmeans_x", "gmm_x"], [2], [0, 0])):
        with pytest.raises(ValueError, match="unique"):
            run_benchmark([tiny_task()], methods, dims=dims, seeds=seeds)


def small_real_grid(jobs):
    return run_benchmark([tiny_task()], ["kmeans_x", "kmeans_z"], dims=[2],
                         seeds=[0, 1], pretrain_epochs=2, finetune_epochs=2,
                         jobs=jobs)


def test_run_benchmark_tables_identical_across_worker_counts(tmp_path):
    seq = small_real_grid(jobs=1)
    par = small_real_grid(jobs=2)
    files = {}
    for tag, report in (("seq", seq), ("par", par)):
        rpath = tmp_path / f"{tag}_report.csv"
        spath = tmp_path / f"{tag}_summary.csv"
        write_report_csv(report, rpath)
        write_summary_csv(report, spath)
        files[tag] = (rpath.read_bytes(), spath.read_bytes())
    assert files["seq"] == files["par"]


def test_summary_csv_shape(monkeypatch, tmp_path):
    table = {("kmeans_x", None): 0.8, ("kmeans_z", 2): 0.9}
    stub_runs(monkeypatch, table)
    report = run_benchmark([tiny_task("a")], ["kmeans_x", "kmeans_z"],
                           dims=[2], seeds=[0])
    path = tmp_path / "summary.csv"
    write_summary_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "avg_rank", "rank_std", "acc_a"]
    by_method = {r[0]: r for r in rows[1:]}
    assert by_method["kmeans_z"][1] == "1.0"
    assert by_method["kmeans_x"][1] == "2.0"
    assert by_method["kmeans_z"][3] == "0.9"
