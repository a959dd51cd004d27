import json
import os

import numpy as np
import pytest

import gceals.cli as cli
from gceals.cli import main
from gceals.neuralnet import DivergenceError

from conftest import make_blobs, write_csv


@pytest.fixture
def blob_csv(tmp_path):
    x, y = make_blobs([[4.0, 4.0, 4.0], [-4.0, -4.0, -4.0]], 15, seed=0)
    header = ["f0", "f1", "f2", "cls"]
    rows = [[repr(float(v)) for v in row] + [int(lab)] for row, lab in zip(x, y)]
    return write_csv(tmp_path / "blobs.csv", header, rows)


def test_stats_human(blob_csv, capsys):
    assert main(["stats", "--dataset", blob_csv, "--label-column", "cls"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("blobs: n=30 features=3 classes=2 ")
    assert "fs_ratio=" in out and "c_score=" in out


def test_stats_json(blob_csv, capsys):
    assert main(["stats", "--dataset", blob_csv, "--label-column", "cls",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "blobs"
    assert doc["n"] == 30
    assert doc["feature_dimension"] == 3
    assert doc["classes"] == 2


def test_missing_dataset_exits_1(tmp_path, capsys):
    code = main(["stats", "--dataset", str(tmp_path / "nope.csv"),
                 "--label-column", "cls"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_1(blob_csv, capsys):
    code = main(["train", "--dataset", blob_csv])
    assert code == 1
    assert "label-column" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(blob_csv, capsys):
    run = ["train", "--dataset", blob_csv, "--label-column", "cls"]
    assert main(run + ["--gamma", "abc"]) == 1
    assert "--gamma" in capsys.readouterr().err
    # --jobs belongs to benchmark only
    assert main(run + ["--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert main(["train", "--help"]) == 0


def test_preprocess_writes_matrix_and_labels(blob_csv, tmp_path, capsys):
    out = tmp_path / "matrix.csv"
    assert main(["preprocess", "--dataset", blob_csv, "--label-column", "cls",
                 "--out", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"out": str(out), "rows": 30, "columns": 3}
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (30, 3)
    # standardized columns: population mean 0, std 1
    assert np.allclose(data.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(data.std(axis=0), 1.0, atol=1e-9)
    labels = (tmp_path / "matrix.csv.labels.csv").read_text().splitlines()
    assert labels[0] == "label"
    assert len(labels) == 31


def test_train_kmeans_x_layout(blob_csv, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["train", "--dataset", blob_csv, "--label-column", "cls",
                 "--method", "kmeans_x", "--seed", "0,1",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("dataset=blobs method=kmeans_x dim=x seed=0 ")
    assert "acc=100.00" in lines[0]
    assert "stop=" not in lines[0]
    run = out / "blobs" / "kmeans_x" / "dimx" / "seed0"
    assert (run / "metrics.json").exists()
    assert not (run / "trace.csv").exists()


def test_train_gceals_artifacts_and_determinism(blob_csv, tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["train", "--dataset", blob_csv, "--label-column", "cls",
            "--method", "gceals", "--dims", "2", "--seed", "3",
            "--pretrain-epochs", "4", "--finetune-epochs", "4",
            "--out", str(out), "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dataset"] == "blobs" and doc["dim"] == 2 and doc["seed"] == 3
    assert "stop_reason" in doc
    run = out / "blobs" / "gceals" / "dim2" / "seed3"
    for name in ("metrics.json", "trace.csv", "embedding.csv",
                 "train_report.json", "checkpoint.npz"):
        assert (run / name).exists(), name
    first = (run / "metrics.json").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert (run / "metrics.json").read_bytes() == first


def test_train_divergence_exit_2(blob_csv, monkeypatch, capsys):
    def boom(*a, **kw):
        raise DivergenceError(3, float("nan"))

    monkeypatch.setattr(cli, "run_single", boom)
    code = main(["train", "--dataset", blob_csv, "--label-column", "cls",
                 "--method", "gceals", "--dims", "2"])
    assert code == 2
    assert "diverged" in capsys.readouterr().err


def test_train_rejects_unknown_method(blob_csv, capsys):
    code = main(["train", "--dataset", blob_csv, "--label-column", "cls",
                 "--method", "zzz"])
    assert code == 1
    assert "unknown method" in capsys.readouterr().err


def test_benchmark_outputs(blob_csv, tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["benchmark", "--dataset", blob_csv, "--label-column", "cls",
                 "--method", "kmeans_x,kmeans_z", "--dims", "2",
                 "--seed", "0", "--pretrain-epochs", "2",
                 "--finetune-epochs", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kmeans_x: avg rank" in text
    assert f"report written to {out}" in text
    for name in ("benchmark.json", "benchmark.csv", "summary.csv"):
        assert (out / name).exists(), name
    doc = json.loads((out / "benchmark.json").read_text())
    assert doc["datasets"] == ["blobs"]
    assert len(doc["rows"]) == 2


def test_benchmark_json_output(blob_csv, tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["benchmark", "--dataset", blob_csv, "--label-column", "cls",
                 "--method", "kmeans_x,gmm_x", "--dims", "2",
                 "--seed", "0", "--out", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"datasets", "methods", "dims", "seeds", "best_dim",
                        "ranks", "average_ranks", "warnings"}
    assert "rows" not in doc


def test_config_file_supplies_defaults_and_flags_win(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": blob_csv, "label_column": "cls", "method": "kmeans_x",
        "seed": "5", "out": str(tmp_path / "runs_cfg")}))
    assert main(["train", "--config", str(cfg), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "kmeans_x" and doc["seed"] == 5

    # an explicit flag overrides the config value
    assert main(["train", "--config", str(cfg), "--seed", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 7


def test_config_rejects_non_object(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = main(["train", "--dataset", blob_csv, "--label-column", "cls",
                 "--method", "kmeans_x", "--config", str(cfg)])
    assert code == 1
    assert "config" in capsys.readouterr().err
