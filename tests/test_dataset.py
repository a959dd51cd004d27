import numpy as np
import pytest

from gceals.dataset import (
    CATEGORICAL,
    NUMERIC,
    IngestionError,
    dataset_stats,
    load_csv,
    preprocess,
    write_matrix_csv,
)

from conftest import write_csv


def test_type_inference_mixed(tmp_path):
    path = write_csv(tmp_path / "t.csv",
                     ["height", "color", "cls"],
                     [["1.5", "red", "a"], ["2.5", "blue", "b"],
                      ["3.5", "red", "a"]])
    ds = load_csv(path, label_column="cls")
    kinds = {c.name: c.kind for c in ds.columns}
    assert kinds == {"height": NUMERIC, "color": CATEGORICAL}
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.n_classes == 2


def test_label_first_appearance_order(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["f", "y"],
                     [["1", "z"], ["2", "m"], ["3", "z"], ["4", "q"]])
    ds = load_csv(path, label_column="y")
    assert ds.labels.tolist() == [0, 1, 0, 2]


def test_single_class_label_rejected(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["f", "y"], [["1", "a"], ["2", "a"]])
    with pytest.raises(IngestionError):
        load_csv(path, label_column="y")


def test_empty_cell_rejected_with_coordinates(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["f", "g"], [["1", "2"], ["", "4"]])
    with pytest.raises(IngestionError) as err:
        load_csv(path)
    assert "line 3" in str(err.value)
    assert "'f'" in str(err.value)


def test_ragged_row_rejected(tmp_path):
    with open(tmp_path / "t.csv", "w") as fh:
        fh.write("a,b\n1,2\n3\n")
    with pytest.raises(IngestionError) as err:
        load_csv(tmp_path / "t.csv")
    assert "line 3" in str(err.value)


def test_missing_label_column_errors(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["f"], [["1"], ["2"]])
    with pytest.raises(IngestionError):
        load_csv(path, label_column="nope")


def test_zscore_uses_population_std(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["f"], [["1"], ["2"], ["3"], ["4"]])
    ds = load_csv(path)
    x = preprocess(ds)
    values = np.array([1.0, 2.0, 3.0, 4.0])
    expected = (values - values.mean()) / values.std()
    assert np.allclose(x[:, 0], expected)
    assert np.isclose(x[:, 0].std(), 1.0)


def test_zero_variance_column_becomes_zeros(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["f", "g"],
                     [["7", "1"], ["7", "2"], ["7", "3"]])
    x = preprocess(load_csv(path))
    assert np.array_equal(x[:, 0], np.zeros(3))


def test_onehot_first_appearance_and_block_order(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["c", "f"],
                     [["red", "1"], ["blue", "2"], ["red", "3"]])
    x = preprocess(load_csv(path))
    # numeric column first, then the categorical block in appearance order
    assert x.shape == (3, 3)
    assert np.array_equal(x[:, 1:], [[1, 0], [0, 1], [1, 0]])


def test_preprocess_needs_two_rows(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["f"], [["1"]])
    with pytest.raises(ValueError):
        preprocess(load_csv(path))


def test_fs_ratio_formula(tmp_path):
    # 522 rows x 21 numeric features gives the published 4.023 ratio
    gen = np.random.default_rng(0)
    rows = [[repr(float(v)) for v in gen.normal(size=21)] for _ in range(522)]
    path = write_csv(tmp_path / "big.csv", [f"f{j}" for j in range(21)], rows)
    stats = dataset_stats(load_csv(path))
    assert round(stats.fs_ratio, 3) == 4.023


def test_c_score_perfectly_correlated_pair(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b"],
                     [["1", "2"], ["2", "4"], ["3", "6"]])
    stats = dataset_stats(load_csv(path))
    assert np.isclose(stats.c_score, 1.0)


def test_c_score_skips_zero_variance_columns(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b", "c"],
                     [["1", "2", "5"], ["2", "4", "5"], ["3", "6", "5"]])
    stats = dataset_stats(load_csv(path))
    assert np.isclose(stats.c_score, 1.0)


def test_stats_json_fields(tmp_path):
    import json
    path = write_csv(tmp_path / "t.csv", ["a", "y"],
                     [["1", "p"], ["2", "q"], ["3", "p"]])
    stats = dataset_stats(load_csv(path, label_column="y"))
    doc = json.loads(stats.to_json())
    assert doc["n"] == 3
    assert doc["classes"] == 2
    assert doc["feature_dimension"] == 1


def test_matrix_csv_round_trip(tmp_path):
    x = np.random.default_rng(3).normal(size=(5, 4))
    out = tmp_path / "m.csv"
    write_matrix_csv(x, out)
    ds = load_csv(out)
    back = np.column_stack([c.values for c in ds.columns])
    assert np.array_equal(back, x)
