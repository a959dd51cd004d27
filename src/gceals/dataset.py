"""CSV ingestion, schema inference, preprocessing, and dataset statistics.

A dataset is read from an RFC-4180 style CSV with a header row. Columns are
typed numeric or categorical by inference from their cells, an optional
label column is split off for evaluation only, and `preprocess` turns the
table into a float64 matrix: z-scored numerics followed by full one-hot
blocks for categoricals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import DenseMatrix

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class IngestionError(ValueError):
    """Raised for malformed input files, with row/column coordinates where known."""


@dataclass
class Column:
    name: str
    kind: str  # NUMERIC or CATEGORICAL
    values: list = field(repr=False)


@dataclass
class Dataset:
    """Immutable tabular dataset; labels (if any) are held out for evaluation."""

    name: str
    columns: list
    labels: np.ndarray | None
    n: int

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1


@dataclass
class DatasetStats:
    name: str
    n: int
    feature_dimension: int
    classes: int
    fs_ratio: float
    c_score: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "n": self.n,
                "feature_dimension": self.feature_dimension,
                "classes": self.classes,
                "fs_ratio": self.fs_ratio,
                "c_score": self.c_score,
            }
        )


def _parse_float(cell: str):
    try:
        v = float(cell)
    except ValueError:
        return None
    if not np.isfinite(v):
        return None
    return v


def load_csv(path, label_column: str | None = None, name: str | None = None) -> Dataset:
    """Load a headered CSV into a typed Dataset.

    A column whose cells all parse as finite floats is numeric, anything else
    is categorical. Empty cells are rejected (no imputation). The label
    column, when given, is removed from the features and encoded to ids
    0..C-1 in order of first appearance.
    """
    path = str(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise IngestionError(f"cannot open {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file, header row required") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}: ragged row at line {lineno}: "
                    f"{len(row)} cells under a {len(header)}-column header"
                )
            rows.append(row)

    if not rows:
        raise IngestionError(f"{path}: no data rows")
    if label_column is not None and label_column not in header:
        raise IngestionError(f"{path}: label column {label_column!r} not in header")

    n = len(rows)
    columns = []
    labels = None
    for j, col_name in enumerate(header):
        cells = [row[j] for row in rows]
        for i, cell in enumerate(cells):
            if cell == "":
                raise IngestionError(
                    f"{path}: empty cell at line {i + 2}, column {col_name!r}"
                )
        if col_name == label_column:
            ids: dict = {}
            encoded = np.empty(n, dtype=np.int64)
            for i, cell in enumerate(cells):
                encoded[i] = ids.setdefault(cell, len(ids))
            if len(ids) < 2:
                raise IngestionError(
                    f"{path}: label column {col_name!r} has fewer than 2 classes"
                )
            labels = encoded
            continue
        parsed = []
        for cell in cells:
            v = _parse_float(cell)
            if v is None:
                break
            parsed.append(v)
        if len(parsed) == n:
            columns.append(Column(col_name, NUMERIC, np.array(parsed, dtype=np.float64)))
        else:
            columns.append(Column(col_name, CATEGORICAL, list(cells)))

    ds_name = name if name is not None else _stem(path)
    return Dataset(name=ds_name, columns=columns, labels=labels, n=n)


def _stem(path: str) -> str:
    base = path.replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def categorical_levels(col: Column) -> list:
    """Distinct levels of a categorical column in order of first appearance."""
    seen: dict = {}
    for cell in col.values:
        seen.setdefault(cell, None)
    return list(seen)


def preprocess(ds: Dataset) -> DenseMatrix:
    """Encode a dataset as a float64 matrix.

    Numeric columns are z-scored with the population standard deviation;
    a zero-variance column maps to all zeros. Categorical columns expand to
    one indicator column per level (no level dropped), levels ordered by
    first appearance. Numerics come first in original order, then the one-hot
    blocks in original column order.
    """
    if ds.n < 2:
        raise ValueError("preprocess requires at least 2 samples")
    blocks = []
    for col in ds.columns:
        if col.kind == NUMERIC:
            x = np.asarray(col.values, dtype=np.float64)
            std = x.std()
            if std == 0.0:
                blocks.append(np.zeros((ds.n, 1)))
            else:
                blocks.append(((x - x.mean()) / std)[:, None])
    for col in ds.columns:
        if col.kind == CATEGORICAL:
            levels = categorical_levels(col)
            index = {lv: a for a, lv in enumerate(levels)}
            onehot = np.zeros((ds.n, len(levels)))
            for i, cell in enumerate(col.values):
                onehot[i, index[cell]] = 1.0
            blocks.append(onehot)
    if not blocks:
        raise ValueError("dataset has no feature columns")
    return np.ascontiguousarray(np.hstack(blocks))


def dataset_stats(ds: Dataset) -> DatasetStats:
    """The summary statistics reported per dataset.

    fs_ratio is 100 * feature_dimension / n on the preprocessed matrix.
    c_score is the mean absolute Pearson correlation over unordered pairs of
    distinct preprocessed columns, skipping pairs that involve a zero-variance
    column.
    """
    x = preprocess(ds)
    d = x.shape[1]
    fs_ratio = 100.0 * d / ds.n
    stds = x.std(axis=0)
    live = np.flatnonzero(stds > 0)
    c_score = 0.0
    if live.size >= 2:
        xl = x[:, live]
        centered = xl - xl.mean(axis=0)
        corr = (centered.T @ centered) / (ds.n * stds[live][:, None] * stds[live][None, :])
        iu = np.triu_indices(live.size, k=1)
        c_score = float(np.mean(np.abs(corr[iu])))
    return DatasetStats(
        name=ds.name,
        n=ds.n,
        feature_dimension=d,
        classes=ds.n_classes,
        fs_ratio=fs_ratio,
        c_score=c_score,
    )


def write_matrix_csv(x: DenseMatrix, path) -> None:
    """Export a matrix as CSV with header f0..f{d-1}; round-trips via load_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(x.shape[1])])
        for row in x:
            writer.writerow([repr(float(v)) for v in row])
