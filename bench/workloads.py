"""Workload definitions and their seeded input generators.

Inputs are generated with the standard library only (``random.Random`` seeded
by a string), so no numpy or gceals import happens before the timed set-up,
and the generated CSV files do not depend on the numpy version. The same
``--seed`` always gives byte-identical CSV files.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass

LABEL = "label"
# the CLI defaults of `--seed`, `--gamma` and `--batch-cap`, used by every workload
SEEDS = (0,)
GAMMA = 0.1
BATCH_CAP = 256
ALL_METHODS = ("gceals", "dec", "idec", "kmeans_x", "gmm_x", "kmeans_z", "gmm_z")


@dataclass
class DatasetSpec:
    """One generated CSV: `kind` picks the generator, the rest are its sizes."""

    name: str
    kind: str  # "blobs" or "mixed"
    k: int
    n: int  # rows per cluster for blobs, total rows for mixed
    numeric: int
    separation: float = 10.0  # centre gap (blobs) or block shift (mixed), in sigmas
    categorical: tuple = ()  # mixed: level count of each categorical column
    label_noise: float = 0.0  # mixed: share of rows labelled with another class


@dataclass
class Workload:
    """One benchmark workload: the public call it drives and its inputs.

    `kind` is "train" (run_single per dim and seed, as `gceals train` does)
    or "grid" (run_benchmark plus the three report writers, as
    `gceals benchmark` does). `quick` holds the (pretrain, finetune) epochs
    of the `--quick` mode. A run under `min_acc` or `min_ari` is reported
    on stderr and in record.json; it does not fail the round.
    """

    name: str
    kind: str
    datasets: list
    methods: tuple
    dims: tuple
    pretrain_epochs: int
    finetune_epochs: int
    quick: tuple
    min_acc: float | None = None
    min_ari: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # criterion-3 shape with shortened epochs: AE training dominates
        Workload(
            name="blobs-default", kind="train",
            datasets=[DatasetSpec("blobs3", "blobs", k=3, n=100, numeric=10,
                                  separation=10.0)],
            methods=("gceals",), dims=(10,), pretrain_epochs=30,
            finetune_epochs=30, quick=(5, 5), min_acc=0.95, min_ari=0.90),
        # large n, one batch per fine-tune epoch: full-data encode dominates
        Workload(
            name="overlap-large", kind="train",
            datasets=[DatasetSpec("overlap4", "mixed", k=4, n=3000, numeric=12,
                                  separation=15.0, categorical=(3, 4, 5),
                                  label_noise=0.2)],
            methods=("gceals",), dims=(10,), pretrain_epochs=2,
            finetune_epochs=40, quick=(1, 5)),
        # the benchmark CLI: baselines, metrics, rank aggregation, artifact I/O.
        # Timed at --jobs 1: at --jobs 2 each worker keeps an all-core BLAS
        # pool and rounds vary by a factor of two; traced runs time one
        # --jobs 2 round as benchmark.jobs2_round_s instead.
        Workload(
            name="grid-j1", kind="grid",
            datasets=[
                DatasetSpec("small3", "blobs", k=3, n=50, numeric=6,
                            separation=8.0),
                DatasetSpec("mixed4", "mixed", k=4, n=600, numeric=24,
                            separation=1.0, categorical=(3, 4, 5)),
            ],
            methods=ALL_METHODS, dims=(5, 10), pretrain_epochs=1,
            finetune_epochs=1, quick=(1, 1)),
    )
}


def _separated_centres(gen: random.Random, k: int, d: int, gap: float) -> list:
    """k centres drawn N(0, gap^2) per coordinate, redrawn until pairwise >= gap."""
    while True:
        c = [[gen.gauss(0.0, 1.0) * gap for _ in range(d)] for _ in range(k)]
        gaps = [sum((a - b) ** 2 for a, b in zip(c[i], c[j])) ** 0.5
                for i in range(k) for j in range(i + 1, k)]
        if min(gaps) >= gap:
            return c


def _blobs(spec: DatasetSpec, gen: random.Random):
    """Unit-noise Gaussian blobs around separated centres, grouped by class."""
    centres = _separated_centres(gen, spec.k, spec.numeric, spec.separation)
    header = [f"f{j}" for j in range(spec.numeric)] + [LABEL]
    rows = []
    for c, centre in enumerate(centres):
        for _ in range(spec.n):
            rows.append([repr(mu + gen.gauss(0.0, 1.0)) for mu in centre]
                        + [f"c{c}"])
    return header, rows


def _mixed(spec: DatasetSpec, gen: random.Random):
    """Classes that overlap as mixtures over separated numeric+categorical clusters.

    Cluster c shifts its own block of numeric columns by `separation` noise
    sigmas and prefers level c of every categorical column (drawn with
    probability 0.4, else a uniform level). A row drawn from cluster c is
    labelled c with probability 1 - label_noise and otherwise with one of the
    other classes, so each class spreads over every cluster and the best
    achievable ACC is about 1 - label_noise. Rows are shuffled.
    """
    block = spec.numeric // spec.k
    rows = []
    for i in range(spec.n):
        c = i % spec.k
        row = [repr((spec.separation if j // block == c else 0.0)
                    + gen.gauss(0.0, 1.0)) for j in range(spec.numeric)]
        for j, levels in enumerate(spec.categorical):
            level = c % levels if gen.random() < 0.4 else gen.randrange(levels)
            row.append(f"v{j}_{level}")
        label = c
        if gen.random() < spec.label_noise:
            label = (c + 1 + gen.randrange(spec.k - 1)) % spec.k
        rows.append(row + [f"c{label}"])
    gen.shuffle(rows)
    header = [f"x{j}" for j in range(spec.numeric)] \
        + [f"cat{j}" for j in range(len(spec.categorical))] + [LABEL]
    return header, rows


def write_inputs(workload: Workload, seed: int, data_dir: str) -> list:
    """Write the workload's CSV files for `seed`; returns their paths."""
    os.makedirs(data_dir, exist_ok=True)
    paths = []
    for spec in workload.datasets:
        gen = random.Random(f"{workload.name}/{spec.name}/{seed}")
        header, rows = (_blobs if spec.kind == "blobs" else _mixed)(spec, gen)
        path = os.path.join(data_dir, f"{spec.name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return paths


def load_tasks(paths: list) -> list:
    """What `gceals train/benchmark` do with each --dataset path."""
    from gceals import dataset
    from gceals.benchmark import BenchmarkTask
    tasks = []
    for path in paths:
        ds = dataset.load_csv(path, label_column=LABEL,
                              name=os.path.splitext(os.path.basename(path))[0])
        tasks.append(BenchmarkTask(name=ds.name, x=dataset.preprocess(ds),
                                   y=ds.labels, k=ds.n_classes))
    return tasks
