#!/usr/bin/env python3
"""Reference figures for bench/README.md; none of them is a gated metric.

    python3 bench/reference.py

Prints one JSON object: the src/ line count, one traced criterion-3 run
(blobs-default inputs, seed 0, the paper's 1000 + 1000 epochs) split into
phases, and three grid-j1 round times at --jobs 1 and --jobs 2, alternating.
Takes about ten minutes on a 2-core machine.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import sys

from run import HERE, ROOT, Runner, import_program
from workloads import WORKLOADS, load_tasks, write_inputs

GRID_ROUNDS = 3


def load(workload, work):
    return load_tasks(write_inputs(workload, 0, os.path.join(work, "data")))


def criterion3(work) -> dict:
    """One default-epoch gceals run under tracing, split into its phases."""
    from tracing import ARTIFACT_SPANS, SCORE_SPANS, Tracer
    w = WORKLOADS["blobs-default"]
    runner = Runner(w, load(w, work), (1000, 1000), os.path.join(work, "run"))
    tracer = Tracer()
    tracer.install()
    try:
        result = runner.round(1)
    finally:
        tracer.uninstall()
    acc, ari = runner.check(result)
    spans = tracer.spans

    def total(name, parent=None):
        return sum(r[5] - r[4] for r in spans if r[3] == name and (
            parent is None or (r[2] is not None and spans[r[2]][3] == parent)))

    train = total("train_gceals")
    pretrain = total("pretrain_autoencoder")
    kmeans_init = total("kmeans", "train_gceals")
    phases = {
        "pretrain_s": pretrain,
        "kmeans_init_s": kmeans_init,
        "finetune_s": train - pretrain - kmeans_init,
        "final_encode_s": total("encode", "run_single"),
        "scoring_s": sum(total(n, "run_single") for n in SCORE_SPANS),
        "artifact_io_s": sum(total(n, "run_single") for n in ARTIFACT_SPANS),
    }
    return {"wall_s": result["wall_s"], "acc": acc, "ari": ari,
            "criterion_3_bound_s": 300.0, "phases": phases}


def grid(work) -> dict:
    w = WORKLOADS["grid-j1"]
    runner = Runner(w, load(w, work), (w.pretrain_epochs, w.finetune_epochs),
                    os.path.join(work, "run"))
    walls = {1: [], 2: []}
    for _ in range(GRID_ROUNDS):
        for jobs in (1, 2):
            result = runner.round(jobs)
            runner.check(result)
            walls[jobs].append(result["wall_s"])
    return {f"jobs{j}": {"median_s": statistics.median(v), "rounds_s": v}
            for j, v in walls.items()}


def main() -> int:
    import_program()
    work = os.path.join(HERE, "out", "reference")
    shutil.rmtree(work, ignore_errors=True)
    out = {"src_lines": sum(
        sum(1 for _ in open(p, encoding="utf-8"))
        for p in glob.glob(os.path.join(ROOT, "src", "gceals", "*.py")))}
    try:
        out["criterion3"] = criterion3(work)
        out["grid"] = grid(work)
    finally:
        shutil.rmtree(os.path.join(work, "run"), ignore_errors=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
