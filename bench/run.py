#!/usr/bin/env python3
"""gceals benchmark: one workload, end-to-end or per-layer metrics as JSON.

    python3 bench/run.py --workload blobs-default --seed 0 --seconds 40 --trace 0

Generates the workload's CSV inputs from --seed, imports gceals from the
`src/` directory next to this one, and repeats whole rounds of the workload
(the calls `gceals train` or `gceals benchmark` make) until --seconds are
used. Every round's written outputs are checked against computations made
apart from the program. The last stdout line is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
See bench/README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from workloads import BATCH_CAP, GAMMA, SEEDS, WORKLOADS, load_tasks, write_inputs  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one cold set-up in a fresh interpreter; prints the system-wide monotonic
# clock when load_csv + preprocess are done, so the parent can time it from spawn
SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import gceals
from workloads import load_tasks
load_tasks({paths!r})
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="few epochs per run, same workloads and checks")
    return parser.parse_args(argv)


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "gceals", "__init__.py")):
        sys.exit(f"error: no gceals sources under {SRC}")


def import_program():
    """Import gceals from ROOT/src and nowhere else."""
    require_sources()
    sys.path.insert(0, SRC)
    import gceals
    if os.path.dirname(os.path.dirname(os.path.abspath(gceals.__file__))) != SRC:
        sys.exit(f"error: imported gceals from {gceals.__file__}, not {SRC}")
    return gceals


def cold_setup_s(paths: list) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    A set-up is `import gceals`, then load_csv + preprocess of every path.
    """
    code = SETUP_PROBE.format(src=SRC, here=HERE, paths=paths)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True).stdout
    return float(done) - start


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


class Runner:
    """Rounds of one workload on loaded tasks, with their output checks."""

    def __init__(self, workload, tasks, epochs, out_root):
        from gceals import benchmark
        self.w = workload
        self.tasks = tasks
        self.out_root = out_root
        self.bench = benchmark
        self.settings = {"gamma": GAMMA, "pretrain_epochs": epochs[0],
                         "finetune_epochs": epochs[1], "batch_cap": BATCH_CAP}
        self.reference = None  # output tables of the first round
        self.x_space_checked = False
        self.below_floor = []  # runs under the workload's min_acc / min_ari

    def jobs_of(self):
        """(task, method, dim, seed) of every run one round makes."""
        for task in self.tasks:
            for method in self.w.methods:
                x_space = method in self.bench.X_SPACE_METHODS
                for dim in [None] if x_space else self.w.dims:
                    for seed in SEEDS:
                        yield task, method, dim, seed

    def round(self, jobs: int) -> dict:
        """One timed round; returns wall time, artifact bytes and cell count."""
        shutil.rmtree(self.out_root, ignore_errors=True)
        os.makedirs(self.out_root)
        b = self.bench
        failed = 0
        started = time.perf_counter()
        if self.w.kind == "train":
            for task, method, dim, seed in self.jobs_of():
                out_dir = b.run_dir(self.out_root, task.name, method, dim, seed)
                try:
                    b.run_single(task, method, dim, seed, out_dir=out_dir,
                                 **self.settings)
                except Exception as exc:  # counted, then reported by check()
                    print(f"run failed: {task.name}/{method}/{dim}/{seed}: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    failed += 1
            report = None
        else:
            report = b.run_benchmark(
                self.tasks, list(self.w.methods), list(self.w.dims),
                list(SEEDS), jobs=jobs, out_root=self.out_root,
                **self.settings)
            b.write_report_json(report, os.path.join(self.out_root, "benchmark.json"))
            b.write_report_csv(report, os.path.join(self.out_root, "benchmark.csv"))
            b.write_summary_csv(report, os.path.join(self.out_root, "summary.csv"))
            # input-space cells are repeated on every dim row; count them once
            failed = sum(1 for r in report["rows"] if r["status"] != "ok" and (
                r["method"] not in b.X_SPACE_METHODS or r["dim"] == self.w.dims[0]))
        wall = time.perf_counter() - started
        return {"wall_s": wall, "artifact_bytes": tree_bytes(self.out_root),
                "attempted": len(list(self.jobs_of())), "failed": failed,
                "report": report}

    def check(self, result: dict) -> tuple:
        """Check one round's outputs; returns (mean acc, mean ari)."""
        import oracles
        oracles.require(result["failed"] == 0,
                        f"{result['failed']} run(s) failed in the round")
        b = self.bench
        if result["report"] is not None:
            oracles.check_grid(self.out_root, result["report"], len(self.w.methods))
        scores = []
        for task, method, dim, seed in self.jobs_of():
            run = b.run_dir(self.out_root, task.name, method, dim, seed)
            if method in b.X_SPACE_METHODS:
                metrics = oracles.read_json(os.path.join(run, "metrics.json"))
                if not self.x_space_checked:
                    labels = self._x_space_labels(task, method, seed)
                    oracles.check_scores(run, task.y, labels, metrics)
            else:
                metrics = oracles.check_embedding_run(run, task.y)
            if self.w.min_acc is not None and (metrics["acc"] < self.w.min_acc
                                               or metrics["ari"] < self.w.min_ari):
                # a quality floor, not an output check: fine-tuning misses it
                # on some input seeds only, so it is reported and not gated
                miss = (f"{os.path.relpath(run, self.out_root)}: acc {metrics['acc']}"
                        f" / ari {metrics['ari']} below {self.w.min_acc} / "
                        f"{self.w.min_ari}")
                if miss not in self.below_floor:
                    self.below_floor.append(miss)
                    print(f"# quality floor missed: {miss}", file=sys.stderr)
            scores.append((metrics["acc"], metrics["ari"]))
        self.x_space_checked = True
        tables = self.output_tables()
        if self.reference is None:
            self.reference = tables
        oracles.require(tables == self.reference,
                        "outputs differ from the first round's: "
                        + ", ".join(k for k in tables
                                    if tables[k] != self.reference.get(k)))
        return (statistics.fmean(s[0] for s in scores),
                statistics.fmean(s[1] for s in scores))

    def _x_space_labels(self, task, method, seed):
        """Input-space labels are not written; recompute them as run_single does."""
        from gceals.baselines import gmm_fit, kmeans
        from gceals.linalg import Rng
        rng = Rng(self.bench.job_seed(task.name, method, None, seed))
        fit = kmeans if method == "kmeans_x" else gmm_fit
        return fit(task.x, task.k, rng).labels

    def output_tables(self) -> dict:
        """Bytes that must not depend on tracing, round or worker count."""
        paths = [os.path.join(self.out_root, n) for n in ("benchmark.csv", "summary.csv")]
        for task, method, dim, seed in self.jobs_of():
            run = self.bench.run_dir(self.out_root, task.name, method, dim, seed)
            paths += [os.path.join(run, n) for n in ("metrics.json", "embedding.csv")]
        tables = {}
        for path in paths:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    tables[os.path.relpath(path, self.out_root)] = fh.read()
        return tables


def machine_info() -> dict:
    import numpy as np
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__}
    info.update({v: os.environ.get(v) for v in THREAD_VARS})
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    w = WORKLOADS[args.workload]
    epochs = w.quick if args.quick else (w.pretrain_epochs, w.finetune_epochs)
    work = os.path.join(HERE, "out", f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    paths = write_inputs(w, args.seed, os.path.join(work, "data"))

    # set-up as a user pays it, in a fresh interpreter; the benchmark's own
    # numpy-using modules are imported only after the first sample
    setup_samples = [cold_setup_s(paths)]
    import_program()
    tasks = load_tasks(paths)

    import oracles
    runner = Runner(w, tasks, epochs, os.path.join(work, "run"))
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "quick": args.quick, "epochs": list(epochs),
              "setup_samples_s": setup_samples,
              "machine": machine_info(), "rounds": []}
    print(f"# {w.name} seed {args.seed}: {record['machine']}", file=sys.stderr)
    attempted = failed = 0
    correct = True
    metrics = {}
    started = time.perf_counter()

    def timed_round(jobs, label, sample_setup=False):
        nonlocal attempted, failed
        t = time.perf_counter()
        result = runner.round(jobs)
        attempted += result["attempted"]
        failed += result["failed"]
        acc, ari = runner.check(result)
        if sample_setup:
            # one more cold set-up after every round spreads the samples over
            # the run, so a single busy spell of the machine does not set setup_s
            setup_samples.append(cold_setup_s(paths))
        entry = {"kind": label, "jobs": jobs, "wall_s": result["wall_s"],
                 "artifact_mb": result["artifact_bytes"] / 1e6, "acc": acc,
                 "ari": ari, "round_s": time.perf_counter() - t}
        record["rounds"].append(entry)
        print(f"# round {len(record['rounds'])} ({label}, jobs {jobs}): "
              f"wall {entry['wall_s']:.3f} s, acc {acc:.6f}, ari {ari:.6f}",
              file=sys.stderr)
        return entry

    def time_left(entries):
        last = max(e["round_s"] for e in entries)
        return time.perf_counter() - started + last <= args.seconds

    try:
        if args.trace == 0:
            rounds = [timed_round(1, "timed", sample_setup=True)]
            while time_left(rounds):
                rounds.append(timed_round(1, "timed", sample_setup=True))
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
                "acc": (rounds[0]["acc"], "ratio"),
                "ari": (rounds[0]["ari"], "ratio"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "artifact_mb": (statistics.median(r["artifact_mb"] for r in rounds),
                                "MB"),
            }
        else:
            metrics = traced_run(w, runner, timed_round, time_left, paths,
                                 record, work)
    except oracles.CheckFailed as exc:
        correct = False
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(runner.out_root, ignore_errors=True)
        record["below_quality_floor"] = runner.below_floor
        with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_run(w, runner, timed_round, time_left, paths, record, work):
    """Traced rounds alternating with untraced ones, all at --jobs 1.

    A grid first runs one untraced round at --jobs 2, through the worker
    pool; its time is `benchmark.jobs2_round_s`, and every later round's
    outputs must be byte-identical to it.
    """
    import oracles
    from tracing import Tracer, layer_metrics

    jobs2_round_s = 0.0
    if w.kind == "grid":
        jobs2_round_s = timed_round(2, "untraced")["wall_s"]
    untraced = [timed_round(1, "untraced")]
    tracer = Tracer()
    traced = []
    while not traced or time_left(untraced + traced):
        if len(untraced) <= len(traced):
            untraced.append(timed_round(1, "untraced"))
            continue
        tracer.round = len(traced)
        tracer.install()
        try:
            reloaded = load_tasks(paths)
            entry = timed_round(1, "traced")
        finally:
            tracer.uninstall()
        for a, b in zip(reloaded, runner.tasks):
            oracles.require(a.name == b.name and (a.x == b.x).all()
                            and (a.y == b.y).all(), f"{a.name}: reload differs")
        traced.append(entry)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    overhead = traced_wall / untraced_wall - 1.0
    record["trace_overhead"] = overhead
    print(f"# tracing overhead {100 * overhead:+.2f}% ({traced_wall:.3f} s traced "
          f"vs {untraced_wall:.3f} s untraced, jobs 1); {len(tracer.spans)} spans",
          file=sys.stderr)
    tracer.write_jsonl(os.path.join(work, "spans.jsonl"))
    values = layer_metrics(tracer.spans, len(traced))
    values["benchmark.jobs2_round_s"] = (jobs2_round_s, "s")
    record["layers"] = values
    return values


if __name__ == "__main__":
    sys.exit(main())
