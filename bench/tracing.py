"""Spans around the public functions of each gceals module, and the per-layer
metrics derived from them.

`Tracer.install()` replaces every listed function, in every gceals module
that holds a reference to it, with a wrapper that records a span (name,
round, parent span, start, end, and a few attributes read from the
arguments or the result). Spans stay in memory until `write_jsonl`. The
program itself is not changed; `uninstall()` restores the originals.
"""

from __future__ import annotations

import json
import os
import sys
import time

from workloads import ALL_METHODS

# (module, attribute) of every traced function; "Class.method" patches a method
TRACED = (
    ("dataset", "load_csv"), ("dataset", "preprocess"),
    ("neuralnet", "pretrain_autoencoder"), ("neuralnet", "forward"),
    ("neuralnet", "backward"), ("neuralnet", "backward_range"),
    ("neuralnet", "encode"), ("neuralnet", "AdamState.step"),
    ("neuralnet", "save_checkpoint"),
    ("training", "train_gceals"), ("training", "train_dec_variant"),
    ("training", "joint_step_gradients"), ("training", "soft_assign"),
    ("training", "likelihood_and_weights"), ("training", "write_embedding_csv"),
    ("training", "TrainReport.write_trace_csv"), ("training", "TrainReport.to_json"),
    ("baselines", "kmeans"), ("baselines", "lloyd"), ("baselines", "gmm_fit"),
    ("metrics", "clustering_accuracy"), ("metrics", "adjusted_rand_index"),
    ("metrics", "normalized_mutual_information"), ("metrics", "metrics_json"),
    ("metrics", "linear_sum_assignment"),
    ("benchmark", "run_benchmark"), ("benchmark", "run_single"),
    ("benchmark", "write_report_json"), ("benchmark", "write_report_csv"),
    ("benchmark", "write_summary_csv"),
)

TRAIN_SPANS = ("train_gceals", "train_dec_variant")
SCORE_SPANS = ("clustering_accuracy", "adjusted_rand_index",
               "normalized_mutual_information")
ARTIFACT_SPANS = ("write_embedding_csv", "TrainReport.write_trace_csv",
                  "TrainReport.to_json", "metrics_json", "save_checkpoint",
                  "write_report_json", "write_report_csv", "write_summary_csv")


def _is_autoencoder(net) -> bool:
    return net.plan.bottleneck is not None


def _forward_attrs(args, kwargs, out):
    net, x = args[0], args[1]
    sizes = net.plan.sizes
    macs = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return {"ae": _is_autoencoder(net), "flops": 2 * x.shape[0] * macs}


ATTRS = {
    "forward": _forward_attrs,
    "backward_range": lambda a, k, out: {"ae": _is_autoencoder(a[0])},
    "save_checkpoint": lambda a, k, out: {"bytes": os.path.getsize(a[1])},
    "lloyd": lambda a, k, out: {"iters": len(out.inertia_trace) - 1},
    "gmm_fit": lambda a, k, out: {"iters": len(out.log_likelihoods)},
    "train_gceals": lambda a, k, out: {"epochs": out.report.stop_epoch},
    "train_dec_variant": lambda a, k, out: {"epochs": out.report.stop_epoch},
    "run_single": lambda a, k, out: {"method": a[1]},
}


class Tracer:
    """In-memory span recorder that wraps the gceals functions in TRACED."""

    def __init__(self):
        self.spans = []  # [id, round, parent, name, start, end, attrs]; id = index
        self.round = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), self.round, stack[-1] if stack else None, name,
                   0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gceals" or key.startswith("gceals."))]
        for mod_name, attr in TRACED:
            module = sys.modules[f"gceals.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(attr, orig))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(attr, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "round", "parent", "name", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_metrics(spans: list, rounds: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}: per-call means in ms,
    per-round totals in s or counts.

    A metric whose layer the workload never calls reads 0.
    """
    by_name: dict = {}
    children: dict = {}
    for rec in spans:
        by_name.setdefault(rec[3], []).append(rec)
        if rec[2] is not None:
            children.setdefault(rec[2], []).append(rec)

    def dur(rec):
        return rec[5] - rec[4]

    def calls(name, pred=None):
        return [r for r in by_name.get(name, []) if pred is None or pred(r)]

    def mean_ms(recs):
        return 1e3 * sum(map(dur, recs)) / len(recs) if recs else 0.0

    def per_round(total):
        return total / rounds

    def child_time(rec, names):
        return sum(dur(c) for c in children.get(rec[0], []) if c[3] in names)

    def autoencoder_child_time(rec):
        return sum(dur(c) for c in children.get(rec[0], [])
                   if c[3] in ("forward", "backward_range") and c[6]["ae"])

    def parent_name(rec):
        return None if rec[2] is None else spans[rec[2]][3]

    ae_fwd = calls("forward", lambda r: r[6]["ae"])
    ae_bwd = calls("backward_range", lambda r: r[6]["ae"])
    train = calls("train_gceals") + calls("train_dec_variant")
    joint = calls("joint_step_gradients")
    runs = calls("run_single")
    fwd_time = sum(map(dur, ae_fwd))
    weight_updates = [r for r in calls("soft_assign") if parent_name(r) in TRAIN_SPANS]
    law = [r for r in calls("likelihood_and_weights") if parent_name(r) in TRAIN_SPANS]
    checkpoints = calls("save_checkpoint")
    score_time = sum(dur(r) for name in SCORE_SPANS for r in calls(name)
                     if parent_name(r) == "run_single")
    out = {
        "neuralnet.pretrain_s": (
            per_round(sum(map(dur, calls("pretrain_autoencoder")))), "s"),
        "neuralnet.forward_ms": (mean_ms(ae_fwd), "ms"),
        "neuralnet.backward_ms": (mean_ms(ae_bwd), "ms"),
        "neuralnet.adam_step_ms": (mean_ms(calls("AdamState.step")), "ms"),
        "neuralnet.forward_gflop_per_s": (
            sum(r[6]["flops"] for r in ae_fwd) / fwd_time / 1e9 if fwd_time else 0.0,
            "GFLOP/s"),
        "neuralnet.encode_ms": (mean_ms(calls("encode")), "ms"),
        "neuralnet.encode_calls": (per_round(len(calls("encode"))), "count"),
        "neuralnet.save_checkpoint_ms": (mean_ms(checkpoints), "ms"),
        "neuralnet.checkpoint_mb": (
            sum(r[6]["bytes"] for r in checkpoints) / len(checkpoints) / 1e6
            if checkpoints else 0.0, "MB"),
        "training.finetune_s": (per_round(sum(
            dur(r) - child_time(r, ("pretrain_autoencoder",)) for r in train)), "s"),
        "training.joint_step_ms": (mean_ms(joint), "ms"),
        # the Gaussian head and the projection-head MLP: everything but the
        # autoencoder's forward and backward passes
        "training.head_self_ms": (
            1e3 * sum(dur(r) - autoencoder_child_time(r) for r in joint) / len(joint)
            if joint else 0.0, "ms"),
        "training.weight_update_ms": (
            1e3 * (sum(map(dur, weight_updates)) + sum(map(dur, law)))
            / len(weight_updates) if weight_updates else 0.0, "ms"),
        "training.kmeans_init_ms": (mean_ms(
            [r for r in calls("kmeans") if parent_name(r) in TRAIN_SPANS]), "ms"),
        "training.finetune_epochs_run": (
            per_round(sum(r[6]["epochs"] for r in train)), "count"),
        "baselines.kmeans_ms": (mean_ms(calls("kmeans")), "ms"),
        "baselines.lloyd_iters": (
            per_round(sum(r[6]["iters"] for r in calls("lloyd"))), "count"),
        "baselines.gmm_fit_ms": (mean_ms(calls("gmm_fit")), "ms"),
        "baselines.gmm_em_iters": (
            per_round(sum(r[6]["iters"] for r in calls("gmm_fit"))), "count"),
        "metrics.score_ms": (1e3 * score_time / len(runs) if runs else 0.0, "ms"),
        "metrics.lsa_calls": (per_round(len(calls("linear_sum_assignment"))), "count"),
        "dataset.load_csv_ms": (mean_ms(calls("load_csv")), "ms"),
        "dataset.preprocess_ms": (mean_ms(calls("preprocess")), "ms"),
    }
    for method in ALL_METHODS:
        picked = [r for r in runs if r[6]["method"] == method]
        out[f"benchmark.run_single_s.{method}"] = (mean_ms(picked) / 1e3, "s")
    out["benchmark.pretrain_calls"] = (
        per_round(len(calls("pretrain_autoencoder"))), "count")
    out["benchmark.artifact_io_s"] = (per_round(sum(
        dur(r) for name in ARTIFACT_SPANS for r in calls(name))), "s")
    return out
