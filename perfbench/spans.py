"""Span tracing of vadiff's public functions, installed from outside.

`Tracer.install()` replaces every binding of each traced function in the
loaded vadiff namespaces (module attributes, dicts they hold such as the
CLI's dispatch table, and the Rng class) with a wrapper that records a
span: name, start, end, parent span and workload-run id.  `restore()` puts
each original back.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Traced functions per layer (vadiff module); a class method is "Class.method".
LAYERS = {
    "cli": ["cmd_synth", "cmd_train", "cmd_score", "cmd_eval"],
    "data": ["synth_generate", "save_features", "load_features", "load_manifest",
             "estimate_sigma_data"],
    "network": ["denoise", "forward_raw", "film", "fourier_embed", "save_checkpoint",
                "load_checkpoint"],
    "autodiff": ["affine", "silu", "mul", "add", "backward"],
    "training": ["fit", "dsm_loss", "adam_step", "ema_update", "sample_train_sigma"],
    "sampling": ["partial_reconstruct", "lms_sample", "multistep_coeff"],
    "scoring": ["score_dataset", "score_batch", "mse_per_instance", "batch_threshold",
                "write_scores_csv", "read_scores_csv"],
    "evaluation": ["evaluate", "expand_segments", "roc_auc", "write_report_json"],
    "rng": ["Rng.standard_normal", "Rng.permutation"],
}
TRACED = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
STAGE_SPANS = ["cli.cmd_synth", "cli.cmd_train", "cli.cmd_score", "cli.cmd_eval",
               "training.fit", "training.dsm_loss", "scoring.score_dataset",
               "sampling.lms_sample", "network.denoise", "evaluation.evaluate"]
# Counts kept at span boundaries, reported as they are.
COUNTS = ["data.features_bytes", "data.manifest_bytes", "network.checkpoint_bytes",
          "network.denoise.rows", "autodiff.affine.flops", "evaluation.frames"]
# Per-layer metrics of one traced run, in report order.
METRICS = (
    [f"{q}.{k}" for q in TRACED for k in ("calls", "self_s")]
    + [f"{q}.total_s" for q in STAGE_SPANS]
    + ["training.dsm_loss.beyond_forward_s"]
    + COUNTS
    + ["network.denoise.f64_share", "network.film_rows_per_sigma",
       "tracing.wall_s", "tracing.gap_s", "tracing.self_total_s"]
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_files(*entries):
    """Probe adding the size of each (counter, arg index, arg name) file."""
    def probe(c, args, kwargs, result):
        for key, index, name in entries:
            c[key] += os.path.getsize(_arg(args, kwargs, index, name))
    return probe


def _denoise(c, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 2, "x"))
    c["network.denoise.rows"] += x.shape[0]
    c["network.denoise.f64_calls"] += int(x.dtype == np.float64)


def _fourier_embed(c, args, kwargs, result):
    # Each embedding row goes through every FiLM gamma/beta projection.
    c_noise = np.asarray(_arg(args, kwargs, 1, "c_noise"))
    c["network.film_rows"] += 1 if c_noise.ndim == 0 else c_noise.shape[0]
    c["network.film_sigmas"] += np.unique(c_noise).size


def _affine(c, args, kwargs, result):
    # Computed from operand shapes: a multiply-add per weight and row, plus the bias.
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
    xs, ws = np.shape(getattr(x, "value", x)), np.shape(getattr(w, "value", w))
    rows = int(np.prod(xs[:-1]))
    c["autodiff.affine.flops"] += 2 * rows * xs[-1] * ws[-1] + rows * ws[-1]


def _evaluate(c, args, kwargs, result):
    c["evaluation.frames"] += result.frame_count


PROBES = {
    "data.load_features": _count_files(("data.features_bytes", 0, "features_path")),
    "data.load_manifest": _count_files(("data.manifest_bytes", 0, "manifest_path")),
    "data.save_features": _count_files(("data.features_bytes", 0, "features_path"),
                                       ("data.manifest_bytes", 1, "manifest_path")),
    "network.save_checkpoint": _count_files(("network.checkpoint_bytes", 0, "path")),
    "network.load_checkpoint": _count_files(("network.checkpoint_bytes", 0, "path")),
    "network.denoise": _denoise,
    "network.fourier_embed": _fourier_embed,
    "autodiff.affine": _affine,
    "evaluation.evaluate": _evaluate,
}


def bindings():
    """(mapping, setter) for each place a vadiff function can be bound."""
    for name, mod in list(sys.modules.items()):
        if name == "vadiff" or name.startswith("vadiff."):
            ns = vars(mod)
            yield ns, ns.__setitem__
            for value in list(ns.values()):
                if isinstance(value, dict) and value is not ns:
                    yield value, value.__setitem__
    rng = sys.modules.get("vadiff.rng")
    if rng is not None and isinstance(getattr(rng, "Rng", None), type):
        yield vars(rng.Rng), functools.partial(setattr, rng.Rng)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                probe(self.counts[self.run_id], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function vadiff still has.

        A function the program no longer has is skipped; its metrics read 0.
        """
        for qual in TRACED:
            layer, _, attr = qual.partition(".")
            try:
                owner = importlib.import_module(f"vadiff.{layer}")
            except ImportError:
                continue
            cls, _, attr = attr.rpartition(".")
            owner = getattr(owner, cls, None) if cls else owner
            orig = vars(owner).get(attr) if owner is not None else None
            if not callable(orig):
                continue
            wrapper = self._wrap(qual, orig)
            for mapping, setter in list(bindings()):
                for key in [k for k, v in mapping.items() if v is orig]:
                    setter(key, wrapper)
                    self._patched.append((setter, key, orig))

    def restore(self) -> None:
        while self._patched:
            setter, key, orig = self._patched.pop()
            setter(key, orig)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur = 0.0, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur is not None and a <= cur[1]:
            cur[1] = max(cur[1], b)
            continue
        if cur is not None:
            total += cur[1] - cur[0]
        cur = [a, b]
    return total + (cur[1] - cur[0] if cur is not None else 0.0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - union_length(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def run_metrics(spans, counts, walls) -> dict[str, float]:
    """Median over workload runs of each per-layer metric in METRICS.

    `walls[run]` is the traced wall time of run `run`: the time of its
    stage chain, from which the time not inside any span is the gap.
    """
    selfs = self_times(spans)
    sums = [defaultdict(float) for _ in walls]
    top = [[] for _ in walls]
    for i, (name, start, end, parent, run) in enumerate(spans):
        s = sums[run]
        s[f"{name}.calls"] += 1
        s[f"{name}.self_s"] += selfs[i]
        s[f"{name}.total_s"] += end - start
        s["tracing.self_total_s"] += selfs[i]
        if parent < 0:
            top[run].append((start, end))
        elif name == "network.forward_raw" and spans[parent][0] == "training.dsm_loss":
            s["training.dsm_loss.forward_s"] += end - start
    per_run = []
    for run, (s, wall) in enumerate(zip(sums, walls)):
        c = counts.get(run, {})
        s.update({k: c.get(k, 0) for k in COUNTS})
        s["training.dsm_loss.beyond_forward_s"] = (
            s["training.dsm_loss.total_s"] - s["training.dsm_loss.forward_s"])
        s["network.denoise.f64_share"] = (
            c.get("network.denoise.f64_calls", 0) / s["network.denoise.calls"]
            if s["network.denoise.calls"] else 0.0)
        s["network.film_rows_per_sigma"] = (
            c.get("network.film_rows", 0) / c["network.film_sigmas"]
            if c.get("network.film_sigmas") else 0.0)
        s["tracing.wall_s"] = wall
        s["tracing.gap_s"] = wall - union_length(top[run], -np.inf, np.inf)
        if abs(s["tracing.self_total_s"] + s["tracing.gap_s"] - wall) > 1e-6:
            raise RuntimeError(f"run {run}: self times and gap do not add up to the wall time")
        per_run.append(s)
    return {m: statistics.median(s.get(m, 0.0) for s in per_run) for m in METRICS}
