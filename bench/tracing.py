"""In-memory span tracing around public functions of the program.

A span is (name, start, end, parent, attrs). Spans are recorded by
wrappers the benchmark installs on module attributes of `trajpred` for the
traced pass only, and by `Tracer.span` around the benchmark's own calls.
Nothing inside the program is edited: a function is traced when the
program calls it through its module attribute, which every call site in
`trajpred` does. Calls made in `cli predict` pool workers are not seen.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from time import perf_counter


class Tracer:
    """Spans kept in memory; `write_jsonl` dumps them at the end of a run."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, attrs]
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    def wrap(self, owner, attr, name, note=None):
        """Replace `owner.attr` by a recording wrapper until `uninstall`.

        `note(args, kwargs, result)` may return a dict stored on the span.
        """
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self):
        """Per span name: call count, total and self seconds."""
        acc = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            row = acc.setdefault(rec[0], {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += rec[2] - rec[1]
            row["self_s"] += self_s
        return acc

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, (rec, self_s) in enumerate(zip(self.spans,
                                                  self.self_times())):
                name, start, end, parent, attrs = rec
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "self_s": self_s, "attrs": attrs}) + "\n")


class NullTracer:
    """Stand-in for untraced passes: `span` records nothing."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def _tape_note(pos):
    def note(args, kwargs, out):
        tape = args[pos] if len(args) > pos else kwargs.get("tape")
        return {"train": tape is not None}
    return note


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def install(tracer, trackstore, maneuvers, model, nnkernel, evaluation):
    """Wrap every program function the per-layer metrics are read from."""
    w = tracer.wrap
    w(trackstore, "parse_trajectories", "trackstore.parse_trajectories")
    w(trackstore, "select_neighbors", "trackstore.select_neighbors")
    w(trackstore, "build_samples", "trackstore.build_samples",
      lambda a, k, out: {"built": len(out[0]), "skipped": out[1]})
    w(maneuvers, "label", "maneuvers.label")
    w(trackstore, "write_samples_binary", "trackstore.write_samples_binary",
      _file_bytes)
    w(trackstore, "read_samples_binary", "trackstore.read_samples_binary",
      _file_bytes)
    w(nnkernel, "load_checkpoint", "nnkernel.load_checkpoint")
    w(nnkernel, "adam_step", "nnkernel.adam_step")
    w(nnkernel.Tape, "backward", "nnkernel.Tape.backward",
      lambda a, k, out: {"ops": len(a[0])})
    w(model, "predict_multimodal", "model.predict_multimodal")
    w(model, "encode", "model.encode", _tape_note(3))
    w(model, "decode_raw", "model.decode_raw", _tape_note(4))
    w(model, "classify_logits", "model.classify_logits", _tape_note(3))
    w(model, "nll_loss", "model.nll_loss")
    w(evaluation, "classify_batch", "evaluation.classify_batch")
    w(evaluation, "predict_points_model", "evaluation.predict_points_model")
    w(evaluation, "rmse_table", "evaluation.rmse_table")
    w(evaluation, "dist_to_dict", "evaluation.dist_to_dict")
    w(evaluation, "mixture_density_grid", "evaluation.mixture_density_grid")
    # evaluation imports the baseline function by name; wrap that binding
    w(evaluation, "cv_filter_predict", "baseline.cv_filter_predict")


def layer_metrics(tracer, rows_parsed, pickle_bytes):
    """Per-layer figures from the spans of one traced pass.

    Times are inclusive span durations; `Tracer.summary` has self times.
    A figure whose spans are missing is None.
    """
    spans = tracer.spans
    groups = {}
    for rec in spans:
        groups.setdefault(rec[0], []).append(rec)

    def parent(rec):
        return spans[rec[3]][0] if rec[3] >= 0 else ""

    def pick(name, where=None):
        return [r for r in groups.get(name, ()) if where is None or where(r)]

    def total(recs):
        return sum(r[2] - r[1] for r in recs)

    def mean(recs, scale):
        return total(recs) / len(recs) * scale if recs else None

    def ratio(num, den):
        return num / den if den else None

    def train(r):
        return r[4]["train"]

    def infer(r):
        return not r[4]["train"] and parent(r) == "model.predict_multimodal"

    out = {}
    out["trackstore.parse_trajectories.rows_per_s"] = ratio(
        rows_parsed, total(pick("trackstore.parse_trajectories")))
    out["trackstore.select_neighbors.us_per_call"] = mean(
        pick("trackstore.select_neighbors"), 1e6)
    builds = pick("trackstore.build_samples")
    for scene in ("sparse", "dense"):
        recs = [r for r in builds if parent(r) == "bench.ingest." + scene]
        out["trackstore.build_samples.us_per_sample." + scene] = ratio(
            total(recs) * 1e6, sum(r[4]["built"] for r in recs))
    built = sum(r[4]["built"] for r in builds)
    out["trackstore.build_samples.useful_ratio"] = ratio(
        built, built + sum(r[4]["skipped"] for r in builds))
    out["maneuvers.label.us_per_call"] = mean(pick("maneuvers.label"), 1e6)
    for fn in ("write_samples_binary", "read_samples_binary"):
        recs = pick("trackstore." + fn)
        out[f"trackstore.{fn}.MB_per_s"] = ratio(
            sum(r[4]["bytes"] for r in recs) / 1e6, total(recs))
    out["nnkernel.load_checkpoint.ms"] = mean(
        pick("nnkernel.load_checkpoint"), 1e3)
    for fn in ("encode", "decode_raw", "classify_logits"):
        out[f"model.{fn}.train_ms_per_step"] = mean(
            pick("model." + fn, train), 1e3)
        out[f"model.{fn}.infer_ms_per_call"] = mean(
            pick("model." + fn, infer), 1e3)
    out["model.decode_raw.calls_per_prediction"] = ratio(
        len(pick("model.decode_raw", infer)),
        len(pick("model.predict_multimodal")))
    out["model.nll_loss.ms_per_step"] = mean(pick("model.nll_loss"), 1e3)
    backs = pick("nnkernel.Tape.backward")
    out["nnkernel.Tape.backward.ms_per_step"] = mean(backs, 1e3)
    out["nnkernel.tape_ops_per_step"] = ratio(
        sum(r[4]["ops"] for r in backs), len(backs))
    out["nnkernel.adam_step.ms_per_step"] = mean(
        pick("nnkernel.adam_step"), 1e3)
    out["cli.predict.pickle_bytes_per_sample"] = pickle_bytes
    for fn in ("classify_batch", "predict_points_model", "rmse_table",
               "mixture_density_grid"):
        out[f"evaluation.{fn}.ms"] = mean(pick("evaluation." + fn), 1e3)
    out["baseline.cv_filter_predict.us_per_call"] = mean(
        pick("baseline.cv_filter_predict"), 1e6)
    out["evaluation.dist_to_dict.us_per_call"] = mean(
        pick("evaluation.dist_to_dict"), 1e6)
    return out
