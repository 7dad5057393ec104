"""Span recording around the calls into each dfl module.

The wrappers live here, in the benchmark, not in the program: installing
them rebinds the traced functions and methods in every ``dfl`` module
namespace that holds them, and uninstalling restores the originals, so
untraced ops run the program exactly as shipped.  Spans are kept in
memory as (name, start, end, parent, op) tuples and written out once,
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import dfl.analysis as analysis
import dfl.autodiff as autodiff
import dfl.cli as cli
import dfl.logic as logic
import dfl.operators as operators
import dfl.oracle as oracle
import dfl.trainer as trainer
import dfl.valuation as valuation

# name, unit, better, and the end-to-end metric each per-layer metric is
# expected to move, on which workload.  BENCHMARK.json lists the same
# names and units; later changes cite them from here.
LAYER_METRICS = [
    ("trainer.step_self_s", "s", "lower",
     "op_p50_s and work_per_s on train only (pair BCE, sampling, "
     "cross-entropy, atom->dP/dZ chaining)"),
    ("trainer.model_backward_s", "s", "lower", "op_p50_s on train only"),
    ("trainer.evaluate_s", "s", "lower", "op_p50_s on train only"),
    ("cli.main_self_s", "s", "lower",
     "op_p50_s on train only (config parsing, CSV and manifest writing)"),
    ("valuation.build_grounding_s", "s", "lower",
     "op_p50_s on train and valuate_wide"),
    ("valuation.build_grounding_calls", "count", "lower",
     "op_p50_s on train and valuate_wide"),
    ("valuation.forward_s", "s", "lower",
     "op_p50_s on train and valuate_wide"),
    ("valuation.instances", "count", "higher",
     "exact work count; repeats exactly across runs"),
    ("valuation.forward_us_per_instance", "us", "lower",
     "op_p50_s on train and valuate_wide"),
    ("autodiff.backward_s", "s", "lower", "op_p50_s on train and valuate_wide"),
    ("autodiff.backward_calls", "count", "lower",
     "op_p50_s on train and valuate_wide"),
    ("autodiff.tape_nodes", "count", "lower",
     "op_p50_s on train and valuate_wide; peak_rss_mb on valuate_wide"),
    ("operators.kernel_calls", "count", "lower",
     "op_p50_s on train and valuate_wide"),
    ("operators.property_audit_s", "s", "lower", "op_p50_s on audit"),
    ("analysis.gradient_quality_s", "s", "lower",
     "op_p50_s on valuate_wide and, less, train"),
    ("analysis.single_passing_s", "s", "lower", "op_p50_s on audit"),
    ("analysis.fractions_s", "s", "lower", "op_p50_s and work_per_s on audit"),
    ("analysis.fraction_samples_per_s", "1/s", "higher",
     "work_per_s on audit"),
    ("oracle.semantic_probability_s", "s", "lower", "op_p50_s on oracle"),
    ("oracle.dpfl_valuation_s", "s", "lower", "op_p50_s on oracle"),
    ("oracle.worlds", "count", "higher",
     "exact work count (2^atoms per enumeration); repeats exactly"),
    ("oracle.us_per_world", "us", "lower", "op_p50_s and work_per_s on oracle"),
    ("logic.parse_kb_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced op_p50_s over untraced op_p50_s, minus 1"),
]

_KERNEL_METHODS = ("tnorm_kernel", "tconorm_kernel", "implication_kernel",
                   "aggregate_kernel")


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.  ``spans`` is a list of
    (name, start, end, parent, op) with ``parent`` an index or -1."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counts for the traced ops of one run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1  # -1 while setting up, else the index of the op
        self._stack: list = []
        self._patches: list = []

    def _span(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counts, *args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement):
        """Replace ``original`` wherever a dfl module binds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dfl" and not mod_name.startswith("dfl."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _rebind_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        def count_instances(counts, kb, g, *args, **kwargs):
            b = len(g.batch)
            counts["instances"] += sum(b ** logic.quantifier_rank(f)
                                       for f in kb.formulas())

        def count_worlds(counts, kb, probs, batch, *args, **kwargs):
            atoms = len(oracle.occurrence_census(kb, batch).counts)
            counts["worlds"] += 2 ** atoms

        def count_samples(counts, desc, n, samples, *args, **kwargs):
            counts["fraction_samples"] += samples

        def count_nodes(counts, tape, root, *args, **kwargs):
            # the reverse sweep visits every index from the root down to 0
            counts["tape_nodes"] += root.idx + 1

        functions = [
            ("cli.main", cli.main, None),
            ("trainer.make_task", trainer.make_task, None),
            ("trainer.semi_supervised_train", trainer.semi_supervised_train,
             None),
            ("trainer.evaluate", trainer.evaluate, None),
            ("valuation.build_grounding", valuation.build_grounding, None),
            ("valuation.dfl_loss", valuation.dfl_loss, count_instances),
            ("analysis.gradient_quality", analysis.gradient_quality, None),
            ("analysis.single_passing_audit", analysis.single_passing_audit,
             None),
            ("analysis.estimate_nonvanishing_fraction",
             analysis.estimate_nonvanishing_fraction, count_samples),
            ("operators.property_audit", operators.property_audit, None),
            ("oracle.equivalence_report", oracle.equivalence_report, None),
            ("oracle.semantic_probability", oracle.semantic_probability,
             count_worlds),
            ("oracle.dpfl_valuation", oracle.dpfl_valuation, None),
            ("logic.parse_kb", logic.parse_kb, None),
        ]
        for name, fn, count in functions:
            self._rebind(fn, self._span(name, fn, count))
        methods = [
            ("autodiff.backward", autodiff.Tape, "backward", count_nodes),
            ("trainer.class_backward", trainer.TinyModel, "class_backward",
             None),
            ("trainer.same_backward", trainer.TinyModel, "same_backward", None),
        ]
        for name, cls, attr, count in methods:
            self._rebind_method(cls, attr,
                                self._span(name, vars(cls)[attr], count))
        for attr in _KERNEL_METHODS:
            cls = operators.OperatorConfig
            self._rebind_method(cls, attr,
                                self._counter("kernel_calls", vars(cls)[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, traced_ops: int, overhead_frac: float):
    """Per-layer metrics from the spans of ``traced_ops`` traced ops.

    Times and counts are per traced op; ``logic.parse_kb_s`` is the
    parse time of the traced set-up, which runs before the first op.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    total = Counter()
    own = Counter()
    for span, self_s in zip(spans, selfs):
        name, start, end, _, op = span
        key = name if op >= 0 else "setup:" + name
        total[key] += end - start
        own[key] += self_s
        total["calls:" + key] += 1
    ops = max(traced_ops, 1)
    counts = tracer.counts

    def per_op(value):
        return value / ops

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    values = {
        "trainer.step_self_s": per_op(own["trainer.semi_supervised_train"]),
        "trainer.model_backward_s": per_op(total["trainer.class_backward"]
                                           + total["trainer.same_backward"]),
        "trainer.evaluate_s": per_op(total["trainer.evaluate"]),
        "cli.main_self_s": per_op(own["cli.main"]),
        "valuation.build_grounding_s": per_op(
            total["valuation.build_grounding"]),
        "valuation.build_grounding_calls": per_op(
            total["calls:valuation.build_grounding"]),
        "valuation.forward_s": per_op(total["valuation.dfl_loss"]),
        "valuation.instances": per_op(counts["instances"]),
        "valuation.forward_us_per_instance": 1e6 * rate(
            total["valuation.dfl_loss"], counts["instances"]),
        "autodiff.backward_s": per_op(total["autodiff.backward"]),
        "autodiff.backward_calls": per_op(total["calls:autodiff.backward"]),
        "autodiff.tape_nodes": per_op(counts["tape_nodes"]),
        "operators.kernel_calls": per_op(counts["kernel_calls"]),
        "operators.property_audit_s": per_op(
            total["operators.property_audit"]),
        "analysis.gradient_quality_s": per_op(
            total["analysis.gradient_quality"]),
        "analysis.single_passing_s": per_op(
            total["analysis.single_passing_audit"]),
        "analysis.fractions_s": per_op(
            total["analysis.estimate_nonvanishing_fraction"]),
        "analysis.fraction_samples_per_s": rate(
            counts["fraction_samples"],
            total["analysis.estimate_nonvanishing_fraction"]),
        "oracle.semantic_probability_s": per_op(
            total["oracle.semantic_probability"]),
        "oracle.dpfl_valuation_s": per_op(total["oracle.dpfl_valuation"]),
        "oracle.worlds": per_op(counts["worlds"]),
        "oracle.us_per_world": 1e6 * rate(total["oracle.semantic_probability"],
                                          counts["worlds"]),
        "logic.parse_kb_s": float(total["setup:logic.parse_kb"]),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in LAYER_METRICS}
