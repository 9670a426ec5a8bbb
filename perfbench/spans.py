"""In-memory spans around the program's layer functions.

The benchmark records spans from its own files: while a ``Tracer`` is
installed, each layer function is replaced, under the module attribute its
callers look it up by, with a wrapper that records one span per call. Spans
stay in a list until the run ends; ``layer_metrics`` turns them into
per-layer calls, self times and counts.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import artifact.cli
import artifact.clearing
import artifact.lp
import artifact.metrics
import artifact.model
import artifact.runner
import artifact.storage_ledger

# (module, attribute, span name). A function that several callers reach
# through different modules is wrapped in each of them under one span name.
PATCH_POINTS = (
    (artifact.lp, "solve", "lp.solve"),
    (artifact.lp, "check_certificates", "lp.check_certificates"),
    (artifact.lp, "dual_range", "lp.dual_range"),
    (artifact.clearing, "clear_ideal", "clearing.clear_ideal"),
    (artifact.clearing, "clear_split", "clearing.clear_split"),
    (artifact.clearing, "clear_split_penalty", "clearing.clear_split_penalty"),
    (artifact.clearing, "clear_vlb", "clearing.clear_vlb"),
    (artifact.runner, "update_ledger", "storage_ledger.update_ledger"),
    (artifact.runner, "apply_discount", "storage_ledger.apply_discount"),
    (artifact.storage_ledger, "assign_charge_values",
     "storage_ledger.assign_charge_values"),
    (artifact.storage_ledger, "remove_simultaneous",
     "storage_ledger.remove_simultaneous"),
    (artifact.cli, "run_scenario", "runner.run_scenario"),
    (artifact.cli, "participant_surpluses", "metrics.participant_surpluses"),
    (artifact.cli, "cost_recovery_audit", "metrics.cost_recovery_audit"),
    (artifact.cli, "social_welfare", "metrics.social_welfare"),
    (artifact.metrics, "participant_surpluses",
     "metrics.participant_surpluses"),
    (artifact.metrics, "social_welfare", "metrics.social_welfare"),
    (artifact.cli, "compare", "cli.compare"),
    (artifact.cli, "emit", "cli.emit"),
    (artifact.model, "parse_scenario", "model.parse_scenario"),
)

# what a span keeps of its call, taken after the span has ended
_INFO = {
    "lp.solve": lambda args, out: (args[0].n_constraints,
                                   args[0].n_variables),
    "lp.dual_range": lambda args, out: out[1] - out[0] <= 1e-9,
    "storage_ledger.remove_simultaneous": lambda args, out: out is not args[0],
    "storage_ledger.update_ledger": lambda args, out: len(out.buckets),
    "cli.emit": lambda args, out: len(out.encode()),
}

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Spans of one run: ``[name, start, end, parent index, op id, info]``,
    with parent -1 for a top-level span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            if info is not None:
                record[INFO] = info(args, out)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block. A point the
        program no longer has raises AttributeError."""
        saved = []
        try:
            for module, attr, name in PATCH_POINTS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-op calls and self seconds of every layer, plus the counts and
    ratios the benchmark names (see BENCHMARK.json's ``per_layer``).

    A span's self time is its duration minus the durations of its children.
    ``lp.solve`` spans whose parent is ``lp.dual_range`` are face solves and
    are counted apart from the other solves.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    face_solves, face_solve_s = 0, 0.0
    rows, cols = [], []
    ranges = collapsed = ledger_calls = changed = 0
    buckets_max = 0
    report_bytes = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        if (name == "lp.solve" and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == "lp.dual_range"):
            face_solves += 1
            face_solve_s += s[END] - s[START]
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s[END] - s[START] - child[i]
        info = s[INFO]
        if info is None:
            continue
        if name == "lp.solve":
            rows.append(info[0])
            cols.append(info[1])
        elif name == "lp.dual_range":
            ranges += 1
            collapsed += info
        elif name == "storage_ledger.remove_simultaneous":
            ledger_calls += 1
            changed += info
        elif name == "storage_ledger.update_ledger":
            buckets_max = max(buckets_max, info)
        elif name == "cli.emit":
            report_bytes += info

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    out = {
        "lp.dual_range.calls": per_op(calls, "lp.dual_range"),
        "lp.dual_range.self_s": per_op(self_s, "lp.dual_range"),
        "lp.dual_range.face_solves": face_solves / n_ops,
        "lp.dual_range.face_solve_s": face_solve_s / n_ops,
        "lp.dual_range.collapsed_frac": collapsed / ranges if ranges else 0.0,
        "lp.solve.calls": per_op(calls, "lp.solve"),
        "lp.solve.self_s": per_op(self_s, "lp.solve"),
        "lp.solve.rows_mean": sum(rows) / len(rows) if rows else 0.0,
        "lp.solve.rows_max": float(max(rows, default=0)),
        "lp.solve.cols_mean": sum(cols) / len(cols) if cols else 0.0,
        "lp.check_certificates.calls": per_op(calls, "lp.check_certificates"),
        "lp.check_certificates.self_s": per_op(self_s,
                                               "lp.check_certificates"),
    }
    clear_calls = 0
    for mode in ("ideal", "split", "split_penalty", "vlb"):
        name = f"clearing.clear_{mode}"
        out[f"{name}.self_s"] = per_op(self_s, name)
        clear_calls += calls.get(name, 0)
    out["clearing.calls"] = clear_calls / n_ops
    for fn in ("update_ledger", "assign_charge_values", "remove_simultaneous",
               "apply_discount"):
        name = f"storage_ledger.{fn}"
        out[f"{name}.calls"] = per_op(calls, name)
        out[f"{name}.self_s"] = per_op(self_s, name)
    out["storage_ledger.remove_simultaneous.changed_frac"] = (
        changed / ledger_calls if ledger_calls else 0.0)
    out["storage_ledger.buckets_max"] = float(buckets_max)
    for name in ("runner.run_scenario", "metrics.participant_surpluses",
                 "metrics.cost_recovery_audit", "metrics.social_welfare",
                 "cli.compare", "cli.emit", "model.parse_scenario"):
        out[f"{name}.self_s"] = per_op(self_s, name)
    out["cli.report_bytes"] = report_bytes / n_ops
    return out
