"""Closed-loop clearing benchmark: one client, one op at a time.

One op is one scenario taken through the public path behind
``artifact --scenario F --compare ... --format structured``, without argument
parsing and the file write: ``model.parse_scenario``, ``cli.compare`` and
``cli.emit(report, "structured")`` (``scenarios.run_op``). The next op
starts only after the previous report has been emitted and its
certificates checked again.

``--trace 0`` measures the end-to-end metrics with no spans installed.
``--trace 1`` alternates untraced and traced passes over a fixed list of ops
and reports per-op layer metrics from the spans, so its counts repeat exactly
for a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy
import scipy

import gate
import scenarios
import spans

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench")
# cold set-ups per run, each in a fresh interpreter; setup_s is their median
SETUP_RUNS = 11
# unrecorded ops per run checked against the HiGHS model after the
# measurement; bounds the gate's time when the program gets faster and a
# run takes more ops than reference.json holds
ORACLE_OPS = 50

# per-layer metric prefix -> (end-to-end metric it should move, workload);
# written down before measuring, printed beside the traced figures
PREDICTIONS = {
    "lp.dual_range": ("periods_per_s, scenario_p50_s",
                      "day_ranges; zero calls on week_horizon"),
    "lp.solve": ("periods_per_s",
                 "week_horizon (one large LP), day_ranges (small LPs)"),
    "lp.check_certificates": ("periods_per_s", "day_ranges"),
    "clearing": ("periods_per_s", "day_ranges"),
    "storage_ledger": ("periods_per_s", "day_ranges"),
    "runner": ("scenario_p50_s", "day_ranges"),
    "metrics": ("scenario_p50_s", "day_ranges"),
    "cli": ("scenario_p50_s", "day_ranges, week_horizon"),
    "model": ("setup_s", "all"),
    "trace": ("none", "all"),
    "check": ("none (informational)", "all"),
}

UNITS = {"calls": "1/op", "face_solves": "1/op", "self_s": "s/op",
         "face_solve_s": "s/op", "collapsed_frac": "ratio",
         "changed_frac": "ratio", "overhead_frac": "ratio",
         "rows_mean": "rows", "rows_max": "rows", "cols_mean": "columns",
         "buckets_max": "count", "report_bytes": "B/op",
         "digest_changed": "count"}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


@dataclass
class Tally:
    """Outcome of every op a run attempted, and what the gate saw."""

    shape: scenarios.Shape
    attempted: int = 0
    failed: int = 0
    recorded: int = 0
    oracle: int = 0
    digest_changed: int = 0
    unchecked: int = 0
    # stream index -> gate.observe record of each gated op that passed
    # checks (a) and (b); checks (c) and (d) wait for finish(), which draws
    # the scenario texts again so the run does not hold them
    observed: dict = field(default_factory=dict)

    def attempt(self, text: str, index: int, gated: bool = True,
                expect_digest: str | None = None):
        """Run the op on ``text``, the scenario at ``index`` in the seed's
        stream; return its wall seconds and its report digest (None when it
        failed). Checks (a) and (b) run after the clock stops."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            _, report, document = scenarios.run_op(self.shape, text)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return elapsed, None
        elapsed = time.perf_counter() - start
        digest = gate.sha256(document)
        problems = []
        if gated:
            try:
                problems = gate.check_report(self.shape.modes, report)
                if not problems:
                    self.observed[index] = gate.observe(report, document)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                problems = ["the gate could not check this report"]
        if expect_digest is not None and digest != expect_digest:
            problems.append("report differs from the same op's untraced "
                            "report")
        if problems:
            self._reject(index, problems)
            return elapsed, None
        return elapsed, digest

    def finish(self, stream) -> int:
        """Checks (c) and (d) on every op ``attempt`` observed, once the
        measurement is over; ``stream`` is a fresh stream of the seed's
        scenarios. Returns how many ops the checks rejected."""
        reference = gate.load_reference()
        rejected = 0
        for index, text in enumerate(islice(stream, max(self.observed,
                                                        default=-1) + 1)):
            observation = self.observed.get(index)
            if observation is None:
                continue
            try:
                result = gate.check_ideal(text, observation, reference,
                                          oracle=self.oracle < ORACLE_OPS)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = gate.IdealCheck(["the gate could not check this "
                                          "report"], None)
            self.recorded += result.source == "recorded"
            self.oracle += result.source == "oracle"
            self.unchecked += result.source is None and not result.problems
            self.digest_changed += result.digest_changed
            if result.problems:
                self._reject(index, result.problems)
                rejected += 1
        return rejected

    def _reject(self, index: int, problems: list[str]) -> None:
        self.failed += 1
        print(f"op on scenario {index} rejected: " + "; ".join(problems),
              file=sys.stderr)


def cold_setup_s(workload: str, seed: int) -> float:
    """Median seconds of SETUP_RUNS cold set-ups, each in a fresh
    interpreter (see cold_setup.py)."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(HERE / "cold_setup.py"), workload,
             str(seed)], capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def warm_up(shape: scenarios.Shape, seed: int) -> None:
    """One untimed op on the warm-up scenario, so the first timed op does
    not pay this process's first-call costs."""
    scenarios.run_op(shape, next(scenarios.scenario_stream(shape.warmup(),
                                                           seed)))


def measure(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """End-to-end metrics: ops drawn from the seed's stream until their
    summed wall time reaches ``seconds``."""
    shape = scenarios.WORKLOADS[workload]
    setup_s = cold_setup_s(workload, seed)
    warm_up(shape, seed)
    tally = Tally(shape)
    times, cleared = [], 0
    stream = enumerate(scenarios.scenario_stream(shape, seed))
    while sum(times) < seconds:
        index, text = next(stream)
        elapsed, digest = tally.attempt(text, index)
        times.append(elapsed)
        cleared += digest is not None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cleared -= tally.finish(scenarios.scenario_stream(shape, seed))
    metrics = {
        "periods_per_s": (cleared * shape.mode_periods / sum(times),
                          "periods/s"),
        "scenario_p50_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return tally, metrics


def trace(workload: str, seed: int,
          seconds: float) -> tuple[Tally, dict, spans.Tracer, float]:
    """Per-layer metrics over ``shape.trace_ops`` ops of the seed's stream.

    Each round runs every op untraced and then, right after, traced, so
    drifts in machine speed hit both alike; rounds repeat while another one
    fits in ``seconds``. Only the first untraced run of each op is gated;
    every later run must reproduce its report byte for byte.
    """
    shape = scenarios.WORKLOADS[workload]
    warm_up(shape, seed)
    texts = list(islice(scenarios.scenario_stream(shape, seed),
                        shape.trace_ops))
    tally = Tally(shape)
    tracer = spans.Tracer()
    digests: list[str | None] = []
    plain = traced = 0.0
    rounds = 0
    while rounds == 0 or (plain + traced) * (rounds + 1) / rounds <= seconds:
        for i, text in enumerate(texts):
            if rounds == 0:
                elapsed, digest = tally.attempt(text, i)
                digests.append(digest)
            else:
                elapsed, _ = tally.attempt(text, i, gated=False,
                                           expect_digest=digests[i])
            plain += elapsed
            with tracer.installed():
                tracer.op = rounds * len(texts) + i
                with tracer.span("op"):
                    elapsed, _ = tally.attempt(text, i, gated=False,
                                               expect_digest=digests[i])
            traced += elapsed
        rounds += 1
    tally.finish(iter(texts))
    n_ops = rounds * len(texts)
    metrics = spans.layer_metrics(tracer.spans, n_ops)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["check.digest_changed"] = float(tally.digest_changed)
    return tally, {k: (v, unit_of(k)) for k, v in metrics.items()}, tracer, \
        traced / n_ops


def layer_table(metrics: dict, op_s: float) -> list[str]:
    """The per-layer figures beside the layer each is predicted to move."""
    lines = [f"{'metric':<46} {'value':>12} {'unit':<8} {'share':>6}  "
             "predicted to move (on)"]
    for name, (value, unit) in metrics.items():
        share = f"{value / op_s:6.1%}" if unit == "s/op" else ""
        moves, on = next(v for k, v in PREDICTIONS.items()
                         if name.startswith(k + "."))
        lines.append(f"{name:<46} {value:12.6g} {unit:<8} {share:>6}  "
                     f"{moves} ({on})")
    return lines


def _commit(root: Path) -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """Where and on what a result was measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": _commit(root),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_THREADS")},
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv) -> int:
    args = _parser().parse_args(argv)
    print("env " + json.dumps(environment(Path.cwd()), sort_keys=True),
          flush=True)
    if args.trace:
        tally, metrics, tracer, op_s = trace(args.workload, args.seed,
                                             args.seconds)
        for line in layer_table(metrics, op_s):
            print(line)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json").write_text(
            json.dumps(tracer.spans))
    else:
        tally, metrics = measure(args.workload, args.seed, args.seconds)
    print(f"gate: {tally.attempted} ops, {tally.failed} failed, "
          f"{tally.recorded} checked against reference.json, {tally.oracle} "
          f"against HiGHS, {tally.unchecked} not checked against either, "
          f"{tally.digest_changed} report digests changed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0
