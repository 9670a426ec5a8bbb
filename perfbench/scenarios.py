"""Seeded scenario generator for the clearing benchmark.

Scenarios come from the same shape family as the test suite's
``random_interval``: hourly periods, one or two elastic loads and one or two
generators per interval with random per-period prices and quantities, and a
penalty price on every interval.

Two choices keep the op-to-op spread small enough to measure with a few ops
per run, without filtering any instance:

* Bid counts are drawn per pair of intervals: the second interval of a pair
  gets the complement (3 - n) of the first one's load and generator counts,
  so every scenario of a shape has the same number of bid columns.
* End-level targets are chained so each is reachable from the one before it
  by charging from the generators or discharging into the loads (at most
  half of either room). As in the family, half the intermediate targets
  are as low as they can be (zero unless the loads cannot absorb that
  much), and the other half are drawn between the reachable ends. The final target is never zero: it
  is drawn from (lo, hi] every time. With an empty start and a nonzero
  final target the whole-horizon ``ideal`` LP starts infeasible and runs
  phase 1, which makes a week op about 1.8 times as long as a drained one
  (1.6-2.2 s against 0.8-1.4 s). The family draws it nonzero half the
  time; drawing it nonzero every time keeps that path in every op instead
  of splitting the ops into two clusters with a median between them.

Every mode is feasible by construction, so no instance is filtered out or
drawn again; one that still fails counts as a failed op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from artifact import cli, model

ALL_MODES = ("ideal", "split_end_level", "split_penalty", "vlb")


@dataclass(frozen=True)
class Shape:
    """What one op clears: the modes compared, how many intervals of how many
    hourly periods, whether price ranges are computed, the vlb discount rate,
    and how many ops one pass of a traced run takes."""

    modes: tuple[str, ...]
    intervals: int
    periods: int
    ranges: bool
    discount: float = 0.0
    trace_ops: int = 1

    @property
    def mode_periods(self) -> int:
        """Horizon periods times modes: the work one op clears."""
        return self.intervals * self.periods * len(self.modes)

    def warmup(self) -> "Shape":
        """The same modes, ranges and discount over two 2-period intervals."""
        return Shape(self.modes, 2, 2, self.ranges, self.discount)


# A nonzero discount makes apply_discount do work; at 0 it returns early.
WORKLOADS = {
    "day_ranges": Shape(ALL_MODES, 2, 12, ranges=True, discount=0.05,
                        trace_ops=3),
    "week_horizon": Shape(("ideal",), 7, 24, ranges=False, trace_ops=8),
}


def _series(rng: np.random.Generator, lo: float, hi: float,
            n: int) -> list[float]:
    return [float(v) for v in rng.uniform(lo, hi, n)]


def scenario_document(rng: np.random.Generator, shape: Shape) -> dict:
    """One scenario document (the JSON object ``parse_scenario`` reads)."""
    T = shape.periods
    capacity = float(rng.uniform(0.5, 3.0))
    level = 0.0
    intervals = []
    n_loads = n_gens = 0
    for i in range(shape.intervals):
        if i % 2 == 0:
            n_loads, n_gens = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        else:
            n_loads, n_gens = 3 - n_loads, 3 - n_gens
        loads = [{"id": f"l{j + 1}", "utility": _series(rng, 0.0, 12.0, T),
                  "max": _series(rng, 0.0, 4.0, T)} for j in range(n_loads)]
        gens = [{"id": f"g{j + 1}", "cost": _series(rng, 0.5, 12.0, T),
                 "max": _series(rng, 0.0, 4.0, T)} for j in range(n_gens)]
        # energy the generators can surely deliver, and the loads absorb
        charge_room = sum(min(g["max"]) for g in gens) * T
        discharge_room = sum(sum(ld["max"]) for ld in loads)
        lo = max(0.0, level - 0.5 * discharge_room)
        hi = min(capacity, level + 0.5 * charge_room)
        if i == shape.intervals - 1:
            target = hi - (hi - lo) * float(rng.random())
        elif rng.random() < 0.5:
            target = lo
        else:
            target = float(rng.uniform(lo, hi))
        intervals.append({"delta_t": 1.0, "n_periods": T, "loads": loads,
                          "generators": gens, "end_level": target,
                          "penalty_price": float(rng.uniform(0.0, 8.0))})
        level = target
    return {"storage": {"capacity": capacity, "initial_energy": 0.0},
            "mode": shape.modes[0], "discount_rate": shape.discount,
            "initial_ledger": [], "intervals": intervals}


def scenario_stream(shape: Shape, seed: int) -> Iterator[str]:
    """Endless scenario texts of ``shape``; the same seed and shape give the
    same sequence."""
    rng = np.random.default_rng([seed % 2**64, shape.intervals,
                                 shape.periods])
    while True:
        yield json.dumps(scenario_document(rng, shape), indent=2) + "\n"


def run_op(shape: Shape, text: str):
    """One op: the public path behind ``artifact --scenario F --compare ...
    --format structured`` without argument parsing and the file write.
    Layer functions are looked up on their modules at call time, so an
    installed tracer sees them."""
    scenario = model.parse_scenario(text)
    report = cli.compare(scenario, shape.modes, compute_ranges=shape.ranges)
    return scenario, report, cli.emit(report, "structured")
