"""Shared builders for the test suite: the four bundled fixture scenarios
built programmatically (so tests can vary mode and discount), plus seeded
random generators for the property suites.

``random_interval`` is not shared with ``perfbench/scenarios.py``'s
``scenario_document``, although both draw similar bids. The benchmark's
generator complements the bid counts of each pair of intervals and chains
each end level to the targets the previous level can reach, so the two
differ draw for draw. Merging them would change every seeded test here and
every recorded benchmark scenario.
"""

from __future__ import annotations

import numpy as np

from artifact.model import (
    GeneratorBid,
    IntervalSpec,
    LoadBid,
    Scenario,
    StorageSpec,
    TimeGrid,
    ValueBucket,
    ValueLedger,
)

STORAGE = StorageSpec(capacity=2.5, initial_energy=0.0)


def interval(utilities, load_caps, costs, gen_caps, end_level,
             penalty_price=None, n_periods=1, delta_t=1.0) -> IntervalSpec:
    """One interval with a single load ``l1`` and generators ``g1``..``gN``.

    ``utilities``/``load_caps`` are per-period sequences for the load;
    ``costs``/``gen_caps`` are sequences of per-period sequences, one per
    generator.
    """
    grid = TimeGrid(n_periods=n_periods, delta_t=delta_t)
    loads = (LoadBid("l1", tuple(utilities), tuple(load_caps)),)
    gens = tuple(
        GeneratorBid(f"g{i + 1}", tuple(c), tuple(p))
        for i, (c, p) in enumerate(zip(costs, gen_caps))
    )
    return IntervalSpec(grid, loads, gens, end_level, penalty_price)


def table1_scenario(mode: str) -> Scenario:
    """Two intervals, two generators; storage charges 1 MWh then returns it."""
    return Scenario(STORAGE, (
        interval([12.0], [0.0], [[5.0], [10.0]], [[2.0], [2.0]], 1.0, 2.0),
        interval([12.0], [3.0], [[2.0], [9.0]], [[2.0], [2.0]], 0.0, 0.0),
    ), mode)


def table4_scenario(mode: str) -> Scenario:
    """Three intervals, one generator each; the stored energy is only
    profitable because of the final interval."""
    return Scenario(STORAGE, (
        interval([5.0], [1.0], [[5.0]], [[4.0]], 2.5),
        interval([4.0], [3.0], [[3.0]], [[6.0]], 0.0),
        interval([10.0], [3.0], [[9.0]], [[1.0]], 0.0),
    ), mode)


def table5_scenario(mode: str, discount_rate: float = 0.0) -> Scenario:
    """Six intervals alternating charge/discharge targets; generation cost
    varies so the first stored energy is overpriced for later resale."""
    costs = (20.0, 15.0, 1.0, 15.0, 1.0, 21.0)
    ends = (2.5, 0.0, 2.5, 0.0, 2.5, 0.0)
    return Scenario(STORAGE, tuple(
        interval([25.0], [10.0], [[c]], [[15.0]], e)
        for c, e in zip(costs, ends)
    ), mode, discount_rate=discount_rate)


def table6_scenario(mode: str) -> Scenario:
    """Two intervals of three periods each; exercises multi-period intervals,
    negative intra-storage levels, and price multiplicity."""
    return Scenario(STORAGE, (
        interval([0.0, 5.0, 6.0], [0.0, 1.0, 2.0],
                 [[0.0, 2.0, 0.0]], [[1.0, 2.5, 0.0]], 0.5, n_periods=3),
        interval([4.0, 0.0, 7.0], [2.5, 0.0, 4.0],
                 [[3.0, 2.0, 3.0]], [[2.0, 1.0, 5.5]], 2.5, n_periods=3),
    ), mode)


ALL_TABLE_SCENARIOS = {
    "table1": table1_scenario,
    "table4": table4_scenario,
    "table6": table6_scenario,
}


# ---------------------------------------------------------------------------
# randomized instances for the property suites
# ---------------------------------------------------------------------------


def random_interval(rng: np.random.Generator, capacity: float,
                    max_periods: int = 4, penalty: bool = False,
                    end_level: float | None = None,
                    n_periods: int | None = None,
                    delta_t: float | None = None) -> IntervalSpec:
    T = int(n_periods if n_periods is not None
            else rng.integers(1, max_periods + 1))
    dt = float(delta_t if delta_t is not None else rng.choice([0.5, 1.0]))
    grid = TimeGrid(T, dt)
    n_loads = int(rng.integers(1, 3))
    n_gens = int(rng.integers(1, 3))
    loads = tuple(
        LoadBid(f"l{j + 1}",
                tuple(float(u) for u in rng.uniform(0.0, 12.0, T)),
                tuple(float(q) for q in rng.uniform(0.0, 4.0, T)))
        for j in range(n_loads)
    )
    gens = tuple(
        GeneratorBid(f"g{j + 1}",
                     tuple(float(c) for c in rng.uniform(0.5, 12.0, T)),
                     tuple(float(q) for q in rng.uniform(0.0, 4.0, T)))
        for j in range(n_gens)
    )
    if end_level is None:
        # keep the target well inside what the generators can charge
        room = min(capacity, sum(min(g.max_quantity) for g in gens) * dt * T)
        end_level = 0.0 if rng.random() < 0.5 else float(
            rng.uniform(0.0, 0.5 * room))
    pen = float(rng.uniform(0.0, 8.0)) if penalty else None
    return IntervalSpec(grid, loads, gens, float(end_level), pen)


def random_ledger(rng: np.random.Generator, capacity: float,
                  max_buckets: int = 3, birth_range: tuple[int, int] = (1, 3),
                  ) -> ValueLedger:
    k = int(rng.integers(0, max_buckets + 1))
    if k == 0:
        return ValueLedger()
    quantities = rng.uniform(0.05, 1.0, k)
    quantities *= min(1.0, 0.9 * capacity / quantities.sum())
    buckets = [
        ValueBucket(price=float(rng.uniform(0.5, 12.0)),
                    quantity=float(q),
                    birth_interval=int(rng.integers(birth_range[0],
                                                    birth_range[1] + 1)))
        for q in quantities
    ]
    return ValueLedger.from_buckets(buckets)


def random_vlb_scenario(rng: np.random.Generator,
                        n_intervals: int | None = None,
                        max_periods: int = 3) -> Scenario:
    capacity = float(rng.uniform(0.5, 3.0))
    storage = StorageSpec(capacity=capacity, initial_energy=0.0)
    n = int(n_intervals if n_intervals is not None else rng.integers(2, 4))
    dt = float(rng.choice([0.5, 1.0]))
    intervals = []
    for i in range(n):
        end = 0.0 if i == n - 1 else None
        intervals.append(random_interval(
            rng, capacity, max_periods=max_periods, penalty=True,
            end_level=end, delta_t=dt))
    return Scenario(storage, tuple(intervals), "vlb")
