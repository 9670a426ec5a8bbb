"""``vlb`` price ranges are exact scenario prices.

A ``vlb`` clearing is ranged on the optimal dual face: the duals
complementary to its optimal primal. The face's rows are bid prices and its
bounds zeros, so every finite endpoint is, up to rounding, a utility or a
cost of its interval, a price in the ledger it was cleared against, or 0.
"""

from __future__ import annotations

import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from artifact.cli import FIXTURE_NAMES
from artifact.model import parse_scenario
from artifact.runner import run_scenario
from helpers import random_vlb_scenario

# how far, in units in the last place of the price, an endpoint may round
ULPS = 16
SCENARIOS = Path(__file__).resolve().parent / "scenarios"


def _prices(interval, ledger) -> list[float]:
    """The prices a ``vlb`` endpoint of ``interval`` may take."""
    prices = {0.0}
    for ld in interval.loads:
        prices.update(ld.utility)
    for g in interval.generators:
        prices.update(g.cost)
    prices.update(b.price for b in ledger.buckets)
    return sorted(prices)


def _assert_endpoints_are_prices(run) -> tuple[int, int]:
    """Check every finite endpoint of a ``vlb`` run; returns how many there
    are and how many equal a price exactly."""
    finite = exact = 0
    for res, iv in zip(run.results, run.scenario.intervals):
        prices = _prices(iv, res.ledger)
        for t, rng in enumerate(res.price_ranges):
            for end in rng:
                if math.isinf(end):
                    continue
                finite += 1
                exact += end in prices
                assert any(abs(end - p) <= ULPS * np.spacing(abs(p))
                           for p in prices), (res.lp.name, t + 1, rng)
    return finite, exact


class TestEndpointsAreScenarioPrices:
    def test_fixtures(self):
        finite = 0
        for name in FIXTURE_NAMES:
            text = (resources.files("artifact") / "fixtures"
                    / f"{name}.json").read_text()
            run = run_scenario(replace(parse_scenario(text), mode="vlb"))
            finite += _assert_endpoints_are_prices(run)[0]
        assert finite

    def test_random_vlb_scenarios(self):
        rng = np.random.default_rng(7)
        finite = exact = 0
        for _ in range(300):
            got = _assert_endpoints_are_prices(
                run_scenario(random_vlb_scenario(rng)))
            finite, exact = finite + got[0], exact + got[1]
        assert finite > 2000
        # rounding is rare: nearly every endpoint is the price itself
        assert exact >= 0.99 * finite


def _first_interval_ranges(name: str):
    """The pinned scenario document ``name``, cleared under ``vlb``: the
    scenario and its first interval's price ranges."""
    scn = parse_scenario((SCENARIOS / name).read_text())
    run = run_scenario(replace(scn, mode="vlb"))
    return scn, run.results[0].price_ranges


class TestIllConditionedClearings:
    """Two ``perfbench`` ``day_ranges`` scenarios whose ``vlb`` low ends sat
    1e-9 to 5e-9 off the bid that sets them while the face carried a
    strong-duality row."""

    def test_seed_605_scenario_13(self):
        scn, ranges = _first_interval_ranges("day_ranges_605_13.json")
        g1 = next(g for g in scn.intervals[0].generators if g.id == "g1")
        assert g1.cost[10] == 11.099357591838995
        for t in (8, 9, 10):
            assert ranges[t - 1][0] == g1.cost[10], t

    def test_seed_710_scenario_31(self):
        scn, ranges = _first_interval_ranges("day_ranges_710_31.json")
        l1 = next(ld for ld in scn.intervals[0].loads if ld.id == "l1")
        assert l1.utility[8] == 5.476730728507542
        assert ranges[9][0] == l1.utility[8]

