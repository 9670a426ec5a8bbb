"""Clearing engines checked against hand-computed market outcomes.

Every expected number in this file was worked out on paper from the bid
data in ``helpers`` (merit-order dispatch, marginal-unit prices, and the
degenerate price ranges at dispatch ties).
"""

from __future__ import annotations

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from artifact import clearing as clearingmod
from artifact import lp as lpmod
from artifact import storage_ledger
from artifact.cli import FIXTURE_NAMES, compare
from artifact.clearing import (
    clear_ideal,
    clear_split,
    clear_split_penalty,
    clear_vlb,
    dispatch_welfare,
    slice_ideal,
)
from artifact.errors import (
    InfeasibleError,
    LpNumericalError,
    ScenarioError,
    SimultaneityError,
    ValuationError,
)
from artifact.lp import write_lp_text
from artifact.metrics import social_welfare
from artifact.model import (
    MODES,
    IntervalSpec,
    Scenario,
    StorageSpec,
    TimeGrid,
    ValueBucket,
    ValueLedger,
    parse_scenario,
    snap_zero,
)
from artifact.runner import run_scenario
from helpers import (
    STORAGE,
    interval,
    random_interval,
    random_ledger,
    table1_scenario,
    table4_scenario,
    table5_scenario,
    table6_scenario,
)

APPROX = dict(abs=1e-6)


def approx(x):
    return pytest.approx(x, **APPROX)


class TestSplitTable1:
    """Sequential clearing where each interval must hit its end level."""

    def test_first_interval_forced_charge(self):
        scn = table1_scenario("split_end_level")
        res = clear_split(scn.intervals[0], STORAGE, e_init=0.0)
        assert res.load("l1") == approx((0.0,))
        assert res.gen("g1") == approx((1.0,))
        assert res.gen("g2") == approx((0.0,))
        assert res.storage_injection == approx((1.0,))
        assert res.level == approx((1.0,))
        assert res.prices == approx((5.0,))
        lo, hi = res.price_ranges[0]
        assert (lo, hi) == approx((5.0, 5.0))
        # the charge is bought at the margin: welfare is -C1 * 1 MWh
        assert dispatch_welfare(res, scn.intervals[0]) == approx(-5.0)

    def test_second_interval_discharges(self):
        scn = table1_scenario("split_end_level")
        res = clear_split(scn.intervals[1], STORAGE, e_init=1.0)
        assert res.load("l1") == approx((3.0,))
        assert res.gen("g1") == approx((2.0,))
        assert res.gen("g2") == approx((0.0,))
        assert res.storage_injection == approx((-1.0,))
        assert res.level == approx((0.0,))
        assert res.prices == approx((2.0,))
        lo, hi = res.price_ranges[0]
        assert (lo, hi) == approx((2.0, 9.0))
        assert dispatch_welfare(res, scn.intervals[1]) == approx(32.0)

    def test_runner_chains_levels(self):
        run = run_scenario(table1_scenario("split_end_level"))
        assert [r.initial_content for r in run.results] == approx([0.0, 1.0])
        assert [r.final_content for r in run.results] == approx([1.0, 0.0])
        assert run.final_ledger is None

    def test_unreachable_end_level_is_infeasible(self):
        iv = interval([12.0], [0.0], [[5.0]], [[2.0]], end_level=9.0)
        with pytest.raises(InfeasibleError):
            clear_split(iv, StorageSpec(10.0, 0.0), e_init=0.0)


class TestInfeasibleIntervalIndex:
    """The runner names the interval that has no feasible dispatch, and the
    interval of any other error raised while clearing it or updating its
    ledger."""

    @staticmethod
    def _second_interval_unreachable(mode: str) -> Scenario:
        # interval 2 needs 9 MWh stored, but its only unit gives 2 MW for 1 h
        return Scenario(StorageSpec(10.0, 0.0), (
            interval([12.0], [1.0], [[5.0]], [[2.0]], 0.0, 2.0),
            interval([12.0], [1.0], [[5.0]], [[2.0]], 9.0, 2.0),
        ), mode)

    @pytest.mark.parametrize("mode", ["split_end_level", "vlb"])
    def test_sequential_modes_name_the_second_interval(self, mode):
        with pytest.raises(InfeasibleError) as info:
            run_scenario(self._second_interval_unreachable(mode))
        assert info.value.interval_index == 2
        assert info.value.stage == "end_level"
        assert str(info.value) == (f"{mode}[2]: no feasible dispatch "
                                   "satisfies the end_level requirement")

    def test_ideal_spans_every_interval(self):
        with pytest.raises(InfeasibleError) as info:
            run_scenario(self._second_interval_unreachable("ideal"))
        assert info.value.interval_index is None

    @staticmethod
    def _second_interval_without_generator(mode: str) -> Scenario:
        # interval 2 must end full but has no generator, and interval 1's
        # one unit gives 1 MW for 1 h: no mode reaches the final 2 MWh
        return Scenario(StorageSpec(2.0, 0.0), (
            interval([12.0], [1.0], [[5.0]], [[1.0]], 0.0, 2.0),
            interval([12.0], [1.0], [], [], 2.0, 2.0),
        ), mode)

    @pytest.mark.parametrize("mode", ["split_end_level", "vlb"])
    def test_interval_without_generator_is_named(self, mode):
        with pytest.raises(InfeasibleError) as info:
            run_scenario(self._second_interval_without_generator(mode))
        assert info.value.interval_index == 2
        assert info.value.stage == "end_level"

    def test_compare_reports_every_mode_infeasible(self):
        report = compare(self._second_interval_without_generator("vlb"),
                         ("ideal", "split_end_level", "vlb"))
        codes = {r.mode: r.error_code for r in report.modes}
        assert codes == {"ideal": 3, "split_end_level": 3, "vlb": 3}

    def test_ideal_misses_its_final_target_in_no_interval(self):
        with pytest.raises(InfeasibleError) as info:
            run_scenario(self._second_interval_without_generator("ideal"))
        assert info.value.interval_index is None
        assert info.value.stage == "end_level"

    @pytest.mark.parametrize("error", [ValuationError, SimultaneityError,
                                       LpNumericalError])
    def test_ledger_update_errors_name_their_interval(self, monkeypatch,
                                                      error):
        # every interval charges, so every ledger update values its charge
        scn = Scenario(StorageSpec(10.0, 0.0), tuple(
            interval([12.0], [1.0], [[1.0]], [[3.0]], level, 2.0)
            for level in (1.0, 2.0, 3.0)), "vlb")
        valued = []
        assign = storage_ledger.assign_charge_values

        def fail_in_interval_2(result):
            valued.append(result)
            if len(valued) == 2:
                raise error("charge valuation failed")
            return assign(result)

        monkeypatch.setattr(storage_ledger, "assign_charge_values",
                            fail_in_interval_2)
        with pytest.raises(error) as info:
            run_scenario(scn)
        assert info.value.interval_index == 2
        assert len(valued) == 2


class TestNegativeGeneratorCost:
    """Two identical intervals whose generator is paid to produce (cost
    -5). ``vlb`` ends interval 1 with the store full at a clearing price of
    0, so the ledger holds a bucket priced 0. In interval 2 the LP
    discharges that bucket in a period that also charges fresh energy,
    and no period discharges fresh energy: ``remove_simultaneous`` has
    nowhere to move the overlap. ``ideal`` and ``split_end_level`` clear
    the same scenario with welfare 60."""

    @staticmethod
    def _scenario(mode: str) -> Scenario:
        iv = interval([10.0, 10.0], [1.0, 1.0], [[-5.0, -5.0]], [[2.0, 2.0]],
                      0.0, n_periods=2)
        return Scenario(StorageSpec(2.0, 0.0), (iv, iv), mode)

    def test_the_other_modes_clear_it(self):
        report = compare(self._scenario("vlb"), ("ideal", "split_end_level"))
        assert [r.document["totals"]["social_welfare"]
                for r in report.modes] == approx([60.0, 60.0])

    @pytest.mark.xfail(strict=True, raises=SimultaneityError,
                       reason="a zero-price bucket released beside fresh "
                       "charge: the rule that settles it is ROADMAP item "
                       "17's decision")
    def test_vlb_clears_it(self):
        run_scenario(self._scenario("vlb"))


class TestPenaltyTable1:
    """Sequential clearing where leftover energy is charged a price."""

    def test_first_interval_stays_idle(self):
        scn = table1_scenario("split_penalty")
        res = clear_split_penalty(scn.intervals[0], STORAGE, e_init=0.0)
        assert res.load("l1") == approx((0.0,))
        assert res.gen("g1") == approx((0.0,))
        assert res.gen("g2") == approx((0.0,))
        assert res.storage_injection == approx((0.0,))
        assert res.prices == approx((5.0,))
        # the marginal unit can be the generator (5) or, on the low side,
        # energy absorbed into storage at the leftover price (-2)
        lo, hi = res.price_ranges[0]
        assert (lo, hi) == approx((-2.0, 5.0))
        assert res.objective == approx(0.0)

    def test_second_interval_buys_everything_fresh(self):
        scn = table1_scenario("split_penalty")
        res = clear_split_penalty(scn.intervals[1], STORAGE, e_init=0.0)
        assert res.load("l1") == approx((3.0,))
        assert res.gen("g1") == approx((2.0,))
        assert res.gen("g2") == approx((1.0,))
        assert res.prices == approx((9.0,))
        assert res.objective == approx(23.0)

    def test_leftover_term_in_objective(self):
        # no bids at all: the stranded initial energy cannot leave the bus,
        # so the objective is exactly -penalty * e_init
        iv = IntervalSpec(grid=TimeGrid(1, 1.0), loads=(), generators=(),
                          end_level=0.0, penalty_price=3.0)
        res = clear_split_penalty(iv, StorageSpec(2.5, 1.0), e_init=1.0)
        assert res.final_content == approx(1.0)
        assert res.objective == approx(-3.0)

    def test_missing_penalty_price_rejected(self):
        iv = interval([12.0], [3.0], [[2.0]], [[2.0]], end_level=0.0)
        with pytest.raises(ScenarioError, match="penalty_price"):
            clear_split_penalty(iv, STORAGE, e_init=0.0)


class TestIdealTable1:
    def test_whole_horizon_welfare_and_prices(self):
        scn = table1_scenario("ideal")
        res = clear_ideal(STORAGE, scn.intervals)
        assert res.objective == approx(27.0)
        assert res.prices == approx((5.0, 5.0))
        # charge one unit at 5 in the first hour: together with the cheap
        # second-hour unit that covers the whole 3 MW of load
        assert res.gen_dispatch[0]["g1"] == approx(1.0)
        assert res.gen_dispatch[1]["g1"] == approx(2.0)
        assert res.storage_injection == approx((1.0, -1.0))
        assert res.level == approx((1.0, 0.0))

    def test_slices_agree_with_full_solution(self):
        scn = table1_scenario("ideal")
        full = clear_ideal(STORAGE, scn.intervals)
        parts = slice_ideal(full, scn.intervals)
        assert len(parts) == 2
        assert parts[0].prices + parts[1].prices == full.prices
        assert parts[0].initial_content == approx(0.0)
        assert parts[0].final_content == approx(parts[1].initial_content)
        assert parts[1].final_content == approx(0.0)
        assert sum(p.objective for p in parts) == approx(full.objective)

    def test_runner_keeps_full_result(self):
        run = run_scenario(table1_scenario("ideal"))
        assert run.full_result is not None
        assert run.full_result.objective == approx(27.0)

    def test_mixed_delta_t_rejected(self):
        a = interval([12.0], [3.0], [[2.0]], [[2.0]], 0.0, delta_t=1.0)
        b = interval([12.0], [3.0], [[2.0]], [[2.0]], 0.0, delta_t=0.5)
        with pytest.raises(ScenarioError, match="delta_t"):
            clear_ideal(STORAGE, (a, b))


class TestVlbTable1:
    """Stored energy re-offered through priced buckets."""

    def test_first_interval_creates_bucket(self):
        scn = table1_scenario("vlb")
        res = clear_vlb(scn.intervals[0], STORAGE, ValueLedger())
        assert res.intra_charge == approx((1.0,))
        assert res.prices == approx((5.0,))
        assert res.final_content == approx(1.0)

    def test_second_interval_discharges_bucket(self):
        scn = table1_scenario("vlb")
        ledger = ValueLedger.from_buckets([ValueBucket(5.0, 1.0, 1)])
        res = clear_vlb(scn.intervals[1], STORAGE, ledger)
        assert res.load("l1") == approx((3.0,))
        assert res.gen("g1") == approx((2.0,))
        assert res.gen("g2") == approx((0.0,))
        # one MW comes out of the bucket, none is charged fresh
        assert res.inter_discharge == (approx((1.0,)),)
        assert res.intra_charge == approx((0.0,))
        assert res.prices == approx((5.0,))
        lo, hi = res.price_ranges[0]
        assert (lo, hi) == approx((5.0, 9.0))
        assert tuple(b.price for b in res.ledger.buckets) == approx((5.0,))

    def test_runner_ledger_lifecycle(self):
        run = run_scenario(table1_scenario("vlb"))
        after_first = run.ledgers_before[1]
        assert [(b.price, b.quantity, b.birth_interval)
                for b in after_first.buckets] == [(5.0, approx(1.0), 1)]
        assert run.final_ledger.buckets == ()
        welfare = sum(dispatch_welfare(r, iv) for r, iv in
                      zip(run.results, run.scenario.intervals))
        assert welfare == approx(27.0)
        # objectives additionally net out the 5 paid into the bucket
        assert sum(r.objective for r in run.results) == approx(22.0)


class TestTable4:
    """Three intervals where sequential end levels destroy welfare."""

    def test_ideal(self):
        run = run_scenario(table4_scenario("ideal"))
        total = sum(dispatch_welfare(r, iv) for r, iv in
                    zip(run.results, run.scenario.intervals))
        assert total == approx(21.0)
        assert [r.prices[0] for r in run.results] == approx([5.0, 3.0, 9.0])

    def test_split(self):
        run = run_scenario(table4_scenario("split_end_level"))
        total = sum(dispatch_welfare(r, iv) for r, iv in
                    zip(run.results, run.scenario.intervals))
        assert total == approx(-1.0)
        # the last interval's marginal MW is a forced buy from the
        # expensive unit, not the load's utility
        assert [r.prices[0] for r in run.results] == approx([5.0, 3.0, 10.0])

    def test_vlb(self):
        run = run_scenario(table4_scenario("vlb"))
        total = sum(dispatch_welfare(r, iv) for r, iv in
                    zip(run.results, run.scenario.intervals))
        assert total == approx(16.0)
        # the bucket born in the first interval rides through the second
        # and discharges in the third
        finals = [0.0 if r.inter_level is None else
                  sum(row[-1] for row in r.inter_level)
                  for r in run.results]
        assert finals == approx([0.0, 2.5, 0.0])
        assert run.final_ledger.buckets == ()


class TestTable5:
    """Six-interval cycling horizon, with and without bucket discounting."""

    MODES_TO_PER_INTERVAL = {
        "ideal": [50.0, 100.0, 237.5, 137.5, 237.5, 92.5],
        "split_end_level": [0.0, 137.5, 237.5, 137.5, 237.5, 92.5],
        "vlb": [0.0, 100.0, 240.0, 100.0, 240.0, 92.5],
    }

    @pytest.mark.parametrize("mode", sorted(MODES_TO_PER_INTERVAL))
    def test_per_interval_welfare(self, mode):
        run = run_scenario(table5_scenario(mode))
        per = [dispatch_welfare(r, iv) for r, iv in
               zip(run.results, run.scenario.intervals)]
        assert per == approx(self.MODES_TO_PER_INTERVAL[mode])

    def test_vlb_bucket_rides_to_the_last_interval(self):
        run = run_scenario(table5_scenario("vlb"))
        discharges = [sum(r.total_inter_discharge) for r in run.results]
        assert discharges == approx([0.0, 0.0, 0.0, 0.0, 0.0, 2.5])
        # price 20 bucket waits until the 21-priced interval
        for before in run.ledgers_before[1:]:
            assert [(b.price, b.quantity) for b in before.buckets] \
                == [(approx(20.0), approx(2.5))]
        assert run.final_ledger.buckets == ()

    def test_discount_releases_bucket_earlier(self):
        run = run_scenario(table5_scenario("vlb", discount_rate=0.25))
        per = [dispatch_welfare(r, iv) for r, iv in
               zip(run.results, run.scenario.intervals)]
        assert per == approx([0.0, 100.0, 240.0, 137.5, 237.5, 92.5])
        discharges = [sum(r.total_inter_discharge) for r in run.results]
        assert discharges == approx([0.0, 0.0, 0.0, 2.5, 0.0, 2.5])
        prices_before = [[b.price for b in led.buckets]
                         for led in run.ledgers_before]
        assert prices_before == [[], [approx(20.0)], [approx(15.0)],
                                 [approx(11.25)], [], [approx(1.0)]]
        assert run.final_ledger.buckets == ()


class TestTable6:
    """Two three-period intervals with identical dispatch in every mode."""

    EXPECTED_D = (0.0, 1.0, 2.0, 2.5, 0.0, 4.0)
    EXPECTED_P = (1.0, 2.5, 0.0, 2.0, 1.0, 5.5)

    @pytest.mark.parametrize("mode", ["ideal", "split_end_level", "vlb"])
    def test_dispatch_and_welfare(self, mode):
        run = run_scenario(table6_scenario(mode))
        d = sum((r.load("l1") for r in run.results), ())
        p = sum((r.gen("g1") for r in run.results), ())
        assert d == approx(self.EXPECTED_D)
        assert p == approx(self.EXPECTED_P)
        total = sum(dispatch_welfare(r, iv) for r, iv in
                    zip(run.results, run.scenario.intervals))
        assert total == approx(25.5)

    def test_ideal_prices(self):
        run = run_scenario(table6_scenario("ideal"))
        prices = sum((r.prices for r in run.results), ())
        assert prices == approx((4.0,) * 6)
        ranges = [rng for r in run.results for rng in r.price_ranges]
        assert ranges == [approx(x) for x in
                          [(2.0, 4.0), (2.0, 4.0), (3.0, 4.0),
                           (3.0, 4.0), (3.0, 4.0), (3.0, 4.0)]]

    def test_split_prices(self):
        run = run_scenario(table6_scenario("split_end_level"))
        prices = sum((r.prices for r in run.results), ())
        assert prices == approx((5.0, 5.0, 5.0, 3.0, 3.0, 3.0))
        ranges = [rng for r in run.results for rng in r.price_ranges]
        assert ranges == [approx(x) for x in
                          [(2.0, 5.0), (2.0, 5.0), (2.0, 6.0),
                           (3.0, 4.0), (3.0, 4.0), (3.0, 4.0)]]

    def test_vlb_prices_and_trajectories(self):
        run = run_scenario(table6_scenario("vlb"))
        prices = sum((r.prices for r in run.results), ())
        assert prices == approx((5.0, 5.0, 6.0, 3.0, 3.0, 3.0))
        second = run.results[1]
        assert second.intra_level == approx((-0.5, 0.5, 2.0))
        assert second.inter_level == (approx((0.5, 0.5, 0.5)),)
        assert run.final_ledger is not None
        assert [(b.price, b.quantity, b.birth_interval)
                for b in run.final_ledger.buckets] == [
            (approx(3.0), approx(2.0), 2), (approx(5.0), approx(0.5), 1)]


class TestWelfareIdentity:
    def test_split_objective_equals_dispatch_welfare(self):
        scn = table1_scenario("split_end_level")
        res = clear_split(scn.intervals[1], STORAGE, e_init=1.0)
        assert res.objective == approx(dispatch_welfare(res, scn.intervals[1]))

    def test_vlb_objective_discounts_bucket_payments(self):
        # objective = dispatch welfare minus the value paid to buckets
        scn = table1_scenario("vlb")
        ledger = ValueLedger.from_buckets([ValueBucket(5.0, 1.0, 1)])
        res = clear_vlb(scn.intervals[1], STORAGE, ledger)
        welfare = dispatch_welfare(res, scn.intervals[1])
        paid = sum(b.price * q for b, q in
                   zip(ledger.buckets, res.total_inter_discharge))
        assert res.objective == approx(welfare - paid)


def _fixture_chain_cases():
    """(interval, storage) for every interval of every bundled fixture; the
    storage starts with the content the split_end_level chain reaches
    before that interval."""
    cases = []
    for name in FIXTURE_NAMES:
        text = (resources.files("artifact") / "fixtures"
                / f"{name}.json").read_text()
        scn = replace(parse_scenario(text), mode="split_end_level")
        run = run_scenario(scn, compute_ranges=False)
        for iv, res in zip(scn.intervals, run.results):
            cases.append((iv, StorageSpec(scn.storage.capacity,
                                          res.initial_content)))
    return cases


def _random_chain_cases(seed: int, count: int):
    """(interval, storage) of seeded ``random_interval`` draws with a random
    initial content; some end levels are out of reach."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        capacity = float(rng.uniform(0.5, 3.0))
        storage = StorageSpec(capacity, float(rng.uniform(0.0, capacity)))
        cases.append((random_interval(rng, capacity, penalty=True), storage))
    return cases


def _chain_cases(source: str):
    """The cases, and how many of them must clear: every fixture interval,
    and 30 of the 40 random draws."""
    if source == "fixtures":
        cases = _fixture_chain_cases()
        return cases, len(cases)
    return _random_chain_cases(20261018, 40), 30


def _rows(prog):
    """Rows with their coefficients in insertion order."""
    return [(label, list(coeffs.items()), op, rhs)
            for label, coeffs, op, rhs in prog._rows]


class TestStorageChainRelations:
    """The three storage-chain clearings are one LP: they differ only in the
    periods the chain spans and in how its last level is closed."""

    @pytest.mark.parametrize("source", ["fixtures", "random_interval"])
    def test_one_interval_ideal_is_split_end_level(self, source):
        cases, must_clear = _chain_cases(source)
        cleared = 0
        for iv, storage in cases:
            try:
                split = clear_split(iv, storage, storage.initial_energy)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    clear_ideal(storage, (iv,))
                continue
            ideal = clear_ideal(storage, (iv,))
            # the first line of the text names the LP
            assert (write_lp_text(ideal.lp).split("\n")[1:]
                    == write_lp_text(split.lp).split("\n")[1:])
            assert replace(ideal, mode="split_end_level") == split
            cleared += 1
        assert cleared >= must_clear

    @pytest.mark.parametrize("source", ["fixtures", "random_interval"])
    def test_penalty_lp_is_split_lp_with_priced_last_level(self, source):
        cases, must_clear = _chain_cases(source)
        cleared = 0
        for iv, storage in cases:
            if iv.penalty_price is None:
                iv = replace(iv, penalty_price=4.0)
            try:
                split = clear_split(iv, storage, storage.initial_energy,
                                    compute_ranges=False).lp
            except InfeasibleError:
                continue
            pen = clear_split_penalty(iv, storage, storage.initial_energy,
                                      compute_ranges=False).lp
            names = split.variable_names
            assert pen.variable_names == names
            assert [pen.bounds(n) for n in names] == [split.bounds(n)
                                                      for n in names]
            objective = {n: split.objective_coefficient(n) for n in names}
            objective[f"e[{iv.grid.n_periods}]"] -= iv.penalty_price
            assert {n: pen.objective_coefficient(n)
                    for n in names} == objective
            assert _rows(split)[-1][0] == "end_level"
            assert _rows(pen) == _rows(split)[:-1]
            cleared += 1
        assert cleared >= must_clear


def _price_scaled(scenario: Scenario, k: float) -> Scenario:
    """``scenario`` with every utility, cost and penalty price times ``k``."""
    return replace(scenario, intervals=tuple(replace(
        iv,
        loads=tuple(replace(ld, utility=tuple(k * u for u in ld.utility))
                    for ld in iv.loads),
        generators=tuple(replace(g, cost=tuple(k * c for c in g.cost))
                         for g in iv.generators),
        penalty_price=None if iv.penalty_price is None
        else k * iv.penalty_price) for iv in scenario.intervals))


def _welfare_and_endpoints(scenario: Scenario) -> list[float]:
    run = run_scenario(scenario)
    values = [social_welfare(list(run.results), list(scenario.intervals),
                             (1, len(run.results)))]
    for res in run.results:
        values += [end for rng in res.price_ranges for end in rng]
    return values


class TestPriceScaling:
    """Scaling every price by k > 0 scales the objective by k and leaves the
    feasible set alone, so the unique optimal values (welfare and the price
    range endpoints) scale by k. Only ``ideal`` and ``split_end_level`` are
    checked: ``split_penalty`` and ``vlb`` carry a non-unique end content
    into the next interval."""

    @pytest.mark.parametrize("k", [0.25, 3.0])
    @pytest.mark.parametrize("mode", ["ideal", "split_end_level"])
    def test_welfare_and_ranges_scale_with_prices(self, mode, k):
        rng = np.random.default_rng(20261018)
        cleared = 0
        for _ in range(30):
            capacity = float(rng.uniform(0.5, 3.0))
            dt = float(rng.choice([0.5, 1.0]))
            scenario = Scenario(StorageSpec(capacity, 0.0), (
                random_interval(rng, capacity, penalty=True, delta_t=dt),
                random_interval(rng, capacity, penalty=True, delta_t=dt,
                                end_level=0.0)), mode)
            try:
                base = _welfare_and_endpoints(scenario)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    run_scenario(_price_scaled(scenario, k))
                continue
            scaled = _welfare_and_endpoints(_price_scaled(scenario, k))
            assert len(scaled) == len(base)
            for want, got in zip(base, scaled):
                assert abs(got - k * want) <= 1e-9 * max(1.0, abs(k * want))
            cleared += 1
        assert cleared >= 25


def _renamed(intervals: tuple[IntervalSpec, ...]) -> tuple[IntervalSpec, ...]:
    """``intervals`` with every participant renamed, the new names sorting
    in the opposite order, and the loads and the generators of each
    interval in reverse order."""
    ids = sorted({b.id for iv in intervals for b in iv.loads + iv.generators})
    new = {pid: f"renamed-{len(ids) - k:03d}" for k, pid in enumerate(ids)}
    return tuple(replace(
        iv, loads=tuple(replace(ld, id=new[ld.id]) for ld in reversed(iv.loads)),
        generators=tuple(replace(g, id=new[g.id])
                         for g in reversed(iv.generators)))
        for iv in intervals)


def _clear_one(mode: str, iv: IntervalSpec, storage: StorageSpec,
               ledger: ValueLedger):
    """One interval cleared in ``mode`` from ``storage.initial_energy``, or
    for ``vlb`` from ``ledger``."""
    if mode == "ideal":
        return clear_ideal(storage, (iv,))
    if mode == "split_end_level":
        return clear_split(iv, storage, storage.initial_energy)
    if mode == "split_penalty":
        return clear_split_penalty(iv, storage, storage.initial_energy)
    return clear_vlb(iv, storage, ledger)


def _assert_same_unique_values(res, other, k: float = 1.0):
    """``other``'s LP optimum is ``k`` times ``res``'s and their price
    ranges are equal, within 1e-9 relative; infinite range ends equal."""
    want = [k * res.objective] + [end for rng in res.price_ranges
                                  for end in rng]
    got = [other.objective] + [end for rng in other.price_ranges
                               for end in rng]
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert (g == w if math.isinf(w)
                else abs(g - w) <= 1e-9 * max(1.0, abs(w))), (want, got)


def _single_intervals():
    """(interval, storage, ledger): every fixture interval from an empty
    store, then seeded ``random_interval`` draws from a random start that
    the ledger holds."""
    for name in FIXTURE_NAMES:
        text = (resources.files("artifact") / "fixtures"
                / f"{name}.json").read_text()
        scn = parse_scenario(text)
        storage = StorageSpec(scn.storage.capacity, 0.0)
        for iv in scn.intervals:
            yield iv, storage, ValueLedger()
    rng = np.random.default_rng(20261024)
    for _ in range(50):
        capacity = float(rng.uniform(0.5, 3.0))
        ledger = random_ledger(rng, capacity)
        yield (random_interval(rng, capacity, penalty=True),
               StorageSpec(capacity, ledger.total), ledger)


def _random_ideal_horizons(seed: int) -> list[Scenario]:
    """Every fixture, then ten seeded three-interval ``ideal`` horizons
    that end empty."""
    horizons = [parse_scenario((resources.files("artifact") / "fixtures"
                                / f"{name}.json").read_text())
                for name in FIXTURE_NAMES]
    rng = np.random.default_rng(seed)
    for _ in range(10):
        capacity = float(rng.uniform(0.5, 3.0))
        dt = float(rng.choice([0.5, 1.0]))
        horizons.append(Scenario(StorageSpec(capacity, 0.0), tuple(
            random_interval(rng, capacity, delta_t=dt,
                            end_level=0.0 if last else None)
            for last in (False, False, True)), "ideal"))
    return horizons


class TestRenamingParticipants:
    """Renaming every participant and reversing the order of the loads and
    of the generators changes no unique value: the LP optimum and every
    period's price range. Dispatch and point prices are not unique, so
    neither they nor sequential runs, which chain through them, are
    compared."""

    @pytest.mark.parametrize("mode", MODES)
    def test_single_interval_clearings(self, mode):
        cleared = 0
        for iv, storage, ledger in _single_intervals():
            if mode == "split_penalty" and iv.penalty_price is None:
                continue
            (renamed,) = _renamed((iv,))
            try:
                res = _clear_one(mode, iv, storage, ledger)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    _clear_one(mode, renamed, storage, ledger)
                continue
            _assert_same_unique_values(
                res, _clear_one(mode, renamed, storage, ledger))
            cleared += 1
        assert cleared >= 40

    def test_ideal_horizons(self):
        cleared = 0
        for scn in _random_ideal_horizons(20261025):
            try:
                res = clear_ideal(scn.storage, scn.intervals)
            except InfeasibleError:
                continue
            _assert_same_unique_values(
                res, clear_ideal(scn.storage, _renamed(scn.intervals)))
            cleared += 1
        assert cleared >= 10


def _quantity_scaled(intervals: tuple[IntervalSpec, ...], storage: StorageSpec,
                     ledger: ValueLedger, k: float):
    """Every quantity times ``k``: bid caps, end levels, the capacity, the
    initial content and the ledger's bucket quantities. Prices, the grid
    and penalty prices stay."""
    return (tuple(replace(
        iv, end_level=k * iv.end_level,
        loads=tuple(replace(ld, max_quantity=tuple(k * q for q in
                                                   ld.max_quantity))
                    for ld in iv.loads),
        generators=tuple(replace(g, max_quantity=tuple(k * q for q in
                                                       g.max_quantity))
                         for g in iv.generators)) for iv in intervals),
        StorageSpec(k * storage.capacity, k * storage.initial_energy),
        ValueLedger(tuple(replace(b, quantity=k * b.quantity)
                          for b in ledger.buckets)))


def _halved(bids: tuple, index: int) -> tuple:
    """``bids`` with bid ``index`` split into two identical halves."""
    bid = bids[index]
    half = tuple(0.5 * q for q in bid.max_quantity)
    return (bids[:index] + (replace(bid, id=f"{bid.id}-a", max_quantity=half),
                            replace(bid, id=f"{bid.id}-b", max_quantity=half))
            + bids[index + 1:])


def _split_bid(intervals: tuple[IntervalSpec, ...],
               rng: np.random.Generator) -> tuple[IntervalSpec, ...]:
    """``intervals`` with one bid of each, a load or a generator drawn by
    ``rng``, split into two identical halves."""
    out = []
    for iv in intervals:
        n_loads = len(iv.loads)
        j = int(rng.integers(n_loads + len(iv.generators)))
        out.append(replace(iv, loads=_halved(iv.loads, j)) if j < n_loads
                   else replace(iv, generators=_halved(iv.generators,
                                                       j - n_loads)))
    return tuple(out)


class TestQuantityMetamorphs:
    """Two changes of the bid quantities whose effect on the unique optimal
    values is known, checked to 1e-9 relative (infinite range ends equal):
    scaling every quantity by 2 scales the LP optimum by 2 and leaves every
    price range alone, and splitting a bid into two identical halves
    changes neither. Dispatch and point prices are not unique and are not
    compared."""

    @staticmethod
    def _assert_related(mode, iv, storage, ledger, other, k):
        """``other`` (interval, storage, ledger) clears to ``k`` times the
        LP optimum of ``iv`` and to the same price ranges, or both fail."""
        try:
            res = _clear_one(mode, iv, storage, ledger)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                _clear_one(mode, *other)
            return False
        _assert_same_unique_values(res, _clear_one(mode, *other), k)
        return True

    @pytest.mark.parametrize("mode", MODES)
    def test_scaling_quantities_scales_the_optimum(self, mode):
        cleared = 0
        for iv, storage, ledger in _single_intervals():
            if mode == "split_penalty" and iv.penalty_price is None:
                continue
            (scaled,), storage2, ledger2 = _quantity_scaled(
                (iv,), storage, ledger, 2.0)
            cleared += self._assert_related(mode, iv, storage, ledger,
                                            (scaled, storage2, ledger2), 2.0)
        assert cleared >= 40

    @pytest.mark.parametrize("mode", MODES)
    def test_splitting_a_bid_changes_nothing(self, mode):
        rng = np.random.default_rng(20261026)
        cleared = 0
        for iv, storage, ledger in _single_intervals():
            if mode == "split_penalty" and iv.penalty_price is None:
                continue
            (split,) = _split_bid((iv,), rng)
            cleared += self._assert_related(mode, iv, storage, ledger,
                                            (split, storage, ledger), 1.0)
        assert cleared >= 40

    def test_ideal_horizons(self):
        rng = np.random.default_rng(20261027)
        cleared = 0
        for scn in _random_ideal_horizons(20261028):
            try:
                res = clear_ideal(scn.storage, scn.intervals)
            except InfeasibleError:
                continue
            scaled, storage2, _ledger = _quantity_scaled(
                scn.intervals, scn.storage, ValueLedger(), 2.0)
            _assert_same_unique_values(res, clear_ideal(storage2, scaled), 2.0)
            _assert_same_unique_values(
                res, clear_ideal(scn.storage, _split_bid(scn.intervals, rng)))
            cleared += 1
        assert cleared >= 10


CHAIN_MODES = ("ideal", "split_end_level", "split_penalty")


def _face_ranges(res):
    """Every period's range of ``res`` as ``lp.dual_range`` gives it."""
    return [tuple(snap_zero(end / res.delta_t) for end in lpmod.dual_range(
        res.lp, res.lp_solution, f"balance[{t + 1}]"))
        for t in range(res.n_periods)]


def _assert_ranges_match_the_face(res):
    for t, (got, want) in enumerate(zip(res.price_ranges,
                                        _face_ranges(res))):
        for a, b in zip(got, want):
            if math.isinf(a) or math.isinf(b):
                assert a == b, (res.lp.name, t, got, want)
            else:
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (
                    res.lp.name, t, got, want)


def _assert_endpoints_are_prices(res, intervals, penalty=None):
    prices = {0.0} if penalty is None else {0.0, -penalty}
    for iv in intervals:
        for ld in iv.loads:
            prices.update(ld.utility)
        for g in iv.generators:
            prices.update(g.cost)
    for rng in res.price_ranges:
        for end in rng:
            assert math.isinf(end) or end in prices, (res.lp.name, rng)


def _fixture_chain_clearings():
    """(clearing, its intervals, its penalty) of every chain clearing of the
    bundled fixtures, cleared with ranges."""
    out = []
    for name in FIXTURE_NAMES:
        text = (resources.files("artifact") / "fixtures"
                / f"{name}.json").read_text()
        for mode in CHAIN_MODES:
            scn = replace(parse_scenario(text), mode=mode)
            try:
                run = run_scenario(scn)
            except ScenarioError:
                continue  # split_penalty on a fixture without penalties
            if mode == "ideal":
                out.append((run.full_result, scn.intervals, None))
                continue
            for iv, res in zip(scn.intervals, run.results):
                out.append((res, (iv,), iv.penalty_price
                            if mode == "split_penalty" else None))
    return out


def _zero_some_caps(rng, iv: IntervalSpec) -> IntervalSpec:
    """``iv`` with about one bid cap in five set to 0 MW."""
    def caps(quantities):
        return tuple(0.0 if rng.random() < 0.2 else q for q in quantities)
    return replace(
        iv,
        loads=tuple(replace(ld, max_quantity=caps(ld.max_quantity))
                    for ld in iv.loads),
        generators=tuple(replace(g, max_quantity=caps(g.max_quantity))
                         for g in iv.generators))


def _random_chain_clearings(mode: str, seed: int, count: int):
    """(clearing, its intervals, its penalty) of the first ``count`` seeded
    ``random_interval`` clearings of ``mode`` that are feasible: two
    intervals under ``ideal``, one otherwise. One store in ten has no
    capacity, and about one bid cap in five is 0 MW."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3 * count):
        capacity = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.5, 3.0))
        storage = StorageSpec(capacity, float(rng.uniform(0.0, capacity)))
        dt = float(rng.choice([0.5, 1.0]))
        ivs = tuple(_zero_some_caps(rng, random_interval(
            rng, capacity, penalty=True, delta_t=dt))
            for _ in range(2 if mode == "ideal" else 1))
        try:
            if mode == "ideal":
                res = clear_ideal(storage, ivs)
            elif mode == "split_end_level":
                res = clear_split(ivs[0], storage, storage.initial_energy)
            else:
                res = clear_split_penalty(ivs[0], storage,
                                          storage.initial_energy)
        except InfeasibleError:
            continue
        out.append((res, ivs, ivs[0].penalty_price
                    if mode == "split_penalty" else None))
        if len(out) == count:
            return out
    raise AssertionError(f"fewer than {count} {mode} draws cleared")


class TestChainRangesAgainstTheFace:
    """The storage-chain clearings range every period by two sweeps over
    the bids instead of solving the dual face. ``lp.dual_range`` stays the
    oracle: the endpoints agree to 1e-12 relative, infinite ends are equal,
    and each finite endpoint is exactly a bid price, -penalty or 0."""

    def test_fixture_clearings(self):
        clearings = _fixture_chain_clearings()
        assert {res.mode for res, _ivs, _pen in clearings} == set(CHAIN_MODES)
        for res, intervals, penalty in clearings:
            _assert_ranges_match_the_face(res)
            _assert_endpoints_are_prices(res, intervals, penalty)

    @pytest.mark.parametrize("mode", CHAIN_MODES)
    def test_random_clearings(self, mode):
        clearings = _random_chain_clearings(mode, 20261019, 400)
        assert {res.delta_t for res, _ivs, _pen in clearings} == {0.5, 1.0}
        assert any(res.lp.bounds("e[1]") == (0.0, 0.0)
                   for res, _ivs, _pen in clearings)
        infinite = 0
        for res, intervals, penalty in clearings:
            _assert_ranges_match_the_face(res)
            _assert_endpoints_are_prices(res, intervals, penalty)
            infinite += any(math.isinf(end) for rng in res.price_ranges
                            for end in rng)
        assert infinite

    def test_table5_ideal_first_range_is_the_bid(self):
        scn = table5_scenario("ideal")
        res = clear_ideal(scn.storage, scn.intervals)
        assert res.price_ranges[0] == (20.0, 20.0)

    def test_published_dual_off_its_range_is_refused(self, monkeypatch):
        solve_or_raise = clearingmod._solve_or_raise

        def shifted(*args, **kwargs):
            sol = solve_or_raise(*args, **kwargs)
            duals = dict(sol.duals)
            duals["balance[2]"] += 1.0
            return replace(sol, duals=duals)

        monkeypatch.setattr(clearingmod, "_solve_or_raise", shifted)
        scn = table1_scenario("ideal")
        with pytest.raises(LpNumericalError, match=r"ideal: .* of period 2 "):
            clear_ideal(scn.storage, scn.intervals)

    def test_empty_range_is_refused(self, monkeypatch):
        # the load at 12 taken off its cap while the generator at 5 stays
        # between its bounds: the price would be both 12 and 5
        solve_or_raise = clearingmod._solve_or_raise

        def interior(*args, **kwargs):
            sol = solve_or_raise(*args, **kwargs)
            primal = dict(sol.primal)
            primal["d[l1,1]"] = 1.5
            return replace(sol, primal=primal)

        monkeypatch.setattr(clearingmod, "_solve_or_raise", interior)
        iv = interval([12.0], [3.0], [[5.0]], [[4.0]], 0.0)
        with pytest.raises(LpNumericalError,
                           match=r"split: price range of period 1 is empty"):
            clear_split(iv, STORAGE, e_init=0.0)
