"""Ledger maintenance: overlap removal, shrinking, valuation, discounting.

Expected outputs are hand-traced: each overlap move shifts discharge from
the earliest simultaneous period to the earliest absorbing period, and each
valuation split is the unique (or minimal-profit) break-even split. The
break-even LP that once made the split is kept here as the price sort's
oracle.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from artifact import lp as lpmod
from artifact import storage_ledger
from artifact.cli import FIXTURE_NAMES
from artifact.clearing import ClearingResult, clear_vlb
from artifact.errors import (InfeasibleError, LpNumericalError,
                             SimultaneityError, ValuationError)
from artifact.model import (MODEL_EPS, Scenario, StorageSpec, ValueBucket,
                            ValueLedger, parse_scenario)
from artifact.runner import run_scenario
from artifact.storage_ledger import (
    ValuationSplit,
    apply_discount,
    apply_net_discharge,
    assign_charge_values,
    remove_simultaneous,
    update_ledger,
)
from helpers import (STORAGE, interval, random_interval, random_vlb_scenario,
                     table1_scenario, table4_scenario)


def approx(x):
    return pytest.approx(x, abs=1e-6)


def vlb_result(charge, prices, discharge=(), buckets=(), dt=1.0):
    """Assemble a consistent vlb result from storage instructions alone."""
    T = len(charge)
    rows = tuple(tuple(row) for row in discharge)
    ea, lvl = [], 0.0
    for t in range(T):
        lvl += dt * charge[t]
        ea.append(lvl)
    ee = []
    for (_, qty, _), row in zip(buckets, rows):
        lvl = qty
        r = []
        for t in range(T):
            lvl -= dt * row[t]
            r.append(lvl)
        ee.append(tuple(r))
    return ClearingResult(
        mode="vlb", delta_t=dt, n_periods=T,
        load_dispatch=tuple({} for _ in range(T)),
        gen_dispatch=tuple({} for _ in range(T)),
        storage_injection=tuple(
            charge[t] - sum(row[t] for row in rows) for t in range(T)),
        prices=tuple(prices), objective=0.0, initial_content=0.0,
        final_content=(ea[-1] + sum(r[-1] for r in ee)) if T else 0.0,
        intra_charge=tuple(charge), intra_level=tuple(ea),
        inter_discharge=rows, inter_level=tuple(ee),
        ledger=ValueLedger(tuple(ValueBucket(*b) for b in buckets)))


class TestRemoveSimultaneous:
    def test_single_overlap_moved(self):
        res = vlb_result(charge=(2.0, -1.0), prices=(5.0, 5.0),
                         discharge=((1.0, 0.0),), buckets=((5.0, 1.0, 1),))
        out = remove_simultaneous(res)
        assert out.intra_charge == approx((1.0, 0.0))
        assert out.inter_discharge == (approx((0.0, 1.0)),)
        # summed storage instruction per period is untouched
        assert out.storage_injection == approx(res.storage_injection)
        assert sum(out.inter_discharge[0]) == approx(
            sum(res.inter_discharge[0]))

    def test_overlap_spread_over_two_absorbers(self):
        res = vlb_result(charge=(2.0, -0.5, -0.5), prices=(5.0,) * 3,
                         discharge=((1.0, 0.0, 0.0),),
                         buckets=((5.0, 1.0, 1),))
        out = remove_simultaneous(res)
        assert out.intra_charge == approx((1.0, 0.0, 0.0))
        assert out.inter_discharge == (approx((0.0, 0.5, 0.5)),)
        assert out.storage_injection == approx(res.storage_injection)

    def test_cheapest_bucket_moves_first(self):
        res = vlb_result(charge=(1.0, -2.0), prices=(5.0, 5.0),
                         discharge=((0.5, 0.0), (0.5, 0.0)),
                         buckets=((3.0, 1.0, 1), (7.0, 1.0, 1)))
        out = remove_simultaneous(res)
        assert out.intra_charge == approx((0.0, -1.0))
        assert out.inter_discharge == (approx((0.0, 0.5)),
                                       approx((0.0, 0.5)))
        # per-bucket discharged totals are preserved bucket by bucket
        for before, after in zip(res.inter_discharge, out.inter_discharge):
            assert sum(after) == approx(sum(before))

    def test_untouched_solution_returned_as_is(self):
        res = vlb_result(charge=(1.0, 0.0), prices=(5.0, 5.0),
                         discharge=((0.0, 1.0),), buckets=((5.0, 1.0, 1),))
        assert remove_simultaneous(res) is res

    def test_no_buckets_returned_as_is(self):
        res = vlb_result(charge=(1.0, -1.0), prices=(5.0, 5.0))
        assert remove_simultaneous(res) is res

    def test_unabsorbable_overlap_raises(self):
        res = vlb_result(charge=(-0.5, 1.0, 1.5), prices=(5.0,) * 3,
                         discharge=((0.5, 0.5, 0.5),),
                         buckets=((5.0, 2.0, 1),))
        with pytest.raises(SimultaneityError, match="period 3"):
            remove_simultaneous(res)

    def test_non_vlb_rejected(self):
        res = replace(vlb_result((1.0,), (5.0,)), mode="ideal")
        with pytest.raises(ValueError, match="vlb"):
            remove_simultaneous(res)


class TestApplyNetDischarge:
    def test_full_discharge_empties_ledger(self):
        ledger = ValueLedger.from_buckets([ValueBucket(5.0, 1.0, 1)])
        res = vlb_result(charge=(0.0,), prices=(5.0,),
                         discharge=((1.0,),), buckets=((5.0, 1.0, 1),))
        assert apply_net_discharge(res).buckets == ()

    def test_zero_discharge_keeps_ledger(self):
        ledger = ValueLedger.from_buckets([ValueBucket(5.0, 2.5, 1)])
        res = vlb_result(charge=(0.0,), prices=(5.0,),
                         discharge=((0.0,),), buckets=((5.0, 2.5, 1),))
        assert apply_net_discharge(res) == ledger

    def test_partial_discharge_shrinks_and_drops(self):
        ledger = ValueLedger.from_buckets(
            [ValueBucket(5.0, 2.5, 1), ValueBucket(7.0, 1.0, 1)])
        res = vlb_result(charge=(0.0,), prices=(5.0,),
                         discharge=((1.0,), (1.0,)),
                         buckets=((5.0, 2.5, 1), (7.0, 1.0, 1)))
        out = apply_net_discharge(res)
        assert [(b.price, b.quantity, b.birth_interval)
                for b in out.buckets] == [(5.0, approx(1.5), 1)]

    def test_overdraw_raises(self):
        ledger = ValueLedger.from_buckets([ValueBucket(5.0, 1.0, 1)])
        res = vlb_result(charge=(0.0,), prices=(5.0,),
                         discharge=((1.5,),), buckets=((5.0, 1.0, 1),))
        with pytest.raises(LpNumericalError, match="held only"):
            apply_net_discharge(res)


class TestAssignChargeValues:
    def test_pure_charge_is_all_moved(self):
        split = assign_charge_values(vlb_result((1.0,), (5.0,)))
        assert split.local == approx((0.0,))
        assert split.moved == approx((1.0,))

    def test_round_trip_stays_local(self):
        # sell back at 4 what was bought at 3: break-even local trade
        split = assign_charge_values(vlb_result((2.0, -1.0), (3.0, 4.0)))
        assert split.local == approx((1.0, -1.0))
        assert split.moved == approx((1.0, 0.0))

    def test_multi_period_charge_all_moved(self):
        split = assign_charge_values(vlb_result((1.0, 1.0), (5.0, 3.0)))
        assert split.local == approx((0.0, 0.0))
        assert split.moved == approx((1.0, 1.0))

    def test_loss_making_round_trip_rejected(self):
        # forced to sell at 3 what was bought at 5: no break-even split
        with pytest.raises(ValuationError):
            assign_charge_values(vlb_result((1.0, -1.0), (5.0, 3.0)))

    def test_rejection_names_the_best_profit(self):
        with pytest.raises(ValuationError,
                           match=r"best profit is -2 EUR/h"):
            assign_charge_values(vlb_result((1.0, -1.0), (5.0, 3.0)))

    def test_discharge_beyond_the_charge_rejected(self):
        with pytest.raises(ValuationError,
                           match=r"of 1 MWh exceeds the 0\.5 MWh charged"):
            assign_charge_values(
                vlb_result((1.0, -2.0), (5.0, 3.0), dt=0.5))

    def test_dearest_fill_loses_money_so_the_split_breaks_even(self):
        # bought at 4, 6 and 9, sold at 7: the dearest charge alone loses
        # 2 EUR/h, the cheapest earns 3, and the mix between them breaks even
        res = vlb_result((1.0, 1.0, 1.0, -1.0), (4.0, 6.0, 9.0, 7.0))
        split = assign_charge_values(res)
        assert_meets_the_lp(res, split)
        assert local_profit(res, split) == pytest.approx(0.0, abs=1e-12)
        assert split.local == approx((0.4, 0.0, 0.6, -1.0))
        assert objective(res, split) == pytest.approx(
            objective(res, oracle_split(res)), abs=1e-12)

    @pytest.mark.parametrize("charge, prices, local", [
        ((2.0, -1.0), (0.1 + 0.2, 0.3), (1.0, -1.0)),
        ((1.0, 2.0, -1.0), (0.1 + 0.2, 0.05, 0.3), (1.0, 0.0, -1.0)),
    ])
    def test_a_loss_within_rounding_breaks_even(self, charge, prices, local):
        # 0.1 + 0.2 is 0.30000000000000004: the dearest fill loses 5.6e-17
        # EUR/h, which is rounding. With one charging period both fills are
        # the same split, so taking that loss at face value would mix two
        # equal splits (a division by zero) or reject a break-even trade.
        res = vlb_result(charge, prices)
        split = assign_charge_values(res)
        assert -1e-15 < local_profit(res, split) < 0.0
        assert split.local == local
        assert_meets_the_lp(res, split)


def oracle_split(result: ClearingResult) -> ValuationSplit:
    """The charge-valuation LP the engine solved before the price sort.

    The split LP fixes the local component at every non-charging period,
    keeps the local energy sum at zero, forbids the local trade from losing
    money at the clearing prices, and among such splits minimises the local
    profit. Raises ValuationError if no valid split exists.
    """
    T = result.n_periods
    dt = result.delta_t
    pca = result.intra_charge
    lam = result.prices
    prog = lpmod.LinearProgram(name="charge_valuation", sense="min")
    horizon = range(1, T + 1)
    local = [f"ploc[{t}]" for t in horizon]
    moved = [f"pmov[{t}]" for t in horizon]
    for var, charge, price in zip(local, pca, lam):
        lb, ub = (0.0, float("inf")) if charge > MODEL_EPS else (charge, charge)
        prog.add_variable(var, lb, ub, objective=-dt * price)
    for var in moved:
        prog.add_variable(var, 0.0, float("inf"))
    prog.add_constraint("nonneg_profit",
                        {var: -price for var, price in zip(local, lam)},
                        ">=", 0.0)
    prog.add_constraint("local_energy", dict.fromkeys(local, 1.0), "==", 0.0)
    for t, loc, mov, charge in zip(horizon, local, moved, pca):
        prog.add_constraint(f"total[{t}]", {loc: 1.0, mov: 1.0}, "==", charge)
    sol = lpmod.solve(prog)
    if sol.status != lpmod.OPTIMAL:
        raise ValuationError(
            f"charge valuation has no optimum (status {sol.status})")
    return ValuationSplit(
        local=tuple(float(sol.primal[var]) for var in local),
        moved=tuple(float(sol.primal[var]) for var in moved))


def local_profit(result: ClearingResult, split: ValuationSplit) -> float:
    """What the local trade earns at the clearing prices, EUR/h."""
    return -sum(p * x for p, x in zip(result.prices, split.local))


def objective(result: ClearingResult, split: ValuationSplit) -> float:
    """The valuation LP's objective at ``split``: the local profit, EUR."""
    return result.delta_t * local_profit(result, split)


def born(result: ClearingResult, split: ValuationSplit) -> ValueLedger:
    """The buckets ``update_ledger`` adds for ``split``."""
    dt = result.delta_t
    return ValueLedger.from_buckets(
        ValueBucket(price, dt * moved, 1)
        for price, moved in zip(result.prices, split.moved)
        if dt * moved > MODEL_EPS)


def assert_meets_the_lp(result: ClearingResult, split: ValuationSplit):
    """``split`` satisfies every row and bound of the valuation LP."""
    charge = result.intra_charge
    revenue = sum(p * c for p, c in zip(result.prices, charge)
                  if c <= MODEL_EPS)
    assert abs(sum(split.local)) <= 1e-12 * max(1.0, sum(map(abs, charge)))
    assert local_profit(result, split) >= -MODEL_EPS * max(1.0, abs(revenue))
    for c, loc, mov in zip(charge, split.local, split.moved):
        assert loc + mov == pytest.approx(c, abs=1e-12)
        if c > MODEL_EPS:
            assert -1e-12 <= loc and -1e-12 <= mov
        else:
            assert (loc, mov) == (c, 0.0)


def valued_results(monkeypatch, scenarios, runs: int
                   ) -> list[ClearingResult]:
    """Every result whose charge ``update_ledger`` valued while the first
    ``runs`` vlb runs of ``scenarios`` that clear ran, ranges off."""
    valued = []
    assign = storage_ledger.assign_charge_values

    def record(result):
        valued.append(result)
        return assign(result)

    monkeypatch.setattr(storage_ledger, "assign_charge_values", record)
    for scenario in scenarios:
        if runs == 0:
            break
        try:
            run_scenario(replace(scenario, mode="vlb"), compute_ranges=False)
        except InfeasibleError:
            continue
        runs -= 1
    assert runs == 0
    return valued


def fixture_scenarios():
    for name in FIXTURE_NAMES:
        yield parse_scenario(
            (resources.files("artifact") / "fixtures" / f"{name}.json")
            .read_text())


def random_scenarios():
    """Seed-7 ``random_vlb_scenario`` draws."""
    rng = np.random.default_rng(7)
    while True:
        yield random_vlb_scenario(rng)


def day_scenarios():
    """Two-interval, 12-period ``random_interval`` draws."""
    rng = np.random.default_rng(12)
    while True:
        capacity = float(rng.uniform(0.5, 3.0))
        dt = float(rng.choice([0.5, 1.0]))
        yield Scenario(StorageSpec(capacity, 0.0), (
            random_interval(rng, capacity, penalty=True, n_periods=12,
                            delta_t=dt),
            random_interval(rng, capacity, penalty=True, n_periods=12,
                            delta_t=dt, end_level=0.0)), "vlb")


def near_tie(price: float, prices: set[float]) -> bool:
    """``price`` lies within 1e-12 relative of another of ``prices``."""
    return any(0.0 < abs(price - q) <= 1e-12 * max(abs(price), abs(q))
               for q in prices)


class TestPriceSortAgainstTheLp:
    """The price sort makes the split the valuation LP made: it meets the
    LP's rows and bounds, reaches its objective, and gives the ledger the
    same buckets. Only two charging prices within 1e-12 relative of each
    other, which the simplex's pivot tolerance counts as tied, may send
    the moved energy to a different one of them."""

    @pytest.mark.parametrize("source, runs, floor", [
        (fixture_scenarios, 4, 6), (random_scenarios, 400, 240),
        (day_scenarios, 100, 40)])
    def test_split_matches_the_oracle(self, monkeypatch, source, runs, floor):
        valued = valued_results(monkeypatch, source(), runs)
        assert len(valued) >= floor
        near_ties = 0
        for res in valued:
            split, want = assign_charge_values(res), oracle_split(res)
            assert_meets_the_lp(res, split)
            assert abs(objective(res, split) - objective(res, want)) \
                <= 1e-12 * max(1.0, abs(objective(res, want)))
            got_ledger, want_ledger = born(res, split), born(res, want)
            assert got_ledger.total == pytest.approx(want_ledger.total,
                                                     abs=1e-12)
            got = {b.price: b.quantity for b in got_ledger.buckets}
            ref = {b.price: b.quantity for b in want_ledger.buckets}
            if got.keys() == ref.keys():
                for price, qty in got.items():
                    assert abs(qty - ref[price]) <= 1e-12 * max(1.0, qty)
                continue
            charging = {p for p, c in zip(res.prices, res.intra_charge)
                        if c > MODEL_EPS}
            assert all(near_tie(p, charging) for p in got.keys() ^ ref.keys())
            near_ties += 1
        assert near_ties < 0.01 * len(valued)


class TestLedgerUpdateSolvesNoLp:
    def test_one_solve_per_interval(self, monkeypatch):
        # every interval charges, so every ledger update values its charge
        scn = Scenario(StorageSpec(10.0, 0.0), tuple(
            interval([12.0], [1.0], [[1.0]], [[3.0]], level, 2.0)
            for level in (1.0, 2.0, 3.0)), "vlb")
        solved = []
        solve = lpmod.solve

        def count(prog, *args, **kwargs):
            solved.append(prog.name)
            return solve(prog, *args, **kwargs)

        monkeypatch.setattr(lpmod, "solve", count)
        assert len(valued_results(monkeypatch, [scn], 1)) == 3
        assert len(solved) == 3, solved


class TestUpdateLedger:
    def test_charge_becomes_bucket(self):
        scn = table1_scenario("vlb")
        res = clear_vlb(scn.intervals[0], STORAGE, ValueLedger())
        ledger = update_ledger(res, interval_index=1)
        assert [(b.price, b.quantity, b.birth_interval)
                for b in ledger.buckets] == [(approx(5.0), approx(1.0), 1)]

    def test_discharge_empties_bucket(self):
        scn = table1_scenario("vlb")
        first = clear_vlb(scn.intervals[0], STORAGE, ValueLedger())
        ledger = update_ledger(first, 1)
        second = clear_vlb(scn.intervals[1], STORAGE, ledger)
        assert update_ledger(second, 2).buckets == ()

    def test_equal_price_periods_merge(self):
        res = vlb_result(charge=(1.0, 1.0), prices=(5.0, 5.0))
        ledger = update_ledger(res, interval_index=3)
        assert [(b.price, b.quantity, b.birth_interval)
                for b in ledger.buckets] == [(5.0, approx(2.0), 3)]

    def test_total_tracks_final_content_across_a_run(self):
        run = run_scenario(table4_scenario("vlb"))
        ledgers = list(run.ledgers_before[1:]) + [run.final_ledger]
        for res, after in zip(run.results, ledgers):
            assert after.total == approx(res.final_content)

    def test_drifted_total_raises(self):
        res = replace(vlb_result((1.0,), (5.0,)), final_content=5.0)
        with pytest.raises(LpNumericalError, match="drifted"):
            update_ledger(res, 1)


class TestApplyDiscount:
    LEDGER = ValueLedger.from_buckets([ValueBucket(20.0, 2.5, 1)])

    def test_fresh_bucket_exempt(self):
        assert apply_discount(self.LEDGER, 0.25, current_interval=1) \
            == self.LEDGER

    def test_single_and_repeated_aging(self):
        aged = apply_discount(self.LEDGER, 0.25, current_interval=2)
        assert aged.buckets[0].price == approx(15.0)
        again = apply_discount(aged, 0.25, current_interval=3)
        assert again.buckets[0].price == approx(11.25)
        assert again.buckets[0].quantity == approx(2.5)
        assert again.buckets[0].birth_interval == 1

    def test_only_older_births_age(self):
        ledger = ValueLedger.from_buckets(
            [ValueBucket(10.0, 1.0, 1), ValueBucket(10.0, 1.0, 2)])
        out = apply_discount(ledger, 0.25, current_interval=2)
        assert [(b.price, b.birth_interval) for b in out.buckets] \
            == [(approx(7.5), 1), (10.0, 2)]

    def test_zero_rate_is_identity(self):
        assert apply_discount(self.LEDGER, 0.0, 5) is self.LEDGER

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            apply_discount(self.LEDGER, 1.0, 2)


class TestClearVlbPostprocessing:
    def test_clear_vlb_output_never_overlaps(self):
        # a stored bucket plus cheap late generation tempts the LP into
        # charging and discharging in the same period; the published result
        # must not do that
        scn = table4_scenario("vlb")
        ledger = ValueLedger.from_buckets([ValueBucket(1.0, 2.0, 1)])
        res = clear_vlb(scn.intervals[1], StorageSpec(2.5, 0.0), ledger)
        for t in range(res.n_periods):
            overlap = (res.intra_charge[t] > 1e-9 and
                       sum(row[t] for row in res.inter_discharge) > 1e-9)
            assert not overlap
