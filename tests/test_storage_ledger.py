"""Ledger maintenance: overlap removal, shrinking, valuation, discounting.

Expected outputs are hand-traced: each overlap move shifts discharge from
the earliest simultaneous period to the earliest absorbing period, and each
valuation split is the unique (or minimal-profit) solution of the small
break-even LP.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from artifact.clearing import ClearingResult, clear_vlb
from artifact.errors import LpNumericalError, SimultaneityError, ValuationError
from artifact.model import StorageSpec, ValueBucket, ValueLedger
from artifact.runner import run_scenario
from artifact.storage_ledger import (
    apply_discount,
    apply_net_discharge,
    assign_charge_values,
    remove_simultaneous,
    update_ledger,
)
from helpers import STORAGE, table1_scenario, table4_scenario


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
