"""Settlement surpluses, cycle detection and cost-recovery audits.

Expected surpluses are hand-computed from the clearing outcomes pinned in
test_clearing.py (price times quantity, interval by interval).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import artifact.cli
import artifact.metrics
from artifact.cli import compare
from artifact.errors import InfeasibleError
from artifact.metrics import (
    PRICE_SELECTIONS,
    VERDICT_FAIL,
    VERDICT_INDETERMINATE,
    VERDICT_PASS,
    cost_recovery_audit,
    detect_cycles,
    participant_surpluses,
    social_welfare,
)
from artifact.model import (MODES, Scenario, StorageSpec, ValueBucket,
                            ValueLedger)
from artifact.runner import run_scenario
from helpers import (
    interval,
    random_ledger,
    random_vlb_scenario,
    table1_scenario,
    table4_scenario,
    table5_scenario,
    table6_scenario,
)


def approx(x):
    return pytest.approx(x, abs=1e-6)


def run(build, mode, **kw):
    r = run_scenario(build(mode, **kw) if kw else build(mode))
    return list(r.results), list(r.scenario.intervals)


def storage_lines(lines):
    return [ln.surplus for ln in lines if ln.kind == "storage"]


class TestParticipantSurpluses:
    def test_line_layout_is_deterministic(self):
        results, bids = run(table1_scenario, "split_end_level")
        lines = participant_surpluses(results, bids)
        assert [(ln.participant, ln.kind, ln.interval_index)
                for ln in lines] == [
            ("l1", "load", 1), ("g1", "generator", 1), ("g2", "generator", 1),
            ("storage", "storage", 1),
            ("l1", "load", 2), ("g1", "generator", 2), ("g2", "generator", 2),
            ("storage", "storage", 2)]

    def test_split_storage_loses_at_range_min(self):
        results, bids = run(table1_scenario, "split_end_level")
        lines = participant_surpluses(results, bids,
                                      price_selection="range_min")
        # buys 1 MWh at 5, sells it back at the low end 2: net -3
        assert storage_lines(lines) == approx([-5.0, 2.0])

    def test_vlb_storage_breaks_even_at_range_min(self):
        results, bids = run(table1_scenario, "vlb")
        lines = participant_surpluses(results, bids,
                                      price_selection="range_min")
        surpluses = storage_lines(lines)
        assert surpluses == approx([-5.0, 5.0])
        assert sum(surpluses) == approx(0.0)

    def test_point_and_range_max(self):
        results, bids = run(table1_scenario, "split_end_level")
        point = storage_lines(participant_surpluses(results, bids, "point"))
        assert point == approx([-5.0, 2.0])
        hi = storage_lines(participant_surpluses(results, bids, "range_max"))
        assert hi == approx([-5.0, 9.0])

    def test_load_and_generator_lines(self):
        results, bids = run(table1_scenario, "split_end_level")
        lines = participant_surpluses(results, bids)
        by_key = {(ln.participant, ln.interval_index): ln.surplus
                  for ln in lines}
        assert by_key[("l1", 2)] == approx(30.0)  # (12 - 2) * 3
        assert by_key[("g1", 2)] == approx(0.0)   # dispatched at cost
        assert by_key[("g2", 1)] == approx(0.0)   # not dispatched

    def test_unknown_selection_rejected(self):
        results, bids = run(table1_scenario, "vlb")
        with pytest.raises(ValueError, match="price_selection"):
            participant_surpluses(results, bids, "median")

    def test_range_selection_requires_ranges(self):
        r = run_scenario(table1_scenario("vlb"), compute_ranges=False)
        with pytest.raises(ValueError, match="range"):
            participant_surpluses(list(r.results),
                                  list(r.scenario.intervals), "range_min")

    def test_alignment_checked(self):
        results, bids = run(table1_scenario, "vlb")
        with pytest.raises(ValueError, match="2 results for 1 intervals"):
            participant_surpluses(results, bids[:1])


class TestDetectCycles:
    def test_table4_cycles_differ_by_mode(self):
        expected = {
            "ideal": [(1, 1), (2, 3)],
            "split_end_level": [(1, 2), (3, 3)],
            "vlb": [(1, 3)],
        }
        for mode, cycles in expected.items():
            results, _ = run(table4_scenario, mode)
            assert detect_cycles(results) == cycles, mode

    def test_table5_cycles(self):
        results, _ = run(table5_scenario, "split_end_level")
        assert detect_cycles(results) == [(1, 2), (3, 4), (5, 6)]
        results, _ = run(table5_scenario, "vlb")
        assert detect_cycles(results) == [(1, 6)]
        results, _ = run(table5_scenario, "vlb", discount_rate=0.25)
        assert detect_cycles(results) == [(1, 4), (5, 6)]

    def test_open_tail_is_not_a_cycle(self):
        results, _ = run(table6_scenario, "vlb")
        assert detect_cycles(results) == []


class TestSocialWelfare:
    def test_whole_horizon_totals(self):
        for mode, expected in [("ideal", 21.0), ("split_end_level", -1.0),
                               ("vlb", 16.0)]:
            results, bids = run(table4_scenario, mode)
            assert social_welfare(results, bids, (1, 3)) == approx(expected)

    def test_sub_spans_add_up(self):
        results, bids = run(table4_scenario, "vlb")
        total = social_welfare(results, bids, (1, 3))
        parts = (social_welfare(results, bids, (1, 1))
                 + social_welfare(results, bids, (2, 3)))
        assert parts == approx(total)

    def test_out_of_range_span_rejected(self):
        results, bids = run(table4_scenario, "vlb")
        with pytest.raises(ValueError, match="out of range"):
            social_welfare(results, bids, (0, 3))
        with pytest.raises(ValueError, match="out of range"):
            social_welfare(results, bids, (2, 9))


class TestCostRecoveryAudit:
    def test_split_first_cycle_fails(self):
        results, bids = run(table5_scenario, "split_end_level")
        reports = cost_recovery_audit(results, bids)
        assert [(r.start, r.end, r.verdict) for r in reports] == [
            (1, 2, VERDICT_FAIL), (3, 4, VERDICT_PASS),
            (5, 6, VERDICT_PASS)]
        assert reports[0].storage_surplus == approx(-12.5)
        assert all(r.closed for r in reports)

    def test_vlb_single_cycle_passes(self):
        results, bids = run(table5_scenario, "vlb")
        reports = cost_recovery_audit(results, bids)
        assert [(r.start, r.end, r.verdict) for r in reports] == [
            (1, 6, VERDICT_PASS)]
        assert reports[0].storage_surplus == approx(2.5)

    def test_discount_trades_welfare_for_a_loss(self):
        results, bids = run(table5_scenario, "vlb", discount_rate=0.25)
        reports = cost_recovery_audit(results, bids)
        assert [(r.start, r.end, r.verdict) for r in reports] == [
            (1, 4, VERDICT_FAIL), (5, 6, VERDICT_PASS)]
        assert reports[0].storage_surplus == approx(-12.5)

    def test_open_stretch_is_indeterminate(self):
        results, bids = run(table6_scenario, "vlb")
        reports = cost_recovery_audit(results, bids)
        assert len(reports) == 1
        rep = reports[0]
        assert (rep.start, rep.end, rep.closed) == (1, 2, False)
        assert rep.verdict == VERDICT_INDETERMINATE
        assert rep.storage_surplus == approx(-6.5)
        assert rep.social_welfare == approx(25.5)

    def test_open_stretches_on_either_side_of_one_empty_boundary(self):
        # The store starts with 1 MWh, empties at the one interior boundary
        # and ends holding 1 MWh again: no closed cycle, so both intervals
        # form one open stretch. The ledger holds the starting 1 MWh.
        scn = Scenario(StorageSpec(capacity=2.5, initial_energy=1.0), (
            interval([10.0], [2.0], [[12.0]], [[2.0]], 0.0),
            interval([10.0], [0.0], [[2.0]], [[2.0]], 1.0),
        ), "split_end_level", initial_ledger=ValueLedger.from_buckets(
            [ValueBucket(5.0, 1.0, 1)]))
        results, bids = list(run_scenario(scn).results), list(scn.intervals)
        assert [res.final_content for res in results] == approx([0.0, 1.0])
        assert detect_cycles(results) == []
        reports = cost_recovery_audit(results, bids)
        assert [(r.start, r.end, r.closed, r.verdict) for r in reports] == [
            (1, 2, False, VERDICT_INDETERMINATE)]
        storage = sum(storage_lines(participant_surpluses(results, bids)))
        assert reports[0].storage_surplus == approx(storage)
        assert reports[0].social_welfare == approx(
            social_welfare(results, bids, (1, 2)))

    def test_vlb_cycle_never_fails_at_range_min(self):
        results, bids = run(table1_scenario, "vlb")
        reports = cost_recovery_audit(results, bids, "range_min")
        assert [(r.start, r.end, r.verdict) for r in reports] == [
            (1, 2, VERDICT_PASS)]


class TestDecompositionIdentity:
    """Cycle welfare equals the sum of all participant surpluses whenever
    every trade settles at one common price per period."""

    @pytest.mark.parametrize("mode", ["ideal", "split_end_level", "vlb"])
    @pytest.mark.parametrize("selection", ["point", "range_min", "range_max"])
    def test_surpluses_sum_to_welfare(self, mode, selection):
        results, bids = run(table5_scenario, mode)
        lines = participant_surpluses(results, bids, selection)
        for start, end in detect_cycles(results):
            total = sum(ln.surplus for ln in lines
                        if start <= ln.interval_index <= end)
            assert total == approx(
                social_welfare(results, bids, (start, end))), (mode, selection)


class TestSingleSettlement:
    """The audit settles only the storage, and its spans carry exactly the
    storage lines of the full settlement."""

    def test_audit_matches_storage_lines(self):
        rng = np.random.default_rng(20261018)
        audited = {(start, closed): 0 for closed in (False, True)
                   for start in ("empty start", "stocked start")}
        for k in range(24):
            scn = random_vlb_scenario(rng, n_intervals=3, max_periods=2)
            start = "stocked start" if k % 2 else "empty start"
            if k % 2:
                cap = scn.storage.capacity
                ledger = random_ledger(rng, cap)
                while not ledger.buckets:
                    ledger = random_ledger(rng, cap)
                scn = replace(scn, storage=StorageSpec(cap, ledger.total),
                              initial_ledger=ledger)
            for mode in MODES:
                try:
                    run_ = run_scenario(replace(scn, mode=mode))
                except InfeasibleError:
                    continue
                results, bids = list(run_.results), list(scn.intervals)
                for selection in PRICE_SELECTIONS:
                    lines = participant_surpluses(results, bids, selection)
                    for rep in cost_recovery_audit(results, bids, selection):
                        want = sum([ln.surplus for ln in lines
                                    if ln.kind == "storage"
                                    and rep.start <= ln.interval_index
                                    <= rep.end])
                        assert rep.storage_surplus == want, (k, mode,
                                                             selection)
                        audited[start, rep.closed] += 1
        assert min(audited.values()) >= 10, audited

    def test_one_mode_settles_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return participant_surpluses(*args, **kwargs)

        monkeypatch.setattr(artifact.cli, "participant_surpluses", counted)
        monkeypatch.setattr(artifact.metrics, "participant_surpluses",
                            counted)
        compare(table1_scenario("vlb"), ["vlb"])
        assert len(calls) == 1
