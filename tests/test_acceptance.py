"""End-to-end acceptance checks.

Each class pins one headline behaviour of the engine: the packaged fixture
outcomes (dispatch, prices, price ranges, welfare, ledger trajectories),
three seeded random-instance families (overlap removal, cost recovery,
brute-force equivalence), solver certification, and report determinism.
All numeric comparisons use the 1e-6 tolerance the fixtures are stated at.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from artifact import lp as lpmod
from artifact.cli import FIXTURE_NAMES, main
from artifact.clearing import (
    clear_split,
    clear_vlb,
    dispatch_welfare,
)
from artifact.errors import InfeasibleError
from artifact.lp import check_certificates
from artifact.metrics import (
    detect_cycles,
    participant_surpluses,
    social_welfare,
)
from artifact.model import (
    AUDIT_EPS,
    MODES,
    GeneratorBid,
    IntervalSpec,
    LoadBid,
    StorageSpec,
    TimeGrid,
)
from artifact.runner import run_scenario
from artifact.storage_ledger import remove_simultaneous
from helpers import (
    random_interval,
    random_ledger,
    random_vlb_scenario,
    table1_scenario,
    table4_scenario,
    table5_scenario,
    table6_scenario,
)

TOL = 1e-6


def approx(x):
    return pytest.approx(x, abs=TOL)


def storage_cycle_surplus(results, bids, span, selection):
    lines = participant_surpluses(results, bids, selection)
    start, end = span
    return sum(ln.surplus for ln in lines
               if ln.kind == "storage" and start <= ln.interval_index <= end)


def flat_price_duals(lp, price):
    """Row duals of one flat price per period on a one-hour interval LP with
    an empty ledger: balance and storage-level rows carry the price, the
    storage capacity rows 0 and the end-level row -price."""
    by_kind = {"balance": price, "level": price, "intra": price,
               "capacity_lo": 0.0, "capacity_hi": 0.0, "end_level": -price}
    return {label: by_kind[label.split("[")[0]]
            for label in lp.constraint_labels}


class TestTwoIntervalSequentialClearing:
    """A forced charge in a dead first interval, then a discharge."""

    def test_end_level_mode_dispatch_levels_and_prices(self):
        run = run_scenario(table1_scenario("split_end_level"))
        r1, r2 = run.results
        assert [r.level[-1] for r in run.results] == approx([1.0, 0.0])
        assert (r1.load("l1")[0], r1.gen("g1")[0], r1.gen("g2")[0]) \
            == approx((0.0, 1.0, 0.0))
        assert (r2.load("l1")[0], r2.gen("g1")[0], r2.gen("g2")[0]) \
            == approx((3.0, 2.0, 0.0))
        assert r1.prices == approx((5.0,))
        assert r2.price_ranges[0] == approx((2.0, 9.0))

    def test_penalty_mode_never_charges(self):
        run = run_scenario(table1_scenario("split_penalty"))
        r1, r2 = run.results
        assert r1.storage_injection == approx((0.0,))
        assert r2.storage_injection == approx((0.0,))
        assert r1.prices == approx((5.0,))
        assert r2.prices == approx((9.0,))


class TestValueBucketsRestoreCostRecovery:
    """Stored energy re-offered at its purchase value keeps the storage
    whole at the low end of every price range."""

    def test_bucket_flow_and_prices(self):
        run = run_scenario(table1_scenario("vlb"))
        r1, r2 = run.results
        assert r1.intra_charge == approx((1.0,))
        assert sum(r2.total_inter_discharge) == approx(1.0)
        assert r1.prices == approx((5.0,))
        assert r2.price_ranges[0] == approx((5.0, 9.0))

    def test_storage_cycle_surplus_at_the_low_endpoint(self):
        vlb = run_scenario(table1_scenario("vlb"))
        surplus = storage_cycle_surplus(
            list(vlb.results), list(vlb.scenario.intervals), (1, 2),
            "range_min")
        assert surplus == approx(0.0)

        split = run_scenario(table1_scenario("split_end_level"))
        surplus = storage_cycle_surplus(
            list(split.results), list(split.scenario.intervals), (1, 2),
            "range_min")
        assert surplus == approx(-3.0)


class TestThreeIntervalWelfareComparison:
    def test_welfare_by_mode(self):
        for mode, expected in [("ideal", 21.0), ("split_end_level", -1.0),
                               ("vlb", 16.0)]:
            run = run_scenario(table4_scenario(mode))
            total = social_welfare(list(run.results),
                                   list(run.scenario.intervals), (1, 3))
            assert total == approx(expected), mode

    def test_bucket_energy_rides_through_the_middle_interval(self):
        run = run_scenario(table4_scenario("vlb"))
        carried = [0.0 if r.inter_level is None else
                   sum(row[-1] for row in r.inter_level)
                   for r in run.results]
        assert carried == approx([0.0, 2.5, 0.0])


class TestSixIntervalHorizonWithDiscount:
    def test_welfare_by_mode(self):
        for mode, kw, expected in [
            ("ideal", {}, 855.0),
            ("split_end_level", {}, 842.5),
            ("vlb", {}, 772.5),
            ("vlb", {"discount_rate": 0.25}, 807.5),
        ]:
            run = run_scenario(table5_scenario(mode, **kw))
            total = social_welfare(list(run.results),
                                   list(run.scenario.intervals), (1, 6))
            assert total == approx(expected), (mode, kw)

    def test_discounting_releases_the_bucket_midway(self):
        run = run_scenario(table5_scenario("vlb", discount_rate=0.25))
        discharged = [sum(r.total_inter_discharge) for r in run.results]
        assert discharged == approx([0.0, 0.0, 0.0, 2.5, 0.0, 2.5])


class TestPriceMultiplicityAcrossModes:
    """Identical physical outcomes can carry different price ranges."""

    def test_dispatch_and_welfare_identical_in_every_mode(self):
        outcomes = []
        for mode in ("ideal", "split_end_level", "vlb"):
            run = run_scenario(table6_scenario(mode))
            d = sum((r.load("l1") for r in run.results), ())
            p = sum((r.gen("g1") for r in run.results), ())
            total = social_welfare(list(run.results),
                                   list(run.scenario.intervals), (1, 2))
            outcomes.append((d, p, total))
        base_d, base_p, base_sw = outcomes[0]
        assert base_sw == approx(25.5)
        for d, p, sw in outcomes[1:]:
            assert d == approx(base_d)
            assert p == approx(base_p)
            assert sw == approx(base_sw)

    def test_perfect_foresight_narrows_the_third_period_range(self):
        ideal = run_scenario(table6_scenario("ideal"))
        assert ideal.results[0].price_ranges[2] == approx((3.0, 4.0))
        for mode in ("split_end_level", "vlb"):
            run = run_scenario(table6_scenario(mode))
            assert run.results[0].price_ranges[2][1] == approx(6.0)

    def test_sequential_third_period_price_floor(self):
        # In interval 1 of the sequential modes the store is full after
        # period 2, so the period-3 price need only reach the period-2
        # price, which the cost-2 generator at its cap holds at 2 or more.
        # The floor is 2; the next two tests give the evidence, and
        # docs/decisions.md records why a reference value of 3 was dropped.
        for mode in ("split_end_level", "vlb"):
            run = run_scenario(table6_scenario(mode))
            assert run.results[0].price_ranges[2][0] == approx(2.0), mode

    def test_flat_price_two_supports_the_first_interval(self):
        # Flat duals of 2 per period pass every optimality certificate on
        # the cleared interval-1 LP of both sequential modes, so 2 lies on
        # the optimal dual face. At 1.9 the cost-2 generator at its period-2
        # cap would rather produce less, and complementarity fails.
        for mode in ("split_end_level", "vlb"):
            first = run_scenario(table6_scenario(mode),
                                 compute_ranges=False).results[0]
            for price, supported in ((2.0, True), (1.9, False)):
                trial = replace(first.lp_solution,
                                duals=flat_price_duals(first.lp, price))
                report = check_certificates(first.lp, trial)
                assert report.ok is supported, (mode, price, report)

    def test_third_period_range_from_finite_differences(self, monkeypatch):
        # The range endpoints are the one-sided derivatives of the optimal
        # value (Jansen, de Jong, Roos & Terlaky, EJOR 101, 1997): eps MW
        # of free supply in period 3 earns floor * eps, and eps MW of extra
        # demand costs the other bids ceiling * eps. eps is well inside the
        # piece where the optimal value is linear.
        def no_ranging(*args, **kwargs):
            raise AssertionError("dual_range must not be called")

        monkeypatch.setattr("artifact.lp.dual_range", no_ranging)
        eps, utility = 0.01, 100.0
        supply = GeneratorBid("g_eps", (0.0, 0.0, 0.0), (0.0, 0.0, eps))
        demand = LoadBid("l_eps", (0.0, 0.0, utility), (0.0, 0.0, eps))
        for mode in ("split_end_level", "vlb"):
            scenario = table6_scenario(mode)
            first = scenario.intervals[0]

            def objective(iv):
                run = run_scenario(replace(scenario, intervals=(iv,)),
                                   compute_ranges=False)
                return run.results[0].objective

            base = objective(first)
            more_supply = objective(
                replace(first, generators=first.generators + (supply,)))
            more_demand = objective(replace(first, loads=first.loads + (demand,)))
            floor = (more_supply - base) / eps
            ceiling = utility - (more_demand - base) / eps
            assert (floor, ceiling) == approx((2.0, 6.0)), mode


class TestOverlapRemovalProperties:
    """The rewrite terminates, removes every overlap, and changes nothing
    that settles: dispatch, per-bucket energy, net injection, objective."""

    def test_500_random_instances(self):
        rng = np.random.default_rng(20260822)
        successes = 0
        attempts = 0
        while successes < 500:
            attempts += 1
            assert attempts < 5000, "too many infeasible draws"
            capacity = float(rng.uniform(0.5, 3.0))
            iv = random_interval(rng, capacity)
            ledger = random_ledger(rng, capacity)
            try:
                res = clear_vlb(iv, StorageSpec(capacity, 0.0), ledger,
                                compute_ranges=False)
            except InfeasibleError:
                continue
            T, dt = res.n_periods, res.delta_t
            primal = res.lp_solution.primal
            raw_charge = tuple(primal[f"pCa[{t + 1}]"] for t in range(T))
            raw_rows = tuple(
                tuple(primal[f"pD[{v + 1},{t + 1}]"] for t in range(T))
                for v in range(len(res.ledger.buckets)))
            raw = replace(res, intra_charge=raw_charge,
                          inter_discharge=raw_rows)

            out = remove_simultaneous(raw)

            # no simultaneous charge and bucket discharge remains
            for t in range(T):
                assert not (out.intra_charge[t] > TOL and
                            sum(r[t] for r in out.inter_discharge) > TOL)
            # market dispatch untouched
            assert out.load_dispatch == raw.load_dispatch
            assert out.gen_dispatch == raw.gen_dispatch
            # summed storage instruction per period is preserved
            for t in range(T):
                before = raw_charge[t] - sum(r[t] for r in raw_rows)
                after = (out.intra_charge[t]
                         - sum(r[t] for r in out.inter_discharge))
                assert after == pytest.approx(before, abs=TOL)
            # per-bucket energy, hence the objective, is preserved
            rebuilt = dispatch_welfare(out, iv) - sum(
                bucket.price * dt * sum(row)
                for bucket, row in zip(ledger.buckets, out.inter_discharge))
            assert rebuilt == pytest.approx(res.objective, abs=TOL)
            successes += 1
        assert successes >= 500


class TestCostRecoveryProperties:
    """On scenarios whose buckets are all spent by the end, storage never
    loses money at the low price endpoint, and price-taking loads and
    generators never lose at either endpoint in any mode."""

    def test_500_random_scenarios(self):
        rng = np.random.default_rng(8220226)
        successes = 0
        attempts = 0
        while successes < 500:
            attempts += 1
            assert attempts < 6000, "too many rejected draws"
            scn = random_vlb_scenario(rng, n_intervals=2, max_periods=2)
            try:
                vlb_run = run_scenario(scn)
            except InfeasibleError:
                continue
            if vlb_run.final_ledger.buckets:
                continue
            try:
                other_runs = [run_scenario(replace(scn, mode=m))
                              for m in MODES if m != "vlb"]
            except InfeasibleError:
                continue

            results = list(vlb_run.results)
            bids = list(scn.intervals)
            for span in detect_cycles(results):
                assert storage_cycle_surplus(
                    results, bids, span, "range_min") >= -TOL

            for run in [vlb_run] + other_runs:
                rs, ivs = list(run.results), list(run.scenario.intervals)
                for selection in ("range_min", "range_max"):
                    for ln in participant_surpluses(rs, ivs, selection):
                        if ln.kind in ("load", "generator"):
                            assert ln.surplus >= -TOL, (
                                run.mode, selection, ln)
            successes += 1
        assert successes >= 500


def least_storage_settlement(result) -> float:
    """The least storage settlement ``-sum_t inj_t * y[balance[t]]`` of one
    clearing over its optimal dual face, by HiGHS on the face's standard
    form; -inf where the face lets it fall without bound."""
    face, sgn = lpmod._dual_face(result.lp, result.lp_solution, "balance[1]")
    std = lpmod._Standard(face)
    # the face holds sgn times the published duals
    c = np.zeros(std.n + std.m)
    for t, inj in enumerate(result.storage_injection):
        c[face.variable_names.index(f"y[balance[{t + 1}]]")] = -sgn * inj
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(std.lb, std.ub)]
    res = scipy.optimize.linprog(
        c, A_eq=std.A, b_eq=std.b, bounds=bounds, method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status == 3:
        return -math.inf
    assert res.status == 0, (result.lp.name, res.message)
    return res.fun


class TestCostRecoveryAtEverySupportingPrice:
    """Every closed vlb cycle recovers its cost at every supporting price:
    the least storage settlement over each of its clearings' optimal dual
    faces sums to at least -AUDIT_EPS. The same check finds split_end_level
    cycles that lose money at some supporting price, so it is not
    vacuous."""

    def test_random_vlb_scenarios(self):
        rng = np.random.default_rng(3)
        runs = 0
        checked = {"vlb": [], "split_end_level": []}
        while runs < 100:
            scn = random_vlb_scenario(rng)
            try:
                by_mode = {mode: run_scenario(replace(scn, mode=mode),
                                              compute_ranges=False)
                           for mode in checked}
            except InfeasibleError:
                continue
            runs += 1
            for mode, run in by_mode.items():
                results = list(run.results)
                for start, end in detect_cycles(results):
                    checked[mode].append(sum(
                        least_storage_settlement(r)
                        for r in results[start - 1:end]))
        vlb, split = checked["vlb"], checked["split_end_level"]
        # seed 3 checks 135 closed vlb cycles; 26 of its 172 closed
        # split_end_level cycles lose money at some supporting price
        assert len(vlb) >= 100, len(vlb)
        assert min(vlb) >= -AUDIT_EPS
        assert sum(v < -AUDIT_EPS for v in split) >= 1, split


class TestBruteForceEquivalence:
    """On 0.5 MW grids with unit-hour periods every clearing vertex lies on
    the grid, so exhaustive enumeration must reproduce the LP optimum."""

    GRID = 0.5

    def _brute_force(self, iv, cap, e_init):
        U = iv.loads[0].utility
        C = iv.generators[0].cost
        steps = lambda cap_t: np.arange(0.0, cap_t + 1e-9, self.GRID)
        d_axes = [steps(m) for m in iv.loads[0].max_quantity]
        p_axes = [steps(m) for m in iv.generators[0].max_quantity]
        T = iv.grid.n_periods
        best = None
        for d in itertools.product(*d_axes):
            for p in itertools.product(*p_axes):
                e, ok = e_init, True
                for t in range(T):
                    e += p[t] - d[t]
                    if not -1e-9 <= e <= cap + 1e-9:
                        ok = False
                        break
                if not ok or abs(e - iv.end_level) > 1e-9:
                    continue
                value = sum(U[t] * d[t] - C[t] * p[t] for t in range(T))
                if best is None or value > best:
                    best = value
        return best

    def test_100_grid_instances(self):
        rng = np.random.default_rng(5050505)
        matched = 0
        attempts = 0
        while matched < 100:
            attempts += 1
            assert attempts < 2000, "too many draws"
            T = int(rng.integers(1, 3))
            cap = self.GRID * int(rng.integers(1, 6))
            levels = round(cap / self.GRID) + 1
            e_init = self.GRID * int(rng.integers(0, levels))
            end = self.GRID * int(rng.integers(0, levels))
            iv = IntervalSpec(
                grid=TimeGrid(T, 1.0),
                loads=(LoadBid(
                    "l1",
                    tuple(round(float(u), 2) for u in rng.uniform(0, 12, T)),
                    tuple(self.GRID * int(k) for k in rng.integers(0, 5, T)),
                ),),
                generators=(GeneratorBid(
                    "g1",
                    tuple(round(float(c), 2) for c in rng.uniform(0.5, 12, T)),
                    tuple(self.GRID * int(k) for k in rng.integers(0, 5, T)),
                ),),
                end_level=end, penalty_price=None)
            best = self._brute_force(iv, cap, e_init)
            try:
                res = clear_split(iv, StorageSpec(cap, 0.0), e_init,
                                  compute_ranges=False)
            except InfeasibleError:
                assert best is None, "LP infeasible but a grid point exists"
                continue
            assert best is not None, \
                "LP feasible but enumeration found nothing"
            assert res.objective == pytest.approx(best, abs=TOL)
            matched += 1
        assert matched >= 100


class TestEverySolveIsCertified:
    """solve() refuses any optimum whose primal/dual/gap/slackness
    certificates fail at 1e-7, so the random families above already push
    thousands of solves through that gate; here the fixture solves are
    checked to carry their verified reports."""

    def test_fixture_solves_carry_verified_certificates(self):
        cases = [
            (table1_scenario, ("ideal", "split_end_level", "split_penalty",
                               "vlb"), {}),
            (table4_scenario, ("ideal", "split_end_level", "vlb"), {}),
            (table5_scenario, ("ideal", "split_end_level", "vlb"), {}),
            (table5_scenario, ("vlb",), {"discount_rate": 0.25}),
            (table6_scenario, ("ideal", "split_end_level", "vlb"), {}),
        ]
        checked = 0
        for build, modes, kw in cases:
            for mode in modes:
                run = run_scenario(build(mode, **kw) if kw else build(mode))
                solved = [r for r in run.results if r.lp_solution is not None]
                if run.full_result is not None:
                    solved.append(run.full_result)
                for r in solved:
                    cert = r.lp_solution.certificate
                    assert cert is not None
                    assert cert.ok
                    assert cert.tolerance <= 1e-7
                    checked += 1
        assert checked >= 20


class TestStructuredReportsAreDeterministic:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_rerun_is_byte_identical(self, name, capsys):
        argv = ["--scenario", name, "--format", "structured"]
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_mode_comparison_rerun_is_byte_identical(self, capsys):
        argv = ["--scenario", "table4", "--format", "structured",
                "--compare", "ideal,split_end_level,vlb"]
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
