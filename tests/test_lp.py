"""Solver unit tests: statuses, duals, dual ranges, determinism,
certificates, and cross-checks against an independent LP solver."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from artifact import clearing as clearingmod
from artifact import lp as lpmod
from artifact.cli import FIXTURE_NAMES
from artifact.clearing import clear_ideal, clear_split, clear_vlb
from artifact.errors import ScenarioError
from artifact.model import Scenario, StorageSpec, ValueLedger, parse_scenario
from artifact.runner import run_scenario
from helpers import random_interval, random_vlb_scenario
import test_point_prices as point_prices_golden
import test_reports as reports_golden

MODES = ("ideal", "split_end_level", "split_penalty", "vlb")


def single_period_market_lp() -> lpmod.LinearProgram:
    """One balance row with the storage's withdrawal fixed at 1 MW."""
    prog = lpmod.LinearProgram(name="smoke", sense="max")
    prog.add_variable("d", 0.0, 3.0, objective=12.0)
    prog.add_variable("p1", 0.0, 2.0, objective=-2.0)
    prog.add_variable("p2", 0.0, 2.0, objective=-9.0)
    prog.add_variable("pC", -1.0, -1.0)
    prog.add_constraint("balance", {"d": 1.0, "p1": -1.0, "p2": -1.0, "pC": 1.0},
                        "==", 0.0)
    return prog


class TestBasics:
    def test_single_period_market(self):
        sol = lpmod.solve(single_period_market_lp())
        assert sol.status == lpmod.OPTIMAL
        assert sol.objective == pytest.approx(32.0, abs=1e-9)
        assert sol.primal["d"] == pytest.approx(3.0, abs=1e-9)
        assert sol.primal["p1"] == pytest.approx(2.0, abs=1e-9)
        assert sol.primal["p2"] == pytest.approx(0.0, abs=1e-9)

    def test_dual_range_on_degenerate_balance_row(self):
        prog = single_period_market_lp()
        sol = lpmod.solve(prog)
        lo, hi = lpmod.dual_range(prog, sol, "balance")
        assert lo == pytest.approx(2.0, abs=1e-6)
        assert hi == pytest.approx(9.0, abs=1e-6)
        assert lo - 1e-9 <= sol.duals["balance"] <= hi + 1e-9

    def test_no_constraints_solves_on_bounds(self):
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("x", -1.0, 2.0, objective=3.0)
        prog.add_variable("y", -4.0, 5.0, objective=-2.0)
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.OPTIMAL
        assert sol.primal == {"x": 2.0, "y": -4.0}
        assert sol.objective == pytest.approx(14.0)

    def test_min_sense(self):
        prog = lpmod.LinearProgram(sense="min")
        prog.add_variable("x", 0.0, 10.0, objective=1.0)
        prog.add_constraint("floor", {"x": 1.0}, ">=", 4.0)
        sol = lpmod.solve(prog)
        assert sol.objective == pytest.approx(4.0)
        assert sol.duals["floor"] == pytest.approx(1.0)

    def test_infeasible(self):
        prog = lpmod.LinearProgram()
        prog.add_variable("x", 0.0, 1.0, objective=1.0)
        prog.add_constraint("too_high", {"x": 1.0}, "==", 2.0)
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.INFEASIBLE

    def test_unbounded(self):
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("x", 0.0, math.inf, objective=1.0)
        prog.add_variable("y", 0.0, math.inf, objective=0.0)
        prog.add_constraint("link", {"x": 1.0, "y": -1.0}, "<=", 0.0)
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.UNBOUNDED

    def test_free_variable(self):
        prog = lpmod.LinearProgram(sense="min")
        prog.add_variable("x", -math.inf, math.inf, objective=1.0)
        prog.add_constraint("anchor", {"x": 1.0}, ">=", -7.0)
        sol = lpmod.solve(prog)
        assert sol.objective == pytest.approx(-7.0)

    def test_duplicate_names_rejected(self):
        prog = lpmod.LinearProgram()
        prog.add_variable("x")
        with pytest.raises(ValueError):
            prog.add_variable("x")
        prog.add_constraint("row", {"x": 1.0}, "<=", 1.0)
        with pytest.raises(ValueError):
            prog.add_constraint("row", {"x": 1.0}, "<=", 2.0)
        with pytest.raises(ValueError):
            prog.add_constraint("bad", {"nope": 1.0}, "<=", 1.0)

    @pytest.mark.parametrize("lb, ub", [
        (math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf),
        (-math.inf, -math.inf), (2.0, 1.0)])
    def test_bounds_that_admit_no_value_are_rejected(self, lb, ub):
        prog = lpmod.LinearProgram()
        with pytest.raises(ValueError, match="bounds"):
            prog.add_variable("x", lb, ub)
        # nothing was added
        assert prog.n_variables == 0
        prog.add_variable("x", -math.inf, math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["objective", "coefficient", "rhs"])
    def test_non_finite_data_is_rejected(self, where, bad):
        prog = lpmod.LinearProgram()
        prog.add_variable("x", 0.0, 5.0)
        if where == "objective":
            with pytest.raises(ValueError, match="objective"):
                prog.add_variable("y", objective=bad)
        else:
            coef, rhs = (bad, 1.0) if where == "coefficient" else (1.0, bad)
            with pytest.raises(ValueError, match=where):
                prog.add_constraint("row", {"x": coef}, "<=", rhs)
        # nothing was added
        assert (prog.n_variables, prog.n_constraints) == (1, 0)
        prog.add_variable("y", objective=1.0)
        prog.add_constraint("row", {"x": 1.0}, "<=", 1.0)

    def test_accumulating_coefficients(self):
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("x", 0.0, 5.0, objective=1.0)
        # the same variable twice in one row: coefficients accumulate
        prog.add_constraint("twice", {"x": 1.0}, "<=", 4.0)
        sol = lpmod.solve(prog)
        assert sol.primal["x"] == pytest.approx(4.0)


class TestDeterminism:
    def test_identical_resolves(self):
        first = lpmod.solve(single_period_market_lp())
        second = lpmod.solve(single_period_market_lp())
        assert first.primal == second.primal
        assert first.duals == second.duals
        assert first.objective == second.objective

    def test_degenerate_dual_point_is_stable(self):
        # a degenerate vertex with a whole dual face: the published point
        # must be the same every run
        points = set()
        for _ in range(5):
            prog = lpmod.LinearProgram(sense="max")
            prog.add_variable("d", 0.0, 0.0, objective=12.0)
            prog.add_variable("p", 0.0, 2.0, objective=-5.0)
            prog.add_variable("pC", -math.inf, math.inf)
            prog.add_variable("e", 0.0, 2.5, objective=-2.0)
            prog.add_constraint("balance", {"d": 1, "p": -1, "pC": 1}, "==", 0.0)
            prog.add_constraint("level", {"e": 1, "pC": -1}, "==", 0.0)
            sol = lpmod.solve(prog)
            points.add(sol.duals["balance"])
        assert points == {5.0}


class TestCertificates:
    def test_optimal_solve_carries_passing_certificates(self):
        sol = lpmod.solve(single_period_market_lp())
        cert = sol.certificate
        assert cert is not None and cert.ok
        assert cert.tolerance <= 1e-7
        assert cert.primal_residual <= 1e-7
        assert cert.dual_residual <= 1e-7
        assert cert.complementarity_residual <= 1e-7
        assert cert.duality_gap <= 1e-7

    def test_certificate_catches_a_pricing_that_hides_a_column(
            self, monkeypatch):
        # max 12 d - 4 p with d = p: the optimum is 24 at d = p = 3, but a
        # pricing that never lets p improve stops at 0. The certificate
        # prices with its own product, so it sees p's reduced cost.
        prog = lpmod.LinearProgram(name="market", sense="max")
        prog.add_variable("d", 0.0, 3.0, objective=12.0)
        p = prog.add_variable("p", 0.0, 5.0, objective=-4.0)
        prog.add_constraint("balance", {"d": 1.0, "p": -1.0}, "==", 0.0)
        assert lpmod.solve(prog).objective == pytest.approx(24.0, abs=1e-9)
        pricing = lpmod._pricing

        def blind(columns):
            price = pricing(columns)

            def hiding_p(c, y):
                rc = price(c, y)
                rc[p] = 0.0
                return rc

            return hiding_p

        monkeypatch.setattr(lpmod, "_pricing", blind)
        with pytest.raises(lpmod.LpNumericalError,
                           match="optimality certificates failed"):
            lpmod.solve(prog)

    def test_checker_rejects_tampered_duals(self):
        prog = single_period_market_lp()
        sol = lpmod.solve(prog)
        bad_duals = dict(sol.duals)
        bad_duals["balance"] = 20.0  # outside the optimal dual face [2, 9]
        tampered = lpmod.LpSolution(status=sol.status, objective=sol.objective,
                                    primal=dict(sol.primal), duals=bad_duals)
        report = lpmod.check_certificates(prog, tampered)
        assert not report.ok

    def test_checker_rejects_tampered_primal(self):
        prog = single_period_market_lp()
        sol = lpmod.solve(prog)
        bad_primal = dict(sol.primal)
        bad_primal["d"] = 2.0  # breaks the balance row
        tampered = lpmod.LpSolution(status=sol.status, objective=sol.objective,
                                    primal=bad_primal, duals=dict(sol.duals))
        report = lpmod.check_certificates(prog, tampered)
        assert not report.ok

    @pytest.mark.parametrize("where", ["primal", "duals"])
    def test_nan_makes_its_residual_nan(self, where):
        prog = single_period_market_lp()
        sol = lpmod.solve(prog)
        values = {"primal": dict(sol.primal), "duals": dict(sol.duals)}
        values[where][next(iter(values[where]))] = math.nan
        report = lpmod.check_certificates(
            prog, lpmod.LpSolution(sol.status, sol.objective, **values))
        assert math.isnan(report.primal_residual if where == "primal"
                          else report.dual_residual)
        assert not report.ok


def _dense_rows(prog: lpmod.LinearProgram):
    """The LP's rows as (A, b, ops), one row of A per constraint."""
    names = list(prog.variable_names)
    A = np.zeros((prog.n_constraints, len(names)))
    b = np.zeros(prog.n_constraints)
    ops = []
    for i, (_lab, coeffs, op, rhs) in enumerate(prog._rows):
        for v, coef in coeffs.items():
            A[i, names.index(v)] += coef
        b[i] = rhs
        ops.append(op)
    return A, b, np.array(ops)


def _certificates_by_loop(prog: lpmod.LinearProgram, solution):
    """The certificate residuals computed column by column from the
    LP's rows: the reference for the vectorized check. Returns
    (A, residuals) with A the standard-form matrix [A | I]. Its products
    add each row's terms in column order and each column's in row order,
    as the check does."""
    names = list(prog.variable_names)
    n, m = len(names), prog.n_constraints
    sign = -1.0 if prog.sense == "max" else 1.0
    rows, b, ops = _dense_rows(prog)
    A = np.hstack([rows, np.eye(m)])
    lb = [prog.bounds(v)[0] for v in names] + [0.0] * m
    ub = [prog.bounds(v)[1] for v in names] + [0.0] * m
    c = [sign * prog.objective_coefficient(v) for v in names] + [0.0] * m
    for i, op in enumerate(ops):
        if op == "<=":
            ub[n + i] = math.inf
        elif op == ">=":
            lb[n + i] = -math.inf
    x = np.array([solution.primal[v] for v in names])
    y = sign * np.array([solution.duals[lab] for lab in prog.constraint_labels])
    xe = np.concatenate([x, b - sum(A[:, j] * x[j] for j in range(n))])
    scale = max([1.0] + [abs(v) for v in xe] + [abs(v) for v in b])
    primal = dual = comp = 0.0
    dual_obj = float(b @ y)
    rc = np.array(c) - sum(A[i] * y[i] for i in range(m))
    for j in range(n + m):
        primal = max(primal, lb[j] - xe[j], xe[j] - ub[j])
        r = float(rc[j])
        if r > 0:
            if lb[j] == -math.inf:
                dual = max(dual, r)
            else:
                comp = max(comp, r * (xe[j] - lb[j]) / scale)
                dual_obj += r * lb[j]
        elif r < 0:
            if ub[j] == math.inf:
                dual = max(dual, -r)
            else:
                comp = max(comp, -r * (ub[j] - xe[j]) / scale)
                dual_obj += r * ub[j]
    primal_obj = float(np.array(c[:n]) @ x)
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))
    return A, (primal / scale, dual, comp, gap)


class TestCertificatesAgainstLoop:
    def test_vectorized_check_matches_the_loop(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            prog, _ = _random_lp(rng)
            sol = lpmod.solve(prog)
            if sol.status != lpmod.OPTIMAL:
                continue
            # the optimum, then duals and primal moved off it
            moved = lpmod.LpSolution(
                sol.status, sol.objective,
                {k: v + float(rng.normal()) for k, v in sol.primal.items()},
                {k: v + float(rng.normal()) for k, v in sol.duals.items()})
            for trial in (sol, moved):
                A, want = _certificates_by_loop(prog, trial)
                std = lpmod._Standard(prog)
                assert np.array_equal(_dense(std.columns, std.m), A)
                got = lpmod.check_certificates(prog, trial)
                assert (got.primal_residual, got.dual_residual,
                        got.complementarity_residual) == want[:3]
                assert got.duality_gap == pytest.approx(want[3], abs=1e-12)
                checked += 1
        assert checked >= 100


class TestDualRange:
    def test_unique_dual_collapses_range(self):
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("d", 0.0, 3.0, objective=12.0)
        prog.add_variable("p", 0.0, 5.0, objective=-4.0)
        prog.add_constraint("balance", {"d": 1.0, "p": -1.0}, "==", 0.0)
        sol = lpmod.solve(prog)
        lo, hi = lpmod.dual_range(prog, sol, "balance")
        # d interior is impossible here (d = 3 at its bound, p = 3 interior):
        # the marginal unit is the generator, so the dual is pinned at 4
        assert lo == pytest.approx(4.0, abs=1e-6)
        assert hi == pytest.approx(4.0, abs=1e-6)

    def test_range_always_contains_published_point(self, rng=None):
        rng = np.random.default_rng(20260822)
        for _ in range(50):
            prog, _ = _random_lp(rng)
            sol = lpmod.solve(prog)
            if sol.status != lpmod.OPTIMAL:
                continue
            for label in prog.constraint_labels:
                lo, hi = lpmod.dual_range(prog, sol, label)
                assert lo - 1e-7 <= sol.duals[label] <= hi + 1e-7


def _random_lp(rng: np.random.Generator) -> tuple[lpmod.LinearProgram, dict]:
    """A small random LP plus the arrays to feed an independent solver."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    sense = "max" if rng.random() < 0.5 else "min"
    prog = lpmod.LinearProgram(name="random", sense=sense)
    c = []
    bounds = []
    for j in range(n):
        kind = rng.random()
        if kind < 0.15:
            lo, hi = -math.inf, math.inf
        elif kind < 0.25:
            v = round(float(rng.uniform(-2, 2)), 2)
            lo = hi = v
        elif kind < 0.4:
            lo, hi = round(float(rng.uniform(-3, 0)), 2), math.inf
        else:
            lo = round(float(rng.uniform(-3, 1)), 2)
            hi = lo + round(float(rng.uniform(0, 4)), 2)
        coef = round(float(rng.uniform(-5, 5)), 2)
        prog.add_variable(f"x{j}", lo, hi, objective=coef)
        c.append(coef)
        bounds.append((lo, hi))
    rows = []
    for i in range(m):
        coeffs = {f"x{j}": round(float(rng.uniform(-3, 3)), 2)
                  for j in range(n) if rng.random() < 0.8}
        if not coeffs:
            coeffs = {"x0": 1.0}
        op = ("<=", ">=", "==")[int(rng.integers(0, 3))]
        rhs = round(float(rng.uniform(-4, 4)), 2)
        prog.add_constraint(f"r{i}", coeffs, op, rhs)
        rows.append((coeffs, op, rhs))
    return prog, {"n": n, "c": c, "bounds": bounds, "rows": rows,
                  "sense": sense}


def _solve_reference_oracle(data: dict):
    """Same LP through scipy's HiGHS backend; returns (status, objective)."""
    n = len(data["c"])
    sign = -1.0 if data["sense"] == "max" else 1.0
    c = sign * np.asarray(data["c"], dtype=float)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, op, rhs in data["rows"]:
        row = np.zeros(n)
        for name, coef in coeffs.items():
            row[int(name[1:])] = coef
        if op == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif op == ">=":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in data["bounds"]]
    res = scipy.optimize.linprog(
        c, A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds, method="highs")
    if res.status == 2:
        return lpmod.INFEASIBLE, None
    if res.status == 3:
        return lpmod.UNBOUNDED, None
    assert res.status == 0, res.message
    return lpmod.OPTIMAL, sign * res.fun


class TestAgainstIndependentSolver:
    # a refresh interval of 2 runs the eta file on almost every tiny LP
    @pytest.mark.parametrize("refactor", [None, 2],
                             ids=["default", "refactor_2"])
    def test_random_lps_match_highs(self, monkeypatch, refactor):
        if refactor is not None:
            monkeypatch.setattr(lpmod, "_REFACTOR", refactor)
        rng = np.random.default_rng(7)
        optimal = 0
        for _ in range(200):
            prog, data = _random_lp(rng)
            sol = lpmod.solve(prog)
            want_status, want_obj = _solve_reference_oracle(data)
            assert sol.status == want_status
            if want_status == lpmod.OPTIMAL:
                optimal += 1
                assert sol.objective == pytest.approx(want_obj, abs=1e-6)
                assert sol.certificate is not None and sol.certificate.ok
        assert optimal >= 50  # the sample exercises the optimal path plenty


class TestScaling:
    def test_large_coefficients(self):
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("x", 0.0, 1e4, objective=1e3)
        prog.add_variable("y", 0.0, 1e4, objective=-1e3)
        prog.add_constraint("row", {"x": 1e2, "y": -1e2}, "<=", 1e5)
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.OPTIMAL
        assert sol.objective == pytest.approx(1e6)

    def test_written_text_roundtrips_numbers(self):
        prog = single_period_market_lp()
        text = lpmod.write_lp_text(prog)
        assert "maximize" in text
        assert "balance" in text
        assert "12 d" in text


def _fixture_clearings():
    """(lp, solution) of every clearing LP of the bundled fixtures, in all
    four modes, cleared without ranges."""
    out = []
    for name in FIXTURE_NAMES:
        text = (resources.files("artifact") / "fixtures"
                / f"{name}.json").read_text()
        for mode in MODES:
            scn = dataclasses.replace(parse_scenario(text), mode=mode)
            try:
                run = run_scenario(scn, compute_ranges=False)
            except ScenarioError:
                continue  # split_penalty on a fixture without penalties
            results = [r for r in run.results if r.lp is not None]
            if run.full_result is not None:
                results.append(run.full_result)
            out += [(r.lp, r.lp_solution) for r in results]
    return out


def _random_clearings(seed: int, count: int):
    """(lp, solution) of seeded ``random_interval`` split clearings."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        storage = StorageSpec(float(rng.uniform(0.5, 3.0)), 0.0)
        res = clear_split(random_interval(rng, storage.capacity), storage,
                          e_init=0.0, compute_ranges=False)
        out.append((res.lp, res.lp_solution))
    return out


def _balance_labels(prog):
    return [lab for lab in prog.constraint_labels if lab.startswith("balance")]


class TestWarmStartedFaces:
    """Face solves start at the published dual and skip phase 1; any other
    start falls back to the cold two-phase path."""

    @staticmethod
    def _spy_phases(monkeypatch):
        """Record, per ``_run_phase`` call, whether artificial columns were
        present (phase 1 and the phase 2 after it carry them)."""
        calls = []
        run_phase = lpmod._run_phase

        def spy(std, art_sign, c, *args, **kwargs):
            calls.append(art_sign.size > 0)
            return run_phase(std, art_sign, c, *args, **kwargs)

        monkeypatch.setattr(lpmod, "_run_phase", spy)
        return calls

    @pytest.mark.parametrize("source", ["fixtures", "random_interval"])
    def test_no_face_solve_runs_phase_1(self, monkeypatch, source):
        clearings = (_fixture_clearings() if source == "fixtures"
                     else _random_clearings(20261018, 40))
        calls = self._spy_phases(monkeypatch)
        ranged = 0
        for prog, sol in clearings:
            for label in _balance_labels(prog):
                del calls[:]
                lpmod.dual_range(prog, sol, label)
                # one phase per face solve, and never one with artificials
                assert calls == [False, False], (prog.name, label)
                ranged += 1
        assert ranged >= 40

    def test_vertex_start_skips_phase_1(self, monkeypatch):
        prog = lpmod.LinearProgram(sense="min")
        prog.add_variable("x", 0.0, 10.0, objective=1.0)
        prog.add_variable("y", 0.0, 10.0, objective=2.0)
        prog.add_constraint("floor", {"x": 1.0, "y": 1.0}, ">=", 4.0)
        calls = self._spy_phases(monkeypatch)
        cold = lpmod.solve(prog)
        assert True in calls  # the cold start is infeasible: phase 1 runs
        del calls[:]
        warm = lpmod.solve(prog, start=[0.0, 4.0])
        assert calls == [False]
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.primal == pytest.approx({"x": 4.0, "y": 0.0}, abs=1e-9)
        assert warm.certificate is not None and warm.certificate.ok

    def test_bounded_column_at_zero_is_basic(self, monkeypatch):
        # x = 0 lies strictly inside [-5, 5]: at the vertex (0, 3) both
        # columns are basic on the two tight rows
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("x", -5.0, 5.0, objective=1.0)
        prog.add_variable("y", 0.0, 4.0, objective=2.0)
        prog.add_constraint("cap", {"x": 1.0, "y": 1.0}, "<=", 3.0)
        prog.add_constraint("link", {"x": 1.0, "y": -1.0}, "<=", -3.0)
        fallbacks = self._spy_fallbacks(monkeypatch)
        warm = lpmod.solve(prog, start=[0.0, 3.0])
        assert fallbacks == [False]
        assert warm.objective == pytest.approx(7.0, abs=1e-9)
        assert warm.primal == pytest.approx({"x": -1.0, "y": 4.0}, abs=1e-9)

    def _assert_same_as_cold(self, prog, start):
        cold = lpmod.solve(prog)
        warm = lpmod.solve(prog, start=start)
        assert warm.status == cold.status
        if cold.status == lpmod.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.certificate is not None and warm.certificate.ok

    @staticmethod
    def _spy_fallbacks(monkeypatch):
        """Record, per crash attempt, whether it fell back."""
        fallbacks = []
        crash = lpmod._crash_basis

        def spy(std, start):
            out = crash(std, start)
            fallbacks.append(out is None)
            return out

        monkeypatch.setattr(lpmod, "_crash_basis", spy)
        return fallbacks

    def test_infeasible_start_falls_back(self, monkeypatch):
        fallbacks = self._spy_fallbacks(monkeypatch)
        # outside the bounds, and off the balance row
        for start in ([9.0, 9.0, 9.0, 9.0], [2.0, 0.0, 0.0, -1.0]):
            self._assert_same_as_cold(single_period_market_lp(), start)
        assert fallbacks == [True, True]
        rng = np.random.default_rng(11)
        for _ in range(100):
            prog, _ = _random_lp(rng)
            start = rng.uniform(-10.0, 10.0, prog.n_variables)
            self._assert_same_as_cold(prog, start)

    def test_feasible_non_vertex_start_falls_back(self, monkeypatch):
        fallbacks = self._spy_fallbacks(monkeypatch)
        # d and p1 both strictly inside their bounds on one balance row
        self._assert_same_as_cold(single_period_market_lp(),
                                  [2.0, 1.0, 0.0, -1.0])
        assert fallbacks == [True]

    def test_start_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError):
            lpmod.solve(single_period_market_lp(), start=[0.0, 1.0])


def _face_extrema_oracle(prog: lpmod.LinearProgram, label: str):
    """Least and greatest dual of ``label`` over the optimal dual face, by
    HiGHS, from the full dual with explicit bound multipliers:
    min b.y + ub.u - lb.v s.t. A'y + u - v = c, u, v >= 0 over the max form.
    A side HiGHS finds unbounded (status 3) is -inf or +inf."""
    names = list(prog.variable_names)
    labels = list(prog.constraint_labels)
    n = len(names)
    sign = -1.0 if prog.sense == "min" else 1.0
    c = sign * np.array([prog.objective_coefficient(v) for v in names])
    lb = np.array([prog.bounds(v)[0] for v in names])
    ub = np.array([prog.bounds(v)[1] for v in names])
    A, b, ops = _dense_rows(prog)
    ybounds = [{"<=": (0.0, None), ">=": (None, 0.0), "==": (None, None)}[op]
               for op in ops]
    le, ge, eq = ops == "<=", ops == ">=", ops == "=="
    a_ub = np.vstack([A[le], -A[ge]])
    options = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}
    primal = scipy.optimize.linprog(
        -c, A_ub=a_ub if a_ub.size else None,
        b_ub=np.concatenate([b[le], -b[ge]]) if a_ub.size else None,
        A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
        bounds=[(None if math.isinf(v) else v, None if math.isinf(w) else w)
                for v, w in zip(lb, ub)],
        method="highs", options=options)
    assert primal.status == 0, primal.message
    z = -primal.fun
    up, lo = np.isfinite(ub), np.isfinite(lb)
    face_eq = np.hstack([A.T, np.eye(n)[:, up], -np.eye(n)[:, lo]])
    face_obj = np.concatenate([b, ub[up], -lb[lo]])
    bounds = ybounds + [(0.0, None)] * int(up.sum() + lo.sum())
    ends = []
    for goal_sign in (1.0, -1.0):
        goal = np.zeros(face_eq.shape[1])
        goal[labels.index(label)] = goal_sign
        res = scipy.optimize.linprog(
            goal, A_eq=face_eq, b_eq=c, A_ub=face_obj[None, :],
            b_ub=[z + 1e-12 * max(1.0, abs(z))], bounds=bounds,
            method="highs", options=options)
        if res.status == 3:
            ends.append(-goal_sign * math.inf)
            continue
        assert res.status == 0, res.message
        ends.append(goal_sign * res.fun)
    lo_y, hi_y = ends
    return (lo_y, hi_y) if sign > 0 else (-hi_y, -lo_y)


class TestDualRangeAgainstIndependentSolver:
    """Range endpoints are unique optimal values: an independent solver over
    the same face must reproduce them."""

    @staticmethod
    def _assert_matches(prog, sol, label):
        want = _face_extrema_oracle(prog, label)
        got = lpmod.dual_range(prog, sol, label)
        for g, w in zip(got, want):
            close = (g == w if math.isinf(w)
                     else abs(g - w) <= 1e-7 * max(1.0, abs(w)))
            assert close, (prog.name, label, got, want)

    def test_random_lps(self):
        rng = np.random.default_rng(20260822)
        checked = 0
        for _ in range(50):
            prog, _ = _random_lp(rng)
            sol = lpmod.solve(prog)
            if sol.status != lpmod.OPTIMAL:
                continue
            for label in prog.constraint_labels:
                self._assert_matches(prog, sol, label)
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_face_unbounded_on_one_side(self, sense):
        # a 0 MW load: nothing bounds the balance dual from one side
        sign = 1.0 if sense == "max" else -1.0
        prog = lpmod.LinearProgram(name="one_sided", sense=sense)
        prog.add_variable("d", 0.0, 0.0, objective=sign * 12.0)
        prog.add_variable("p", 0.0, 2.0, objective=-sign * 5.0)
        prog.add_constraint("balance", {"d": 1.0, "p": -1.0}, "==", 0.0)
        sol = lpmod.solve(prog)
        assert lpmod.dual_range(prog, sol, "balance") == (
            (-math.inf, 5.0) if sense == "max" else (-5.0, math.inf))
        self._assert_matches(prog, sol, "balance")

    @pytest.mark.parametrize("source", ["fixtures", "random_interval"])
    def test_clearings(self, source):
        clearings = (_fixture_clearings() if source == "fixtures"
                     else _random_clearings(20261019, 20))
        for prog, sol in clearings:
            for label in _balance_labels(prog):
                self._assert_matches(prog, sol, label)


def _entering_by_loop(rc, state, lb, ub):
    """Bland's rule column by column: the reference for ``_entering``."""
    for j in range(len(rc)):
        if state[j] == lpmod._BASIC or lb[j] == ub[j]:
            continue
        r = rc[j]
        if state[j] == lpmod._AT_LOWER and r < -lpmod._PIVOT_EPS:
            return j, 1.0
        if state[j] == lpmod._AT_UPPER and r > lpmod._PIVOT_EPS:
            return j, -1.0
        if state[j] == lpmod._FREE and abs(r) > lpmod._PIVOT_EPS:
            return j, (1.0 if r < 0 else -1.0)
    return -1, 0.0


def _leaving_by_loop(w, sigma, x, lb, ub, basis, t_best):
    """The ratio test row by row: the reference for ``_leaving``."""
    eps, tie = lpmod._PIVOT_EPS, lpmod._RATIO_TIE
    r_best = -1
    for k in range(len(basis)):
        wk = sigma * w[k]
        jk = basis[k]
        if wk > eps:
            if lb[jk] == -math.inf:
                continue
            tk = (x[jk] - lb[jk]) / wk
        elif wk < -eps:
            if ub[jk] == math.inf:
                continue
            tk = (ub[jk] - x[jk]) / (-wk)
        else:
            continue
        if tk < 0.0:
            tk = 0.0
        if tk < t_best - tie:
            t_best, r_best = tk, k
        elif tk <= t_best + tie and (r_best == -1 or jk < basis[r_best]):
            t_best, r_best = min(t_best, tk), k
    return t_best, r_best


class TestPricingAndRatioTestAgainstLoop:
    """The vectorized Bland pricing and ratio test make the decisions of
    the column-by-column loops, on inputs crowded with near ties."""

    def test_entering_matches_the_loop(self):
        rng = np.random.default_rng(31)
        eps = lpmod._PIVOT_EPS
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            state = rng.integers(0, 4, n).astype(np.int8)
            lb = rng.choice([-math.inf, 0.0, 1.0], n)
            ub = np.where(rng.random(n) < 0.2, lb, math.inf)
            rc = rng.choice([0.0, eps, -eps, 2 * eps, -2 * eps, 0.5 * eps,
                             1.0, -1.0, -0.0], n)
            got = lpmod._entering(rc, state, lb == ub)
            assert got[:2] == _entering_by_loop(rc, state, lb, ub)

    def test_leaving_matches_the_loop(self):
        rng = np.random.default_rng(32)
        tie = lpmod._RATIO_TIE
        for trial in range(4000):
            m = int(rng.integers(1, 30))
            total = m + int(rng.integers(0, 10))
            basis = rng.permutation(total)[:m]
            scale = 10.0 ** int(rng.integers(-3, 7))
            lb = np.where(rng.random(total) < 0.2, -math.inf,
                          rng.choice([0.0, -scale], total))
            ub = np.where(rng.random(total) < 0.3, math.inf,
                          np.where(np.isfinite(lb), lb, 0.0)
                          + scale * rng.choice([1.0, 2.0, 3.0], total))
            # basic values on a few levels, nudged by fractions of a tie
            x = np.where(np.isfinite(lb), lb, 0.0) + scale * rng.choice(
                [0.0, 0.5, 1.0], total) + tie * rng.choice(
                [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -0.5], total)
            w = rng.choice([0.0, 1.0, -1.0, 2.0, -0.5, 1e-10, 1.0 + 1e-15], m)
            sigma = float(rng.choice([1.0, -1.0]))
            flip = float(rng.choice([math.inf, 0.5 * scale, scale,
                                     scale + tie, scale + 3 * tie]))
            got = lpmod._leaving(w, sigma, x, lb, ub, basis, flip)
            want = _leaving_by_loop(w, sigma, x, lb, ub, basis, flip)
            assert got[:2] == want, trial


def _entering_by_loop_on_fixed(rc, state, fixed):
    """``_entering_by_loop`` called as the simplex calls ``_entering``."""
    return _entering_by_loop(rc, state, np.zeros(len(fixed)),
                             np.where(fixed, 0.0, 1.0))


class TestPivotPathAgainstLoop:
    """Whole solves with the column-by-column pricing and ratio-test loops
    patched in take the path of the simplex's own: the same start path,
    bases after each phase, pivot and flip counts, and bitwise-equal
    duals."""

    @staticmethod
    def _solve(monkeypatch, prog, start, loops):
        """The solution and the final basis of each phase."""
        bases = []
        run_phase = lpmod._run_phase

        def spy(std, art_sign, c, lb, ub, x, state, basis, *rest):
            out = run_phase(std, art_sign, c, lb, ub, x, state, basis, *rest)
            bases.append(basis.tolist())
            return out

        with monkeypatch.context() as patch:
            if loops:
                patch.setattr(lpmod, "_entering", _entering_by_loop_on_fixed)
                patch.setattr(lpmod, "_leaving", _leaving_by_loop)
            patch.setattr(lpmod, "_run_phase", spy)
            return lpmod.solve(prog, start=start), bases

    @classmethod
    def _assert_same_path(cls, monkeypatch, prog, start=None):
        ref, ref_bases = cls._solve(monkeypatch, prog, start, loops=True)
        got, got_bases = cls._solve(monkeypatch, prog, start, loops=False)
        assert got.status == ref.status, prog.name
        assert got_bases == ref_bases, prog.name
        assert got.stats.start == ref.stats.start
        for phase in ("phase_1", "phase_2"):
            a, b = getattr(got.stats, phase), getattr(ref.stats, phase)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.pivots, a.bound_flips) == (b.pivots, b.bound_flips)
        if ref.status == lpmod.OPTIMAL:
            assert ([v.hex() for v in got.duals.values()]
                    == [v.hex() for v in ref.duals.values()]), prog.name
        return got

    def test_fixture_clearings_and_their_faces(self, monkeypatch):
        clearings = _fixture_clearings()
        assert len(clearings) >= 20
        faces = 0
        for prog, sol in clearings:
            self._assert_same_path(monkeypatch, prog)
            for label in _balance_labels(prog):
                face, sgn = lpmod._dual_face(prog, sol, label)
                start = [sgn * sol.duals[lab] for lab in prog.constraint_labels]
                for sense in ("min", "max"):
                    face.sense = sense
                    got = self._assert_same_path(monkeypatch, face, start)
                    faces += got.stats.start == lpmod.CRASHED
        assert faces >= 40

    def test_ideal_horizons(self, monkeypatch):
        rng = np.random.default_rng(20261025)
        for _ in range(20):
            prog = TestPricingAgainstDense._horizon(rng, 2)
            got = self._assert_same_path(monkeypatch, prog)
            assert got.stats.start == lpmod.PHASE_1
        got = self._assert_same_path(
            monkeypatch, TestPricingAgainstDense._horizon(rng, 7))
        assert got.stats.phase_1.pivots > 300


def _dense_random_lp(rng: np.random.Generator) -> lpmod.LinearProgram:
    """A dense LP with 30 to 90 rows, mixed row senses and bounds, whose
    rows hold at a random point inside the bounds."""
    m = int(rng.integers(30, 91))
    n = int(rng.integers(m // 2, 2 * m))
    prog = lpmod.LinearProgram(name="dense", sense=str(rng.choice(["max",
                                                                   "min"])))
    point = []
    for j in range(n):
        lo = float(rng.choice([0.0, -1.0, -math.inf]))
        hi = float(rng.choice([1.0, 3.0, math.inf]))
        prog.add_variable(f"x{j}", lo, hi,
                          objective=round(float(rng.uniform(-5, 5)), 2))
        point.append(float(np.clip(rng.uniform(-1, 1), lo, hi)))
    for i in range(m):
        coeffs = {f"x{j}": round(float(rng.uniform(-3, 3)), 2)
                  for j in range(n) if rng.random() < 0.7}
        if not coeffs:
            coeffs = {"x0": 1.0}
        act = sum(c * point[int(v[1:])] for v, c in coeffs.items())
        op = str(rng.choice(["<=", ">=", "=="]))
        room = {"<=": 1.0, ">=": -1.0, "==": 0.0}[op]
        prog.add_constraint(f"r{i}", coeffs, op, act + room * float(rng.random()))
    return prog


class TestFactorUpdates:
    """The updated factor takes the path of refactoring at every pivot
    (``_REFACTOR`` = 1, the reference): the same statuses, pivot counts and
    final bases, bitwise-equal duals, and objective and primal values
    within 1e-9."""

    @staticmethod
    def _solve(monkeypatch, prog, refactor, start=None):
        """The solution and the final basis of each phase."""
        bases = []
        run_phase = lpmod._run_phase

        def spy(std, art_sign, c, lb, ub, x, state, basis, *rest):
            out = run_phase(std, art_sign, c, lb, ub, x, state, basis, *rest)
            bases.append(basis.tolist())
            return out

        with monkeypatch.context() as patch:
            patch.setattr(lpmod, "_REFACTOR", refactor)
            patch.setattr(lpmod, "_run_phase", spy)
            return lpmod.solve(prog, start=start), bases

    @classmethod
    def _assert_same_path(cls, monkeypatch, prog, start=None):
        ref, ref_bases = cls._solve(monkeypatch, prog, 1, start)
        got, got_bases = cls._solve(monkeypatch, prog, lpmod._REFACTOR, start)
        assert got.status == ref.status, prog.name
        assert got_bases == ref_bases, prog.name
        assert got.stats.start == ref.stats.start
        for phase in ("phase_1", "phase_2"):
            a, b = getattr(got.stats, phase), getattr(ref.stats, phase)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.pivots, a.bound_flips) == (b.pivots, b.bound_flips)
        if ref.status == lpmod.OPTIMAL:
            assert ([v.hex() for v in got.duals.values()]
                    == [v.hex() for v in ref.duals.values()]), prog.name
            assert got.objective == pytest.approx(ref.objective, abs=1e-9)
            assert got.primal == pytest.approx(ref.primal, abs=1e-9)
        return got

    def test_fixtures_in_every_mode(self, monkeypatch):
        clearings = _fixture_clearings()
        assert len(clearings) >= 20
        for prog, sol in clearings:
            self._assert_same_path(monkeypatch, prog)
            # the face solves start crashed at the published dual
            for label in _balance_labels(prog):
                face, sgn = lpmod._dual_face(prog, sol, label)
                start = [sgn * sol.duals[lab] for lab in prog.constraint_labels]
                for sense in ("min", "max"):
                    face.sense = sense
                    self._assert_same_path(monkeypatch, face, start)

    def test_random_interval_horizons(self, monkeypatch):
        rng = np.random.default_rng(20261020)
        refresh = lpmod._REFACTOR
        for _ in range(20):
            capacity = float(rng.uniform(0.5, 3.0))
            intervals = tuple(
                random_interval(rng, capacity, n_periods=24, delta_t=1.0,
                                end_level=float(rng.uniform(0.1, 0.5))
                                * capacity)
                for _ in range(3))
            prog = clear_ideal(StorageSpec(capacity, 0.0), intervals,
                               compute_ranges=False).lp
            got = self._assert_same_path(monkeypatch, prog)
            # both phases pass the refresh interval
            assert got.stats.phase_1.pivots > refresh
            assert got.stats.phase_2.pivots > refresh

    def test_dense_random_lps(self, monkeypatch):
        rng = np.random.default_rng(20261021)
        optimal = 0
        for _ in range(20):
            sol = self._assert_same_path(monkeypatch, _dense_random_lp(rng))
            optimal += sol.status == lpmod.OPTIMAL
        assert optimal >= 10

    def test_week_solve_refactors_once_per_refresh(self):
        rng = np.random.default_rng(20261022)
        capacity = 2.0
        intervals = tuple(random_interval(rng, capacity, n_periods=24,
                                          delta_t=1.0, end_level=1.0)
                          for _ in range(7))
        res = clear_ideal(StorageSpec(capacity, 0.0), intervals,
                          compute_ranges=False)
        stats = res.lp_solution.stats
        assert stats.start == lpmod.PHASE_1
        assert stats.drive_outs == 0
        phases = [stats.phase_1, stats.phase_2]
        # one factorization to start phase 1, one per _REFACTOR pivots after
        # the start of each phase, one per verdict confirmed; with nothing
        # to drive out, phase 2 starts on phase 1's final factor
        assert stats.factorizations == 1 + sum(
            p.pivots // lpmod._REFACTOR + p.confirmations for p in phases)
        # refactoring at every pivot made one per iteration
        assert stats.pivots > 10 * stats.factorizations


def _ftran_by_loop(lu, etas, a):
    """``B^-1 a`` for ``B = B0 E1 ... Ek``, one eta ``(r, w)`` at a time in
    order: the reference for ``_Factor.ftran``."""
    z = lpmod._getrs(lu, a, 0)
    for r, w in etas:
        zr = z[r] / w[r]
        z -= zr * w
        z[r] = zr
    return z


def _btran_by_loop(lu, etas, v):
    """``B^-T v``, one transposed eta at a time in reverse order: the
    reference for ``_Factor.btran``."""
    v = v.copy()
    for r, w in reversed(etas):
        vr = v[r]
        v[r] = 0.0
        v[r] = (vr - w @ v) / w[r]
    return lpmod._getrs(lu, v, 1)


class TestEtaBlockAgainstLoop:
    """The eta block's one triangular solve applies a sequence of basis
    changes as the eta-by-eta loops do, to 1e-12 relative, on sequences up
    to ``_REFACTOR`` long whose leaving rows repeat."""

    def test_random_eta_sequences(self):
        rng = np.random.default_rng(45)
        repeats = 0
        for _ in range(300):
            m = int(rng.integers(1, 60))
            B0 = rng.uniform(-1.0, 1.0, (m, m)) + m * np.eye(m)
            factor = lpmod._Factor(m)
            factor.refresh(_csc(B0), np.arange(m))
            etas = []
            # half the leaving rows come from a few, so rows repeat
            few = rng.integers(m, size=min(m, 4))
            for _k in range(int(rng.integers(0, lpmod._REFACTOR + 1))):
                r = int(rng.choice(few) if rng.random() < 0.5
                        else rng.integers(m))
                w = np.where(rng.random(m) < 3 / m,
                             rng.uniform(-1.0, 1.0, m), 0.0)
                w[r] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
                factor.update(r, w)
                etas.append((r, w))
            rows = [r for r, _w in etas]
            repeats += len(rows) - len(set(rows))
            a, v = rng.uniform(-1.0, 1.0, (2, m))
            for got, want in ((factor.ftran(a),
                               _ftran_by_loop(factor.lu, etas, a)),
                              (factor.btran(v),
                               _btran_by_loop(factor.lu, etas, v))):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert repeats >= 1000


class TestFactorAgainstLuFactor:
    """Below ``_SPARSE_ROWS``, ``_factor_basis`` calls LAPACK ``dgetrf``
    itself on the basis scattered from the CSC: its LU and pivots are
    ``scipy.linalg.lu_factor``'s of the dense basis bit for bit, and a
    singular basis raises ``LpNumericalError`` with no warning."""

    @staticmethod
    def _assert_lu_factor_bits(A, columns, basis,
                               factor_basis=lpmod._factor_basis):
        """``factor_basis(columns, basis)`` against ``lu_factor`` of the
        basis columns of the dense ``A`` that ``columns`` holds."""
        want_lu, want_piv = scipy.linalg.lu_factor(A[:, basis])
        lu, piv = factor_basis(columns, basis)
        assert _same_bits(lu, want_lu) and _same_bits(piv, want_piv)
        return lu, piv

    def test_random_bases(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            A = rng.uniform(-3.0, 3.0, (m, 2 * m))
            art_sign = (rng.choice([-1.0, 1.0], m) if rng.random() < 0.5
                        else np.zeros(0))
            basis = rng.permutation(2 * m + art_sign.size)[:m]
            A1 = np.hstack([A, np.diag(art_sign)]) if art_sign.size else A
            self._assert_lu_factor_bits(
                A1, lpmod._with_artificials(_csc(A), art_sign), basis)

    def test_fixture_bases(self, monkeypatch):
        seen = []
        factor_basis = lpmod._factor_basis
        with_artificials = lpmod._with_artificials
        artificial = []

        def spy_artificials(columns, art_sign):
            out = with_artificials(columns, art_sign)
            if art_sign.size:
                artificial.append(out)
            return out

        def spy(columns, basis):
            seen.append(any(columns is a for a in artificial))
            return self._assert_lu_factor_bits(
                _dense(columns, len(basis)), columns, basis, factor_basis)

        monkeypatch.setattr(lpmod, "_with_artificials", spy_artificials)
        monkeypatch.setattr(lpmod, "_factor_basis", spy)
        for prog, sol in _fixture_clearings():
            lpmod.solve(prog)
            for label in _balance_labels(prog)[:2]:
                lpmod.dual_range(prog, sol, label)
        assert len(seen) >= 200 and any(seen)

    def test_singular_basis_raises_without_warning(self):
        A = np.array([[1.0, 2.0, 1.0, 0.0],
                      [2.0, 4.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # columns 0 and 1 are parallel: dgetrf meets an exact zero pivot
            with pytest.raises(lpmod.LpNumericalError, match="singular"):
                lpmod._factor_basis(_csc(A), np.array([0, 1]))
            with pytest.raises(lpmod.LpNumericalError, match="singular"):
                lpmod._factor_basis(_csc(np.zeros((2, 2))),
                                    np.array([0, 1]))


def _initial_point_by_loop(std):
    """Column by column: the reference for ``_initial_point``."""
    total = std.n + std.m
    x = np.zeros(total)
    state = np.full(total, lpmod._AT_LOWER, dtype=np.int8)
    for j in range(total):
        if std.lb[j] > -math.inf:
            x[j] = std.lb[j]
            state[j] = lpmod._AT_LOWER
        elif std.ub[j] < math.inf:
            x[j] = std.ub[j]
            state[j] = lpmod._AT_UPPER
        else:
            x[j] = 0.0
            state[j] = lpmod._FREE
    return x, state


def _feasible_start_basis_by_loop(std, A, x, state):
    """Row by row and column by column: the reference for
    ``_feasible_start_basis``. It may write slacks before it fails. Each
    row's activity adds its terms in column order, as the start does."""
    n, m = std.n, std.m
    total = n + m
    want = std.b - sum(A[:, j] * x[j] for j in range(n))
    tol = lpmod._START_TOL * max(1.0, float(np.max(np.abs(std.b)))
                                 if m else 1.0)
    forced = []
    for i in range(m):
        lo, hi = std.lb[n + i], std.ub[n + i]
        si = float(want[i])
        if si < lo - tol or si > hi + tol:
            return None
        si = min(max(si, lo), hi)
        if si > lo + tol and si < hi - tol:
            x[n + i] = si
            forced.append(i)
        elif si - lo <= hi - si:
            x[n + i] = lo
            state[n + i] = lpmod._AT_LOWER
        else:
            x[n + i] = hi
            state[n + i] = lpmod._AT_UPPER
    basis = np.full(m, -1, dtype=int)
    W = A.copy()
    for i in forced:
        basis[i] = n + i
        state[n + i] = lpmod._BASIC
    for i in range(m):
        if basis[i] >= 0:
            continue
        pivot = -1
        for j in range(total):
            if state[j] == lpmod._BASIC:
                continue
            if abs(W[i, j]) > lpmod._PIVOT_EPS:
                pivot = j
                break
        if pivot < 0:
            pivot = n + i
        basis[i] = pivot
        state[pivot] = lpmod._BASIC
        W[i] = W[i] / W[i, pivot]
        for k in range(m):
            if k != i and W[k, pivot]:
                W[k] = W[k] - W[k, pivot] * W[i]
    return basis


def _drive_out_artificials_by_loop(A, lb, ub, state, basis, n_real):
    """Row by row with scipy's ``lu_factor`` and ``lu_solve``: the
    reference for ``_drive_out_artificials``."""
    m = len(basis)
    for k in range(m):
        if basis[k] < n_real:
            continue
        lu = scipy.linalg.lu_factor(A[:, basis], check_finite=False)
        ek = np.zeros(m)
        ek[k] = 1.0
        z = scipy.linalg.lu_solve(lu, ek, trans=1, check_finite=False)
        row = z @ A[:, :n_real]
        entered = False
        for j in range(n_real):
            if state[j] == lpmod._BASIC:
                continue
            if abs(row[j]) > lpmod._PIVOT_EPS:
                art = basis[k]
                basis[k] = j
                state[j] = lpmod._BASIC
                state[art] = lpmod._AT_LOWER
                entered = True
                break
        if not entered:
            lb[basis[k]] = 0.0
            ub[basis[k]] = 0.0


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _csc(A: np.ndarray) -> tuple:
    """The nonzeros of a dense ``A`` held as ``_Standard.columns`` holds
    its CSC."""
    cols, rows = np.nonzero(A.T)
    starts = np.searchsorted(cols, np.arange(A.shape[1] + 1))
    return starts, rows, A[rows, cols]


def _dense(columns: tuple, m: int) -> np.ndarray:
    """The dense matrix of ``m`` rows whose CSC is ``columns``."""
    starts, rows, vals = columns
    M = np.zeros((m, len(starts) - 1))
    M[rows, np.repeat(np.arange(len(starts) - 1), np.diff(starts))] = vals
    return M


class TestStartBasesAgainstLoop:
    """The vectorized start helpers make the decisions of the loops they
    replaced, bit for bit, on random, dense and fixture clearing LPs."""

    @staticmethod
    def _programs(dense: int = 60):
        rng = np.random.default_rng(41)
        progs = [_random_lp(rng)[0] for _ in range(400)]
        rng = np.random.default_rng(42)
        progs += [_dense_random_lp(rng) for _ in range(dense)]
        return progs + [prog for prog, _sol in _fixture_clearings()]

    def test_points_and_bases_match_the_loop(self):
        feasible = 0
        for prog in self._programs():
            std = lpmod._Standard(prog)
            x, state = lpmod._initial_point(std)
            x_ref, state_ref = _initial_point_by_loop(std)
            assert _same_bits(x, x_ref) and _same_bits(state, state_ref)
            x0, state0 = x.copy(), state.copy()
            A = _dense(std.columns, std.m)
            basis = lpmod._feasible_start_basis(std, x, state)
            basis_ref = _feasible_start_basis_by_loop(std, A, x_ref,
                                                      state_ref)
            if basis_ref is None:
                assert basis is None, prog.name
                # a failed start writes nothing
                assert _same_bits(x, x0) and _same_bits(state, state0)
                continue
            feasible += 1
            assert _same_bits(basis, basis_ref), prog.name
            assert _same_bits(x, x_ref) and _same_bits(state, state_ref)
        assert feasible >= 40

    def test_drive_outs_match_the_loop(self, monkeypatch):
        counts = []
        drive_out = lpmod._drive_out_artificials

        def spy(columns, state, basis):
            state_ref, basis_ref = state.copy(), basis.copy()
            # the loop runs on the dense matrix with phase 1's artificial
            # diagonal; it also pinned a redundant row's artificial at zero,
            # which phase 2 does for every artificial
            m = len(basis)
            A1 = _dense(columns, m)
            n_real = len(state) - m
            arts = A1[:, n_real:]
            assert _same_bits(A1[:, n_real - m:n_real], np.eye(m))
            assert _same_bits(arts, np.diag(np.diag(arts)))
            _drive_out_artificials_by_loop(
                A1, np.zeros(A1.shape[1]), np.full(A1.shape[1], math.inf),
                state_ref, basis_ref, n_real)
            # one factorization per artificial basic on entry
            want = int(np.count_nonzero(basis >= n_real))
            count = drive_out(columns, state, basis)
            assert count == want
            assert _same_bits(basis, basis_ref)
            assert _same_bits(state, state_ref)
            counts.append(count)
            return count

        monkeypatch.setattr(lpmod, "_drive_out_artificials", spy)
        # a dense LP takes 0.2 s through phase 1 and none of the first 60
        # leaves an artificial basic: the fixtures drive them out
        for prog in self._programs(dense=10):
            lpmod.solve(prog)
        assert sum(c > 0 for c in counts) >= 5

    def test_lp_without_rows_starts_feasible(self):
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("x", -1.0, 2.0, objective=3.0)
        prog.add_variable("y", -math.inf, math.inf)
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.OPTIMAL
        assert sol.stats.start == lpmod.FEASIBLE_START
        assert sol.stats.phase_1 is None
        prog.add_variable("z", -math.inf, math.inf, objective=1.0)
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.UNBOUNDED
        assert sol.stats.start == lpmod.FEASIBLE_START


def _crash_basis_by_lu(std, start):
    """The crash as it was before it used the simplex's own LU: pivot rows
    from ``scipy.linalg.lu``, the interior columns' values from
    ``np.linalg.solve`` on their pivot block, and each other row's slack
    given the rest of its row. Returns (x, state, basis) or None."""
    n, m = std.n, std.m
    lb, ub = std.lb, std.ub
    x = np.concatenate([start, std.b - std.product(start)])
    if not np.all(np.isfinite(x)):
        return None
    tol = lpmod._PIVOT_EPS * max(float(np.max(np.abs(x))), std.b_scale)
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return None
    at_lower = (lb > -math.inf) & (x <= lb + tol)
    at_upper = ~at_lower & (ub < math.inf) & (x >= ub - tol)
    free_at_zero = (lb == -math.inf) & (ub == math.inf) & (np.abs(x) <= tol)
    interior = ~(at_lower | at_upper | free_at_zero)
    cols = np.flatnonzero(interior[:n])
    tight = np.flatnonzero(~interior[n:])
    basis = np.arange(n, n + m)
    if cols.size:
        if cols.size > tight.size:
            return None
        block = lpmod._block(lpmod._gather(std.columns, cols), ~interior[n:])
        perm, _lower, upper = scipy.linalg.lu(block, p_indices=True,
                                              check_finite=False)
        if float(np.min(np.abs(np.diag(upper)))) <= (
                lpmod._PIVOT_EPS * max(1.0, float(np.max(np.abs(block))))):
            return None
        basis[tight[np.argsort(perm)[:cols.size]]] = cols
    state = np.where(at_lower, lpmod._AT_LOWER,
                     np.where(at_upper, lpmod._AT_UPPER,
                              lpmod._FREE)).astype(np.int8)
    state[basis] = lpmod._BASIC
    x = np.where(at_lower, lb, np.where(at_upper, ub, 0.0))
    x[basis] = 0.0
    rest = std.b - std.product(x)
    pivot = basis < n
    x[basis[pivot]] = np.linalg.solve(
        lpmod._block(lpmod._gather(std.columns, basis[pivot]), pivot),
        rest[pivot])
    rest -= std.product(np.where(state[:n] == lpmod._BASIC, x[:n], 0.0))
    x[basis[~pivot]] = rest[~pivot]
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return None
    return x, state, basis


class TestCrashAgainstTheLu:
    """The crash picks its pivot rows with ``dgetrf`` and solves every basic
    value from the one LU of its basis, which it returns. It makes the
    decisions of the crash it replaced (``_crash_basis_by_lu``): the same
    fallbacks, the same basis and states bit for bit, and basic values
    within 1e-12 relative to max(1, |x|)."""

    @staticmethod
    def _assert_matches(std, start) -> bool:
        """Compare both crashes at ``start``; True when they crash."""
        start = np.asarray(start, dtype=float)
        got = lpmod._crash_basis(std, start)
        want = _crash_basis_by_lu(std, start)
        if want is None:
            assert got is None
            return False
        assert got is not None
        x, state, basis, basis_lu = got
        x_ref, state_ref, basis_ref = want
        assert _same_bits(basis, basis_ref) and _same_bits(state, state_ref)
        assert np.all(np.abs(x - x_ref)
                      <= 1e-12 * np.maximum(1.0, np.abs(x_ref))), (
            float(np.max(np.abs(x - x_ref))))
        # the LU handed out is the basis's own
        fresh = lpmod._factor_basis(std.columns, basis)
        assert _same_bits(basis_lu[0], fresh[0])
        assert _same_bits(basis_lu[1], fresh[1])
        return True

    @staticmethod
    def _vertex(prog) -> list[float] | None:
        sol = lpmod.solve(prog)
        if sol.status != lpmod.OPTIMAL:
            return None
        return [sol.primal[name] for name in prog.variable_names]

    def test_random_lps_at_vertices_and_elsewhere(self):
        rng = np.random.default_rng(43)
        outcomes = []
        for _ in range(400):
            prog, _data = _random_lp(rng)
            std = lpmod._Standard(prog)
            start = rng.uniform(-10.0, 10.0, std.n)
            outcomes.append(("off", self._assert_matches(std, start)))
            vertex = self._vertex(prog)
            if vertex is None:
                continue
            outcomes.append(("vertex", self._assert_matches(std, vertex)))
            # halfway to the other sense's optimum: feasible, and a vertex
            # only when the two coincide
            prog.sense = "min" if prog.sense == "max" else "max"
            other = self._vertex(prog)
            if other is not None:
                middle = 0.5 * (np.asarray(vertex) + np.asarray(other))
                outcomes.append(("middle", self._assert_matches(std, middle)))
        assert outcomes.count(("vertex", True)) >= 120
        assert outcomes.count(("vertex", False)) == 0
        assert outcomes.count(("middle", False)) >= 80
        assert outcomes.count(("off", False)) >= 350

    def test_dependent_interior_columns_fall_back(self):
        # at (1, 2) both columns are interior, and their entries on the two
        # tight rows are parallel: the point is no vertex
        prog = lpmod.LinearProgram(sense="max")
        prog.add_variable("x", 0.0, 4.0, objective=1.0)
        prog.add_variable("y", 0.0, 4.0, objective=1.0)
        prog.add_constraint("cap", {"x": 1.0, "y": 1.0}, "<=", 3.0)
        prog.add_constraint("twice", {"x": 2.0, "y": 2.0}, "<=", 6.0)
        std = lpmod._Standard(prog)
        assert not self._assert_matches(std, [1.0, 2.0])
        assert self._assert_matches(std, [3.0, 0.0])

    def test_dense_random_lps(self):
        rng = np.random.default_rng(42)
        crashed = 0
        for _ in range(10):
            prog = _dense_random_lp(rng)
            std = lpmod._Standard(prog)
            assert not self._assert_matches(
                std, rng.uniform(-10.0, 10.0, std.n))
            vertex = self._vertex(prog)
            if vertex is not None:
                crashed += self._assert_matches(std, vertex)
        assert crashed >= 5

    def test_face_starts_at_the_published_dual(self):
        clearings = [(prog, sol) for prog, sol in _fixture_clearings()
                     if prog.name.startswith("vlb")]
        assert len(clearings) >= 5
        clearings += _vlb_clearings(20261030, 40)
        for prog, sol in clearings:
            face, sgn = lpmod._dual_face(prog, sol, _balance_labels(prog)[0])
            start = [sgn * sol.duals[lab] for lab in prog.constraint_labels]
            assert self._assert_matches(lpmod._Standard(face), start)


class TestSolveStats:
    def test_stats_name_the_start_path(self):
        cold = lpmod.LinearProgram(sense="min")
        cold.add_variable("x", 0.0, 10.0, objective=1.0)
        cold.add_constraint("floor", {"x": 1.0}, ">=", 4.0)
        assert lpmod.solve(cold).stats.start == lpmod.PHASE_1
        assert lpmod.solve(cold, start=[4.0]).stats.start == lpmod.CRASHED
        # x = 0 already satisfies the row: no phase 1
        capped = lpmod.LinearProgram(sense="max")
        capped.add_variable("x", 0.0, 10.0, objective=1.0)
        capped.add_constraint("cap", {"x": 1.0}, "<=", 4.0)
        sol = lpmod.solve(capped)
        assert sol.stats.start == lpmod.FEASIBLE_START
        assert sol.stats.phase_1 is None
        assert (sol.stats.phase_2.pivots, sol.stats.factorizations) == (1, 2)
        assert sol.stats.phase_2.confirmations == 1

    def test_stats_take_no_part_in_equality_or_repr(self):
        sol = lpmod.solve(single_period_market_lp())
        assert sol.stats is not None
        assert dataclasses.replace(sol, stats=None) == sol
        assert "stats" not in repr(sol)

    def test_clearing_results_carry_stats(self):
        scn = parse_scenario((resources.files("artifact") / "fixtures"
                              / "table1.json").read_text())
        for res in run_scenario(dataclasses.replace(scn, mode="vlb")).results:
            assert res.lp_solution.stats.pivots >= 0
            assert res.lp_solution.stats.factorizations >= 1

    def test_degenerate_pivots_are_counted(self):
        scn = parse_scenario((resources.files("artifact") / "fixtures"
                              / "table1.json").read_text())
        run = run_scenario(dataclasses.replace(scn, mode="split_penalty"),
                           compute_ranges=False)
        # the idle first interval pivots once, at a degenerate vertex
        idle = run.results[0].lp_solution.stats.phase_2
        assert (idle.pivots, idle.degenerate_pivots) == (1, 1)
        # telemetry only: the count takes no part in equality
        assert dataclasses.replace(idle, degenerate_pivots=7) == idle
        for _prog, sol in _fixture_clearings():
            for phase in sol.stats._phases():
                assert 0 <= phase.degenerate_pivots <= phase.pivots


def _arrays(value):
    """Every numpy array reachable from ``value`` through tuples, lists,
    dicts and object attributes."""
    seen, stack = set(), [value]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif hasattr(v, "__dict__"):
            stack.extend(vars(v).values())


class TestMemory:
    """A solve holds no dense ``A``: its products read the standard form's
    CSC, and the only dense matrices are a small basis's LU, a crash's
    blocks and the feasible start's open rows. A solved LP keeps no
    matrix. ``dense`` below is the size a dense ``A`` would take."""

    @staticmethod
    def _horizon(days: int, end_level: float) -> lpmod.LinearProgram:
        rng = np.random.default_rng(20261022)
        intervals = tuple(random_interval(rng, 2.0, n_periods=24,
                                          delta_t=1.0, end_level=end_level)
                          for _ in range(days))
        return clear_ideal(StorageSpec(2.0, 0.0), intervals,
                           compute_ranges=False).lp

    def test_week_solve_holds_no_dense_matrix(self):
        prog = self._horizon(7, 1.0)
        m, n = prog.n_constraints, prog.n_variables
        sol, peak = self._traced_peak(lambda: lpmod.solve(prog))
        assert sol.stats.start == lpmod.PHASE_1
        dense = 8 * m * (n + m)
        # the CSC, the sparse LU and the eta block: about 0.16 dense A
        assert peak < 0.25 * dense, (peak, dense)
        kept = list(_arrays(prog)) + list(_arrays(sol))
        assert kept and all(a.ndim == 1 for a in kept)

    def test_month_solve_holds_no_dense_matrix(self):
        prog = self._horizon(30, 1.0)
        m, n = prog.n_constraints, prog.n_variables
        sol, peak = self._traced_peak(lambda: lpmod.solve(prog))
        assert sol.stats.start == lpmod.PHASE_1
        dense = 8 * m * (n + m)
        # a dense A would take 58 MB here; the solve peaks near 2 MB
        assert peak < 0.1 * dense, (peak, dense)

    @staticmethod
    def _traced_peak(call):
        """``call()``'s result and the peak bytes traced while it ran."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_feasible_start_week_solve(self):
        # a zero final target: the empty store is a feasible start
        prog = self._horizon(7, 0.0)
        m, n = prog.n_constraints, prog.n_variables
        sol, peak = self._traced_peak(lambda: lpmod.solve(prog))
        assert sol.stats.start == lpmod.FEASIBLE_START
        dense, square = 8 * m * (n + m), 8 * m * m
        # every row is an equality, so no slack is forced basic and the
        # start eliminates on every row: its workspace alone is one dense A
        assert peak < dense + square, (peak, dense, square)

    def test_start_elimination_copies_only_open_rows(self):
        # a week-long vlb interval: every capacity_hi slack starts strictly
        # inside its bounds and is forced basic
        rng = np.random.default_rng(20261022)
        iv = random_interval(rng, 2.0, n_periods=168, delta_t=1.0,
                             end_level=0.0)
        prog = clear_vlb(iv, StorageSpec(2.0, 0.0), ValueLedger(()),
                         compute_ranges=False).lp
        std = lpmod._Standard(prog)
        dense = 8 * std.m * (std.n + std.m)
        x, state = lpmod._initial_point(std)
        basis, peak = self._traced_peak(
            lambda: lpmod._feasible_start_basis(std, x, state))
        slack = x[std.n:]
        forced = int(np.count_nonzero((slack > std.lb[std.n:])
                                      & (slack < std.ub[std.n:])))
        assert basis is not None and forced >= 100
        open_share = 1.0 - forced / std.m
        assert peak < (open_share + 0.1) * dense, (peak, dense, open_share)


def _dense_with_artificials(std, art_sign):
    """The dense ``[A, diag(art_sign)]`` a phase prices."""
    A = _dense(std.columns, std.m)
    return np.hstack([A, np.diag(art_sign)]) if art_sign.size else A


def _dense_pricing(columns):
    """The pricing the simplex used before: the dense product over every
    column of the matrix whose CSC is ``columns``, ``[A, diag(art_sign)]``
    in a phase."""
    A = _dense(columns, int(columns[1].max(initial=-1)) + 1)
    return lambda c, y: c - A.T @ y


class TestPricingAgainstDense:
    """Pricing from A's entries takes the dense product's path: the same
    statuses, bases after each phase, pivot and flip counts, and
    bitwise-equal duals; its reduced costs agree with the product to
    rounding."""

    @staticmethod
    def _solve(monkeypatch, prog, pricing):
        """The solution and the final basis of each phase."""
        bases = []
        run_phase = lpmod._run_phase

        def spy(std, art_sign, c, lb, ub, x, state, basis, *rest):
            out = run_phase(std, art_sign, c, lb, ub, x, state, basis, *rest)
            bases.append(basis.tolist())
            return out

        with monkeypatch.context() as patch:
            patch.setattr(lpmod, "_pricing", pricing)
            patch.setattr(lpmod, "_run_phase", spy)
            return lpmod.solve(prog), bases

    @classmethod
    def _assert_same_path(cls, monkeypatch, prog):
        ref, ref_bases = cls._solve(monkeypatch, prog, _dense_pricing)
        got, got_bases = cls._solve(monkeypatch, prog, lpmod._pricing)
        assert got.status == ref.status, prog.name
        assert got_bases == ref_bases, prog.name
        assert got.stats.start == ref.stats.start
        for phase in ("phase_1", "phase_2"):
            a, b = getattr(got.stats, phase), getattr(ref.stats, phase)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.pivots, a.bound_flips) == (b.pivots, b.bound_flips)
        if ref.status == lpmod.OPTIMAL:
            assert ([v.hex() for v in got.duals.values()]
                    == [v.hex() for v in ref.duals.values()]), prog.name
        return got

    @staticmethod
    def _horizon(rng, days):
        capacity = float(rng.uniform(0.5, 3.0))
        intervals = tuple(
            random_interval(rng, capacity, n_periods=24, delta_t=1.0,
                            end_level=float(rng.uniform(0.1, 0.5)) * capacity)
            for _ in range(days))
        return clear_ideal(StorageSpec(capacity, 0.0), intervals,
                           compute_ranges=False).lp

    def test_fixture_clearings(self, monkeypatch):
        clearings = _fixture_clearings()
        assert len(clearings) >= 20
        for prog, _sol in clearings:
            self._assert_same_path(monkeypatch, prog)

    def test_ideal_horizons(self, monkeypatch):
        rng = np.random.default_rng(20261023)
        for _ in range(20):
            got = self._assert_same_path(monkeypatch, self._horizon(rng, 2))
            assert got.stats.start == lpmod.PHASE_1
        got = self._assert_same_path(monkeypatch, self._horizon(rng, 7))
        assert got.stats.phase_1.pivots > 300

    def test_reduced_costs_match_the_dense_product(self, monkeypatch):
        # every (std, art_sign) a solve prices with, phase 1's artificials
        # included
        priced = []
        run_phase = lpmod._run_phase

        def spy(std, art_sign, *args):
            priced.append((std, art_sign))
            return run_phase(std, art_sign, *args)

        monkeypatch.setattr(lpmod, "_run_phase", spy)
        rng = np.random.default_rng(44)
        for _ in range(200):
            lpmod.solve(_random_lp(rng)[0])
        for _ in range(5):
            lpmod.solve(_dense_random_lp(rng))
        artificial = 0
        for std, art_sign in priced:
            A = _dense_with_artificials(std, art_sign)
            artificial += A.shape[1] > std.n + std.m
            c = rng.uniform(-5.0, 5.0, A.shape[1])
            y = rng.uniform(-10.0, 10.0, std.m)
            got = lpmod._pricing(
                lpmod._with_artificials(std.columns, art_sign))(c, y)
            want = c - A.T @ y
            tol = 1e-12 * float(np.max(np.abs(A))) * float(np.abs(y).sum())
            assert np.all(np.abs(got - want) <= tol)
        assert artificial >= 100


def _ranges_per_label(prog, sol, label):
    """Ranging as an engine without kept state does it: a fresh face, and a
    fresh LP for each of the two solves, both started at the published
    dual."""
    ends = []
    for direction in ("min", "max"):
        face, sgn = lpmod._dual_face(prog, sol, label)
        face.sense = "min" if (direction == "min") != (sgn < 0) else "max"
        start = [sgn * sol.duals[lab] for lab in prog.constraint_labels]
        out = lpmod.solve(face, start=start)
        if out.status == lpmod.UNBOUNDED:
            ends.append(-math.inf if direction == "min" else math.inf)
        else:
            assert out.status == lpmod.OPTIMAL
            ends.append(sgn * out.objective)
    return tuple(ends)


def _vlb_clearings(seed: int, count: int):
    """(lp, solution) of the first ``count`` clearings of seeded
    ``random_vlb_scenario`` runs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        run = run_scenario(random_vlb_scenario(rng), compute_ranges=False)
        out += [(r.lp, r.lp_solution) for r in run.results]
    return out[:count]


class TestOneFacePerClearing:
    """A vlb clearing's ranges share one dual face: it is built,
    standardized and crashed once, and each range still takes the pivots of
    a freshly built face. A storage-chain clearing ranges without a face."""

    def test_one_build_per_clearing(self, monkeypatch):
        counts = dict.fromkeys(("face", "standard", "crash", "solve",
                                "face_solve", "phase"), 0)

        def spy(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        solve = lpmod.solve

        def counted_solve(prog, *args, **kwargs):
            counts["face_solve"] += ":dualface:" in prog.name
            return solve(prog, *args, **kwargs)

        monkeypatch.setattr(lpmod, "_dual_face",
                            spy("face", lpmod._dual_face))
        monkeypatch.setattr(lpmod._Standard, "__init__",
                            spy("standard", lpmod._Standard.__init__))
        monkeypatch.setattr(lpmod, "_crash_basis",
                            spy("crash", lpmod._crash_basis))
        monkeypatch.setattr(lpmod, "solve", spy("solve", counted_solve))
        monkeypatch.setattr(lpmod, "_run_phase",
                            spy("phase", lpmod._run_phase))
        solve_or_raise = clearingmod._solve_or_raise

        def primal_solved(*args, **kwargs):
            sol = solve_or_raise(*args, **kwargs)
            counts.update(dict.fromkeys(counts, 0))
            return sol

        monkeypatch.setattr(clearingmod, "_solve_or_raise", primal_solved)
        seen = []

        def observed(clear):
            def cleared(*args, **kwargs):
                res = clear(*args, **kwargs)
                seen.append((res.mode, res.n_periods, dict(counts)))
                return res
            return cleared

        for fn in ("clear_ideal", "clear_split", "clear_split_penalty",
                   "clear_vlb"):
            monkeypatch.setattr(clearingmod, fn,
                                observed(getattr(clearingmod, fn)))
        for name in FIXTURE_NAMES:
            text = (resources.files("artifact") / "fixtures"
                    / f"{name}.json").read_text()
            for mode in MODES:
                scn = dataclasses.replace(parse_scenario(text), mode=mode)
                try:
                    run_scenario(scn, compute_ranges=True)
                except ScenarioError:
                    continue  # split_penalty on a fixture without penalties
        assert {mode for mode, _T, _got in seen} == set(MODES)
        assert len(seen) >= 20
        for mode, T, got in seen:
            if mode == "vlb":
                assert got == {"face": 1, "standard": 1, "crash": 1,
                               "solve": 2 * T, "face_solve": 2 * T,
                               "phase": 2 * T}, mode
            else:
                assert got == dict.fromkeys(counts, 0), mode

    @staticmethod
    def _assert_bitwise(prog, sol, labels):
        for label in labels:
            got = lpmod.dual_range(prog, sol, label)
            want = _ranges_per_label(prog, sol, label)
            assert [v.hex() for v in got] == [v.hex() for v in want], (
                prog.name, label, got, want)

    @pytest.mark.parametrize("source", ["fixtures", "random_interval", "vlb"])
    def test_endpoints_are_those_of_a_fresh_face(self, source):
        clearings = {"fixtures": _fixture_clearings,
                     "random_interval": lambda: _random_clearings(20261024, 40),
                     "vlb": lambda: _vlb_clearings(20261025, 40)}[source]()
        assert len(clearings) >= 20
        for prog, sol in clearings:
            self._assert_bitwise(prog, sol, _balance_labels(prog))

    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_one_sided_face_keeps_its_infinite_end(self, sense):
        sign = 1.0 if sense == "max" else -1.0
        prog = lpmod.LinearProgram(name="one_sided", sense=sense)
        prog.add_variable("d", 0.0, 0.0, objective=sign * 12.0)
        prog.add_variable("p", 0.0, 2.0, objective=-sign * 5.0)
        prog.add_constraint("balance", {"d": 1.0, "p": -1.0}, "==", 0.0)
        sol = lpmod.solve(prog)
        for _ in range(2):  # built, then kept
            self._assert_bitwise(prog, sol, ["balance"])
        assert lpmod.dual_range(prog, sol, "balance") == (
            (-math.inf, 5.0) if sense == "max" else (-5.0, math.inf))


def _same_solution(got, want):
    assert got.status == want.status
    assert got.objective.hex() == want.objective.hex()
    for a, b in ((got.primal, want.primal), (got.duals, want.duals)):
        assert list(a) == list(b)
        assert [v.hex() for v in a.values()] == [v.hex() for v in b.values()]


def _capped_market_lp() -> lpmod.LinearProgram:
    """``single_period_market_lp`` with the cheap generator capped at 1 MW:
    the balance dual is pinned at the dear one's cost."""
    prog = single_period_market_lp()
    prog.add_constraint("cap_p1", {"p1": 1.0}, "<=", 1.0)
    return prog


class TestKeptStateNeverGoesStale:
    """What an LP keeps between solves (its standard form, a crashed basis,
    a dual face) never outlives a change: every case matches a fresh LP."""

    def test_row_added_after_a_solve(self):
        prog = single_period_market_lp()
        lpmod.solve(prog)
        prog.add_constraint("cap_p1", {"p1": 1.0}, "<=", 1.0)
        _same_solution(lpmod.solve(prog), lpmod.solve(_capped_market_lp()))

    def test_variable_and_row_added_after_a_solve(self):
        prog = single_period_market_lp()
        lpmod.solve(prog)
        prog.add_variable("p3", 0.0, 1.0, objective=-1.0)
        prog.add_constraint("cap_p3", {"p3": 1.0, "p2": 1.0}, "<=", 0.5)
        fresh = single_period_market_lp()
        fresh.add_variable("p3", 0.0, 1.0, objective=-1.0)
        fresh.add_constraint("cap_p3", {"p3": 1.0, "p2": 1.0}, "<=", 0.5)
        _same_solution(lpmod.solve(prog), lpmod.solve(fresh))

    def test_sense_flipped_between_solves(self):
        prog = single_period_market_lp()
        first = lpmod.solve(prog)
        lpmod.dual_range(prog, first, "balance")
        prog.sense = "min"
        fresh = single_period_market_lp()
        fresh.sense = "min"
        got, want = lpmod.solve(prog), lpmod.solve(fresh)
        _same_solution(got, want)
        assert (lpmod.dual_range(prog, got, "balance")
                == lpmod.dual_range(fresh, want, "balance"))
        prog.sense = "max"
        _same_solution(lpmod.solve(prog), first)

    def test_ranges_after_a_row_come_from_the_new_face(self):
        prog = single_period_market_lp()
        sol = lpmod.solve(prog)
        assert lpmod.dual_range(prog, sol, "balance") == (2.0, 9.0)
        prog.add_constraint("cap_p1", {"p1": 1.0}, "<=", 1.0)
        sol = lpmod.solve(prog)
        fresh = _capped_market_lp()
        want = lpmod.solve(fresh)
        for label in ("balance", "cap_p1", "balance"):
            got = lpmod.dual_range(prog, sol, label)
            assert got == lpmod.dual_range(fresh, want, label)
        assert lpmod.dual_range(prog, sol, "balance") == (9.0, 9.0)

    def test_each_start_is_crashed_at(self, monkeypatch):
        def floor_lp():
            prog = lpmod.LinearProgram(sense="min")
            prog.add_variable("x", 0.0, 10.0, objective=1.0)
            prog.add_variable("y", 0.0, 10.0, objective=2.0)
            prog.add_constraint("floor", {"x": 1.0, "y": 1.0}, ">=", 4.0)
            return prog

        prog = floor_lp()
        crashed = []
        crash = lpmod._crash_basis

        def spy(std, start):
            if std is prog._standard:
                crashed.append(start.tolist())
            return crash(std, start)

        monkeypatch.setattr(lpmod, "_crash_basis", spy)
        for start in ([0.0, 4.0], [4.0, 0.0], [4.0, 0.0], [0.0, 4.0]):
            got = lpmod.solve(prog, start=start)
            want = lpmod.solve(floor_lp(), start=start)
            assert got.stats.start == lpmod.CRASHED
            assert got.stats == want.stats
            _same_solution(got, want)
        # crashed again at each change of start, and only then
        assert crashed == [[0.0, 4.0], [4.0, 0.0], [0.0, 4.0]]


def _rows_face_lp(room: float, sense: str = "max") -> lpmod.LinearProgram:
    """max x1 + x2 (or min -x1 - x2) with x1 capped at 1 by an active
    ``<=`` row, x2 fixed at 2 by an ``==`` row, a ``<=`` row over both with
    ``room`` to spare and an inactive ``>=`` row under x2."""
    sign = 1.0 if sense == "max" else -1.0
    prog = lpmod.LinearProgram(name="rows", sense=sense)
    prog.add_variable("x1", objective=sign)
    prog.add_variable("x2", objective=sign)
    prog.add_constraint("cap", {"x1": 1.0}, "<=", 1.0)
    prog.add_constraint("room", {"x1": 1.0, "x2": 1.0}, "<=", 3.0 + room)
    prog.add_constraint("fix", {"x2": 1.0}, "==", 2.0)
    prog.add_constraint("floor", {"x2": 1.0}, ">=", 1.0)
    return prog


class TestComplementaryFace:
    """The dual face is the set of duals complementary to the optimal
    primal: each row's dual takes its bounds from ``stationarity_op`` on the
    row's slack, each column keeps its stationarity row, and no row ties
    the dual objective to the primal optimum."""

    @staticmethod
    def _face(prog):
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.OPTIMAL
        assert (sol.primal["x1"], sol.primal["x2"]) == (1.0, 2.0)
        face, sgn = lpmod._dual_face(prog, sol, "cap")
        assert sgn == (1.0 if prog.sense == "max" else -1.0)
        return sol, face

    def test_row_bounds_follow_the_slack(self):
        prog = _rows_face_lp(room=2.0)
        sol, face = self._face(prog)
        assert face.bounds("y[cap]") == (0.0, math.inf)
        assert face.bounds("y[room]") == (0.0, 0.0)
        assert face.bounds("y[fix]") == (-math.inf, math.inf)
        assert face.bounds("y[floor]") == (0.0, 0.0)
        assert face.constraint_labels == ("stationarity[x1]",
                                          "stationarity[x2]")
        assert "strong_duality" not in face.constraint_labels
        assert lpmod.dual_range(prog, sol, "cap") == (1.0, 1.0)
        assert lpmod.dual_range(prog, sol, "fix") == (1.0, 1.0)

    def test_slack_within_the_anchor_tolerance_is_active(self):
        _sol, face = self._face(_rows_face_lp(room=0.5 * lpmod._ANCHOR_TOL))
        assert face.bounds("y[room]") == (0.0, math.inf)
        _sol, face = self._face(_rows_face_lp(room=2.0 * lpmod._ANCHOR_TOL))
        assert face.bounds("y[room]") == (0.0, 0.0)

    def test_min_primal_face_holds_negated_duals(self):
        prog = _rows_face_lp(room=2.0, sense="min")
        sol, face = self._face(prog)
        assert face.bounds("y[cap]") == (0.0, math.inf)
        assert face.bounds("y[room]") == (0.0, 0.0)
        assert lpmod.dual_range(prog, sol, "cap") == (-1.0, -1.0)


def _redundant_row_lp() -> lpmod.LinearProgram:
    """An LP whose third row is the sum of the first two: phase 1 ends with
    an artificial basic, which the drive-out replaces."""
    prog = lpmod.LinearProgram(name="redundant", sense="min")
    prog.add_variable("x", 0.0, 4.0, objective=1.0)
    prog.add_variable("y", 0.0, 4.0, objective=2.0)
    prog.add_variable("z", 0.0, 4.0, objective=3.0)
    prog.add_constraint("a", {"x": 1.0, "y": 1.0}, "==", 2.0)
    prog.add_constraint("b", {"y": 1.0, "z": 1.0}, "==", 3.0)
    prog.add_constraint("sum", {"x": 1.0, "y": 2.0, "z": 1.0}, "==", 5.0)
    return prog


class TestSparseFactor:
    """A basis of ``_SPARSE_ROWS`` rows or more is factored by SuperLU
    instead of LAPACK. Forced on every LP, it reproduces every golden
    report and point price; on large horizons it agrees with the dense LU;
    it keeps the dense LU's singularity rule; and the drive-out after phase
    1 picks its LU as the simplex does."""

    def test_golden_files_with_every_basis_sparse(self, monkeypatch):
        monkeypatch.setattr(lpmod, "_SPARSE_ROWS", 0)
        for file, text in sorted(reports_golden.reports().items()):
            want = (reports_golden.GOLDEN / file).read_text()
            diff = reports_golden._first_difference(want, text)
            assert diff is None, f"{file} {diff}"
        want = json.loads(point_prices_golden.GOLDEN.read_text())
        diff = point_prices_golden._first_difference(
            want, point_prices_golden.point_prices())
        assert diff is None, diff

    def test_sparse_and_dense_agree_on_horizons(self, monkeypatch):
        rng = np.random.default_rng(20261026)
        for days in (3,) * 10 + (7,) * 10:
            prog = TestPricingAgainstDense._horizon(rng, days)
            got = {}
            for kind, rows in (("dense", 10**9), ("sparse", 0)):
                monkeypatch.setattr(lpmod, "_SPARSE_ROWS", rows)
                got[kind] = lpmod.solve(prog)
                assert got[kind].stats.factorization == kind
            dense, sparse = got["dense"], got["sparse"]
            assert sparse.status == dense.status == lpmod.OPTIMAL
            assert sparse.objective == pytest.approx(dense.objective,
                                                     rel=1e-12, abs=0.0)
            for sol in (dense, sparse):
                assert sol.certificate.ok
                assert lpmod.check_certificates(prog, sol).ok

    def test_random_bases_solve_as_the_dense_matrix(self, monkeypatch):
        monkeypatch.setattr(lpmod, "_SPARSE_ROWS", 0)
        rng = np.random.default_rng(47)
        for _ in range(100):
            m = int(rng.integers(1, 40))
            A = np.where(rng.random((m, 2 * m)) < 0.2,
                         rng.uniform(-3.0, 3.0, (m, 2 * m)), 0.0)
            A[:, m:] = np.eye(m)
            art_sign = (rng.choice([-1.0, 1.0], m) if rng.random() < 0.5
                        else np.zeros(0))
            basis = rng.permutation(2 * m + art_sign.size)[:m]
            B = (np.hstack([A, np.diag(art_sign)]) if art_sign.size
                 else A)[:, basis]
            if np.linalg.cond(B) > 1e8:
                continue
            lu = lpmod._factor_basis(
                lpmod._with_artificials(_csc(A), art_sign), basis)
            assert isinstance(lu, lpmod.SuperLU)
            b = rng.uniform(-1.0, 1.0, m)
            for trans, want in ((0, np.linalg.solve(B, b)),
                                (1, np.linalg.solve(B.T, b))):
                got = lpmod._lu_solve(lu, b, trans)
                assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_entries_and_the_dense_matrix_give_the_same_columns(self):
        rng = np.random.default_rng(48)
        for prog, _sol in _fixture_clearings():
            std = lpmod._Standard(prog)
            # the CSC holds the LP's rows and the slack identity
            A = np.hstack([_dense_rows(prog)[0], np.eye(std.m)])
            assert _same_bits(_dense(std.columns, std.m), A)
            # every column of [A, diag(art_sign)], with and without
            # artificials, as the phases read it
            for art_sign in (np.zeros(0), rng.choice([-1.0, 1.0], std.m)):
                want = _dense_with_artificials(std, art_sign)
                columns = lpmod._with_artificials(std.columns, art_sign)
                assert _same_bits(_dense(columns, std.m), want)
                got = np.column_stack([
                    lpmod._column(columns, std.m, q)
                    for q in range(want.shape[1])])
                assert _same_bits(got, want)

    @pytest.mark.parametrize("B", [
        [[1.0, 2.0], [2.0, 4.0]],          # parallel columns
        [[0.0, 0.0], [0.0, 0.0]],          # no entries
        [[1.0, 1.0], [1.0, 1.0 + 1e-14]],  # a pivot below _SINGULAR
        [[1e6, 1e6], [1.0, 1.0 + 1e-7]],   # below _SINGULAR * max|B|
    ])
    def test_singular_basis_raises_without_warning(self, monkeypatch, B):
        monkeypatch.setattr(lpmod, "_SPARSE_ROWS", 0)
        A = np.hstack([np.array(B), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lpmod.LpNumericalError, match="singular"):
                lpmod._factor_basis(_csc(A), np.array([0, 1]))
            # the dense LU draws the same line
            monkeypatch.setattr(lpmod, "_SPARSE_ROWS", 10**9)
            with pytest.raises(lpmod.LpNumericalError, match="singular"):
                lpmod._factor_basis(_csc(A), np.array([0, 1]))

    def test_drive_out_reaches_the_dense_basis(self, monkeypatch):
        bases = {}
        drive_out = lpmod._drive_out_artificials

        def spy(columns, state, basis):
            count = drive_out(columns, state, basis)
            bases[kind] = (count, basis.tolist())
            return count

        def no_dense_factor(*args):
            raise AssertionError("dense LU of a sparse-sized basis")

        monkeypatch.setattr(lpmod, "_drive_out_artificials", spy)
        sols = {}
        for kind, rows in (("dense", 10**9), ("sparse", 1)):
            monkeypatch.setattr(lpmod, "_SPARSE_ROWS", rows)
            if kind == "sparse":
                monkeypatch.setattr(lpmod, "dgetrf", no_dense_factor)
            sols[kind] = lpmod.solve(_redundant_row_lp())
            assert sols[kind].stats.factorization == kind
        assert bases["sparse"] == bases["dense"]
        count, basis = bases["dense"]
        # one artificial driven out, by a row slack
        assert count == 1 and max(basis) < 6
        dense, sparse = sols["dense"], sols["sparse"]
        assert sparse.status == dense.status == lpmod.OPTIMAL
        assert sparse.objective == pytest.approx(dense.objective, rel=1e-12)
        assert sparse.primal == pytest.approx(dense.primal, rel=1e-12)


class TestFactorizationStat:
    """``SolveStats.factorization`` names the LU a solve used: dense for a
    day's ``vlb`` face, sparse for a week's ``ideal`` LP. It is telemetry
    alone."""

    def test_day_face_is_dense_and_week_is_sparse(self):
        rng = np.random.default_rng(20261027)
        intervals = tuple(
            random_interval(rng, 2.0, n_periods=12, delta_t=1.0,
                            end_level=0.0 if k else None)
            for k in range(2))
        scn = Scenario(StorageSpec(2.0, 0.0), intervals, "vlb")
        faces = 0
        for res in run_scenario(scn, compute_ranges=False).results:
            prog, sol = res.lp, res.lp_solution
            assert sol.stats.factorization == "dense"
            for label in _balance_labels(prog):
                face, sgn = lpmod._dual_face(prog, sol, label)
                start = [sgn * sol.duals[lab] for lab in prog.constraint_labels]
                got = lpmod.solve(face, start=start)
                assert got.stats.start == lpmod.CRASHED
                assert got.stats.factorization == "dense"
                faces += 1
        assert faces == 24
        week = lpmod.solve(TestPricingAgainstDense._horizon(rng, 7))
        assert week.stats.factorization == "sparse"

    def test_stat_takes_no_part_in_equality_or_repr(self):
        stats = lpmod.solve(single_period_market_lp()).stats
        assert stats.factorization == "dense"
        assert dataclasses.replace(stats, factorization="sparse") == stats
        assert "factorization=" not in repr(stats)


class TestFlipsAndCrashedFactors:
    """A bound flip reprices nothing: the next iteration reuses its duals
    and reduced costs. A face factors its crashed basis once, and each of
    its solves starts on that LU."""

    def test_a_flip_makes_no_btran(self, monkeypatch):
        btrans = []
        btran = lpmod._Factor.btran
        run_phase = lpmod._run_phase

        def counted_btran(self, v):
            btrans[-1] += 1
            return btran(self, v)

        def spy(*args):
            btrans.append(0)
            status, y, stats = run_phase(*args)
            # one BTRAN per iteration that follows no flip, the first and
            # the final one included
            assert btrans[-1] == stats.pivots + stats.confirmations + 1
            return status, y, stats

        monkeypatch.setattr(lpmod._Factor, "btran", counted_btran)
        monkeypatch.setattr(lpmod, "_run_phase", spy)
        flips = 0
        for prog, _sol in _fixture_clearings():
            sol = lpmod.solve(prog)
            flips += sum(p.bound_flips for p in sol.stats._phases())
        week = lpmod.solve(TestPricingAgainstDense._horizon(
            np.random.default_rng(20261028), 7))
        assert week.stats.phase_2.bound_flips > 10
        assert flips > 0

    def test_face_solves_start_on_the_crash_lu(self, monkeypatch):
        factored = []
        factor_basis = lpmod._factor_basis

        def spy(*args):
            factored.append(args[1].tolist())
            return factor_basis(*args)

        face_stats = []
        solve = lpmod.solve

        def counted_solve(prog, *args, **kwargs):
            sol = solve(prog, *args, **kwargs)
            face_stats.append(sol.stats)
            return sol

        for prog, sol in _vlb_clearings(20261029, 10):
            labels = _balance_labels(prog)
            with monkeypatch.context() as patch:
                patch.setattr(lpmod, "_factor_basis", spy)
                patch.setattr(lpmod, "solve", counted_solve)
                del factored[:], face_stats[:]
                for label in labels:
                    lpmod.dual_range(prog, sol, label)
            assert len(face_stats) == 2 * len(labels)
            for stats in face_stats:
                assert stats.start == lpmod.CRASHED
                # a face solve factors only to refresh or to confirm
                phase = stats.phase_2
                assert phase.factorizations == (
                    phase.pivots // lpmod._REFACTOR + phase.confirmations)
            # the crash's one factorization, then the solves' own
            assert len(factored) == 1 + sum(s.factorizations
                                            for s in face_stats)


def _infeasible_lp() -> lpmod.LinearProgram:
    prog = lpmod.LinearProgram(name="infeasible")
    prog.add_variable("x", 0.0, 1.0, objective=1.0)
    prog.add_constraint("floor", {"x": 1.0}, ">=", 2.0)
    return prog


class TestSolutionMustFitTheLp:
    """``check_certificates`` and ``dual_range`` judge an optimal solution
    of the LP they are given; any other fails with ``ValueError``."""

    def test_certificates_of_an_infeasible_solve(self):
        prog = _infeasible_lp()
        sol = lpmod.solve(prog)
        assert sol.status == lpmod.INFEASIBLE
        with pytest.raises(ValueError, match="requires an optimal solution"):
            lpmod.check_certificates(prog, sol)

    @pytest.mark.parametrize("where", ["primal", "duals"])
    @pytest.mark.parametrize("change", ["renamed", "dropped", "added"])
    def test_a_solution_naming_other_columns_or_rows(self, where, change):
        prog = single_period_market_lp()
        sol = lpmod.solve(prog)
        values = {"primal": dict(sol.primal), "duals": dict(sol.duals)}
        names = values[where]
        first = next(iter(names))
        if change != "added":
            value = names.pop(first)
        if change != "dropped":
            names["other"] = value if change == "renamed" else 0.0
        other = lpmod.LpSolution(sol.status, sol.objective, **values)
        with pytest.raises(ValueError, match="does not name"):
            lpmod.check_certificates(prog, other)
        with pytest.raises(ValueError, match="does not name"):
            lpmod.dual_range(prog, other, "balance")

    def test_a_solution_of_another_lp(self):
        prog = single_period_market_lp()
        other = _capped_market_lp()
        sol = lpmod.solve(other)
        assert sol.status == lpmod.OPTIMAL
        with pytest.raises(ValueError, match="does not name"):
            lpmod.check_certificates(prog, sol)
        with pytest.raises(ValueError, match="does not name"):
            lpmod.dual_range(prog, sol, "balance")


class TestOverflow:
    """Finite data whose products leave the float range fail with
    ``LpNumericalError`` naming the LP, never with a numpy warning."""

    def test_objective_overflow_in_solve(self):
        prog = lpmod.LinearProgram(name="huge")
        for name in ("x", "y"):
            prog.add_variable(name, 0.0, 1e308, objective=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lpmod.LpNumericalError, match="'huge'.*overflow"):
                lpmod.solve(prog)

    def test_row_sum_overflow_in_solve(self):
        # each term is finite and so is the row's value, 1e308 + w, but
        # its first two terms overflow when added: an error, never the
        # verdict "infeasible" an inf row activity would give
        prog = lpmod.LinearProgram(name="huge-row")
        for name, bound in (("x", 1e308), ("z", 1e308), ("y", -1e308)):
            prog.add_variable(name, bound, bound)
        prog.add_variable("w", 0.0, 1.0, objective=1.0)
        prog.add_constraint("row", {"x": 1.0, "z": 1.0, "y": 1.0, "w": 1.0},
                            "<=", 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lpmod.LpNumericalError,
                               match="'huge-row'.*overflow"):
                lpmod.solve(prog)

    def test_column_sum_overflow_in_check_certificates(self):
        # x's reduced cost adds two finite terms of -1e308
        prog = lpmod.LinearProgram(name="tiny", sense="max")
        prog.add_variable("x", 0.0, 1.0, objective=1.0)
        prog.add_constraint("r1", {"x": 1.0}, "<=", 1e-300)
        prog.add_constraint("r2", {"x": 1.0}, "<=", 1e-300)
        sol = lpmod.solve(prog)
        huge = dataclasses.replace(sol, duals={"r1": 1e308, "r2": 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lpmod.LpNumericalError,
                               match="'tiny'.*overflow"):
                lpmod.check_certificates(prog, huge)

    def test_residual_overflow_in_check_certificates(self):
        prog = single_period_market_lp()
        sol = lpmod.solve(prog)
        huge = dataclasses.replace(sol, duals={"balance": 1e308},
                                   primal=dict(sol.primal, d=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lpmod.LpNumericalError,
                               match="'smoke'.*overflow"):
                lpmod.check_certificates(prog, huge)
