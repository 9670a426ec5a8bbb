"""Correctness gate for benchmark ops, run outside the timed region.

An op passes when

(a) no mode raised or reported an error,
(b) ``lp.check_certificates`` passes again on every clearing LP the run
    returns (each interval's ``lp``/``lp_solution`` and, for ``ideal``, the
    whole-horizon ``full_result``), and
(c) the ``ideal`` social welfare and price ranges equal the values recorded
    for the scenario in ``reference.json`` (1e-6 relative, 1e-9), or, for a
    scenario not recorded there, the values an independent HiGHS model of
    the ideal LP gives (1e-6 relative, 1e-6). Both are unique optimal
    values, so any certified solver path must reproduce them.

(d) The SHA-256 of the structured report is compared with the recorded one
    and a difference is only counted: point duals and degenerate dispatch
    are not unique.

``check_report`` does (a) and (b) right after an op; ``check_ideal`` does
(c) and (d) from the op's ``observe`` record once the measurement is over,
so neither the reference file nor the HiGHS model adds to the run's
measured memory.

    PYTHONPATH=src python3 perfbench/gate.py WORKLOAD OPS SEED...

records the first OPS scenarios of each seed's stream in ``reference.json``,
each checked against the HiGHS model first. A scenario already recorded
keeps its recorded values.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from artifact import lp as lpmod
from artifact import model

import scenarios

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WELFARE_RTOL = 1e-6
RANGE_TOL_RECORDED = 1e-9
# HiGHS works to the feasibility tolerances in HIGHS and its dual face is
# widened by FACE_SLACK (relative) to stay feasible, so its endpoints can sit
# about 1e-8 from the exact ones; they are compared more loosely
RANGE_TOL_ORACLE = 1e-6
FACE_SLACK = 1e-12
HIGHS = {"primal_feasibility_tolerance": 1e-10,
         "dual_feasibility_tolerance": 1e-10}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _clearing_results(mode_report) -> list:
    run = mode_report.run
    results = [r for r in run.results if r.lp is not None]
    if run.full_result is not None:
        results.append(run.full_result)
    return results


def check_report(modes, report) -> list[str]:
    """Checks (a) and (b): the problems found in one op's report."""
    problems = []
    got = {m.mode: m for m in report.modes}
    for mode in modes:
        m = got.get(mode)
        if m is None:
            problems.append(f"{mode}: missing from the report")
            continue
        if m.error is not None:
            problems.append(f"{mode}: {m.error}")
            continue
        results = _clearing_results(m)
        if not results:
            problems.append(f"{mode}: no clearing LP returned")
        for r in results:
            cert = lpmod.check_certificates(r.lp, r.lp_solution)
            if not cert.ok:
                problems.append(
                    f"{mode}: certificates fail for {r.lp.name!r}: {cert}")
    return problems


def observe(report, document: str) -> dict:
    """What checks (c) and (d) compare: the report's digest and the ideal
    welfare and price ranges. Call it only on a report that passed
    ``check_report`` and includes ``ideal``."""
    ideal = next(m for m in report.modes if m.mode == "ideal")
    ranges = ideal.run.full_result.price_ranges
    return {"report_sha256": sha256(document),
            "welfare": ideal.totals["social_welfare"],
            "ranges": None if ranges is None else [list(r) for r in ranges]}


@dataclass
class IdealCheck:
    """Outcome of checks (c) and (d) for one op. ``source`` is "recorded",
    "oracle", or None when (c) was not made."""

    problems: list[str]
    source: str | None
    digest_changed: bool = False


def check_ideal(scenario_text: str, observation: dict, reference: dict,
                oracle: bool = True) -> IdealCheck:
    """Checks (c) and (d). An unrecorded scenario is checked against the
    HiGHS model only when ``oracle`` is true."""
    recorded = reference.get(sha256(scenario_text))
    if recorded is not None:
        return IdealCheck(
            _compare_ideal(observation, recorded, RANGE_TOL_RECORDED),
            "recorded",
            recorded["report_sha256"] != observation["report_sha256"])
    if not oracle:
        return IdealCheck([], None)
    try:
        expected = ideal_optimum(model.parse_scenario(scenario_text),
                                 observation["ranges"] is not None)
    except RuntimeError as exc:
        return IdealCheck([f"ideal: no oracle value: {exc}"], "oracle")
    return IdealCheck(
        _compare_ideal(observation, expected, RANGE_TOL_ORACLE), "oracle")


def _compare_ideal(observation: dict, expected: dict,
                   range_tol: float) -> list[str]:
    problems = []
    welfare = observation["welfare"]
    if not _close(welfare, expected["welfare"], WELFARE_RTOL):
        problems.append(f"ideal: social welfare {welfare!r}, expected "
                        f"{expected['welfare']!r}")
    ranges, want = observation["ranges"], expected.get("ranges")
    if ranges is None or want is None:
        return problems
    if len(ranges) != len(want):
        return problems + [f"ideal: {len(ranges)} price ranges, expected "
                           f"{len(want)}"]
    for t, (r, w) in enumerate(zip(ranges, want), start=1):
        if not (_close(r[0], w[0], range_tol)
                and _close(r[1], w[1], range_tol)):
            problems.append(
                f"ideal: price range of period {t} is {r}, expected {w}")
    return problems


def ideal_optimum(scenario, ranges: bool) -> dict:
    """Optimal welfare and, if asked, per-period price ranges of the ideal
    clearing, from a model built here from the scenario and solved by HiGHS.

    The model is max c.x s.t. A x = b, lb <= x <= ub over the bids, the net
    storage injection and the storage level (balance rows, then level rows,
    then the final end level). A period's price range is the least and
    greatest balance dual over the optimal face of the dual
    min b.y + ub.w - lb.v s.t. A'y + w - v = c, w, v >= 0.
    """
    intervals = scenario.intervals
    dt = intervals[0].grid.delta_t
    T = sum(iv.grid.n_periods for iv in intervals)
    c, lb, ub, rows, signs = [], [], [], [], []
    t0 = 0
    for iv in intervals:
        for bids, sign in ((iv.loads, 1.0), (iv.generators, -1.0)):
            for bid in bids:
                price = bid.utility if sign > 0 else bid.cost
                for t in range(iv.grid.n_periods):
                    c.append(sign * dt * price[t])
                    lb.append(0.0)
                    ub.append(bid.max_quantity[t])
                    rows.append(t0 + t)
                    signs.append(sign)
        t0 += iv.grid.n_periods
    n_bids = len(c)
    n, m = n_bids + 2 * T, 2 * T + 1
    A = np.zeros((m, n))
    A[rows, range(n_bids)] = signs
    b = np.zeros(m)
    pc, e = n_bids, n_bids + T
    for t in range(T):
        A[t, pc + t] = 1.0
        A[T + t, e + t] = 1.0
        A[T + t, pc + t] = -dt
        if t:
            A[T + t, e + t - 1] = -1.0
    b[T] = scenario.storage.initial_energy
    A[2 * T, e + T - 1] = 1.0
    b[2 * T] = intervals[-1].end_level
    c += [0.0] * (2 * T)
    lb += [-np.inf] * T + [0.0] * T
    ub += [np.inf] * T + [scenario.storage.capacity] * T
    c, lb, ub = np.array(c), np.array(lb), np.array(ub)
    # imported here: the program does not load scipy.optimize itself
    from scipy.optimize import linprog
    primal = linprog(-c, A_eq=A, b_eq=b, bounds=list(zip(lb, ub)),
                     method="highs", options=HIGHS)
    if primal.status != 0:
        raise RuntimeError(f"HiGHS ideal model: {primal.message}")
    z = -primal.fun
    if not ranges:
        return {"welfare": z, "ranges": None}
    up, lo = np.isfinite(ub), np.isfinite(lb)
    # columns: y (m, free), w (finite upper bounds), v (finite lower bounds)
    face_eq = np.hstack([A.T, np.eye(n)[:, up], -np.eye(n)[:, lo]])
    face_obj_row = np.concatenate([b, ub[up], -lb[lo]])
    bounds = [(None, None)] * m + [(0.0, None)] * int(up.sum() + lo.sum())
    out = []
    for t in range(T):
        ends = []
        for sense in (1.0, -1.0):
            goal = np.zeros(face_eq.shape[1])
            goal[t] = sense
            res = linprog(goal, A_eq=face_eq, b_eq=c,
                          A_ub=face_obj_row[None, :],
                          b_ub=[z + FACE_SLACK * max(1.0, abs(z))],
                          bounds=bounds, method="highs", options=HIGHS)
            if res.status != 0:
                raise RuntimeError(f"HiGHS dual face: {res.message}")
            ends.append(sense * res.fun / dt)
        out.append(ends)
    return {"welfare": z, "ranges": out}


def record(workload: str, n_ops: int, seeds,
           path: Path = REFERENCE_PATH) -> int:
    """Add the first ``n_ops`` scenarios of each seed's stream to the
    reference file, each one only after it passed checks (a)-(c) against
    the HiGHS model. Scenarios already recorded keep their values. Returns
    the number of scenarios the file then holds."""
    shape = scenarios.WORKLOADS[workload]
    reference = load_reference(path)
    for seed in seeds:
        stream = scenarios.scenario_stream(shape, seed)
        for n, text in enumerate(islice(stream, n_ops), start=1):
            key = sha256(text)
            if key in reference:
                continue
            _, report, document = scenarios.run_op(shape, text)
            problems = check_report(shape.modes, report)
            if not problems:
                observation = observe(report, document)
                problems = check_ideal(text, observation, {}).problems
            if problems:
                raise SystemExit(f"{workload} seed {seed} op {n} not "
                                 "recorded: " + "; ".join(problems))
            reference[key] = observation
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(reference.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return len(reference)


if __name__ == "__main__":
    workload, n_ops, *seeds = sys.argv[1:]
    print(record(workload, int(n_ops), [int(s) for s in seeds]),
          "scenarios recorded")
