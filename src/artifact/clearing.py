"""Market clearing formulations.

Four clearings over the same bid structure: ``ideal`` (one LP across the
whole horizon), ``split_end_level`` (per interval, storage steered to a
target end level), ``split_penalty`` (per interval, the target replaced by a
price on leftover energy), and ``vlb`` (per interval, previously stored
energy offered back through virtual load bids priced from a value ledger).
The first three are one storage-level chain built by ``_clear_chain``: they
differ only in the periods the chain spans and in how its last level is
closed (an ``end_level`` row, or a price on the level).

Price ranges: a chain clearing's optimal dual face, written in prices, is a
system of difference constraints on the chain, so ``_chain_ranges`` gets
every period's range from two sweeps over the bids and the optimal levels.
``vlb`` ranges each period over its dual face with ``lp.dual_range``.

Sign conventions: storage injection is charge-positive in MW; prices are
EUR/MWh (balance-row duals divided by delta_t). ``ClearingResult.objective``
is the raw LP objective including penalty/virtual-bid terms; dispatch-based
social welfare lives in :mod:`artifact.metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import lp as lpmod
from . import storage_ledger
from .errors import InfeasibleError, LpNumericalError, ScenarioError
from .model import IntervalSpec, StorageSpec, ValueLedger, snap_zero


@dataclass(frozen=True)
class ClearingResult:
    """Dispatch, storage trajectory and prices from one clearing LP.

    Per-period collections are indexed 0..n_periods-1; dispatch is stored as
    one mapping per period from participant id to MW. Fields that do not
    apply to a mode are None. ``storage_injection`` is the net charge in MW
    (for vlb: intra charge minus total bucket discharge). A vlb result holds
    the ``ledger`` it was cleared against, one bucket per ``inter_*`` row.
    """

    mode: str
    delta_t: float
    n_periods: int
    load_dispatch: tuple[dict[str, float], ...]
    gen_dispatch: tuple[dict[str, float], ...]
    storage_injection: tuple[float, ...]
    prices: tuple[float, ...]
    objective: float
    initial_content: float
    final_content: float
    price_ranges: tuple[tuple[float, float], ...] | None = None
    level: tuple[float, ...] | None = None
    intra_charge: tuple[float, ...] | None = None
    intra_level: tuple[float, ...] | None = None
    inter_discharge: tuple[tuple[float, ...], ...] | None = None
    inter_level: tuple[tuple[float, ...], ...] | None = None
    ledger: ValueLedger | None = None
    lp: lpmod.LinearProgram | None = field(default=None, repr=False, compare=False)
    lp_solution: lpmod.LpSolution | None = field(default=None, repr=False,
                                                 compare=False)

    def load(self, load_id: str) -> tuple[float, ...]:
        """Dispatch of one load across periods (0 where it has no bid)."""
        return tuple(d.get(load_id, 0.0) for d in self.load_dispatch)

    def gen(self, gen_id: str) -> tuple[float, ...]:
        """Dispatch of one generator across periods (0 where it has no bid)."""
        return tuple(d.get(gen_id, 0.0) for d in self.gen_dispatch)

    @property
    def total_inter_discharge(self) -> tuple[float, ...]:
        """Per-bucket discharged energy, MWh, summed over periods."""
        if self.inter_discharge is None:
            return ()
        return tuple(self.delta_t * sum(row) for row in self.inter_discharge)


def _add_bid_variables(prog: lpmod.LinearProgram, interval: IntervalSpec,
                       dt: float, offset: int) -> None:
    T = interval.grid.n_periods
    for ld in interval.loads:
        for t in range(T):
            prog.add_variable(f"d[{ld.id},{offset + t + 1}]", 0.0,
                              ld.max_quantity[t], objective=dt * ld.utility[t])
    for g in interval.generators:
        for t in range(T):
            prog.add_variable(f"p[{g.id},{offset + t + 1}]", 0.0,
                              g.max_quantity[t], objective=-dt * g.cost[t])


def _balance_coeffs(interval: IntervalSpec, t: int, offset: int) -> dict[str, float]:
    coeffs = {f"d[{ld.id},{offset + t + 1}]": 1.0 for ld in interval.loads}
    for g in interval.generators:
        coeffs[f"p[{g.id},{offset + t + 1}]"] = -1.0
    return coeffs


def _extract_dispatch(sol: lpmod.LpSolution, interval: IntervalSpec,
                      offset: int) -> tuple[list[dict[str, float]],
                                            list[dict[str, float]]]:
    T = interval.grid.n_periods
    loads = [{ld.id: snap_zero(sol.primal[f"d[{ld.id},{offset + t + 1}]"])
              for ld in interval.loads} for t in range(T)]
    gens = [{g.id: snap_zero(sol.primal[f"p[{g.id},{offset + t + 1}]"])
             for g in interval.generators} for t in range(T)]
    return loads, gens


def _prices(sol: lpmod.LpSolution, n_periods: int,
            dt: float) -> tuple[float, ...]:
    return tuple(snap_zero(sol.duals[f"balance[{t + 1}]"] / dt)
                 for t in range(n_periods))


def _face_ranges(prog: lpmod.LinearProgram, sol: lpmod.LpSolution,
                 n_periods: int, dt: float) -> tuple[tuple[float, float], ...]:
    ranges = []
    for t in range(n_periods):
        lo, hi = lpmod.dual_range(prog, sol, f"balance[{t + 1}]")
        ranges.append((snap_zero(lo / dt), snap_zero(hi / dt)))
    return tuple(ranges)


# the side a generator's stationarity row puts on the price: its column
# enters the balance row with -1
_MIRROR = {"<=": ">=", ">=": "<=", "==": "==", None: None}


def _chain_ranges(spans: list[tuple[IntervalSpec, int]], storage: StorageSpec,
                  penalty: float | None, sol: lpmod.LpSolution,
                  prices: tuple[float, ...],
                  name: str) -> tuple[tuple[float, float], ...]:
    """Every period's range of supporting prices over the optimal dual face
    of a ``_clear_chain`` LP, without solving the face.

    Written in prices, the face is a system of difference constraints on
    the chain (``docs/decisions.md`` derives it): each bid bounds its period
    at its price, each level e[t] with t < T links periods t and t + 1 (an
    empty store gives pi_{t+1} <= pi_t, a full one pi_{t+1} >= pi_t), and a
    priced last level bounds the last period at -penalty.
    ``lp.stationarity_op`` reads each side from the optimal solution, as
    ``lp._dual_face`` does. A forward and a backward sweep carry the lower
    bounds along the >= links and the upper bounds along the <= links, so
    each finite endpoint is exactly a bid price, -penalty or 0."""
    total = len(prices)
    lo = [-math.inf] * total
    hi = [math.inf] * total

    def bound(t: int, op: str | None, price: float) -> None:
        if op in ("<=", "=="):
            hi[t] = min(hi[t], price)
        if op in (">=", "=="):
            lo[t] = max(lo[t], price)

    def side(var: str, cap: float) -> str | None:
        return lpmod.stationarity_op(sol.primal[var], 0.0, cap)

    for iv, offset in spans:
        for t in range(iv.grid.n_periods):
            k = offset + t
            for ld in iv.loads:
                bound(k, side(f"d[{ld.id},{k + 1}]", ld.max_quantity[t]),
                      ld.utility[t])
            for g in iv.generators:
                bound(k, _MIRROR[side(f"p[{g.id},{k + 1}]", g.max_quantity[t])],
                      g.cost[t])
    # links[t] is the side of pi_t against pi_{t + 1}
    links = [side(f"e[{t + 1}]", storage.capacity) for t in range(total)]
    if penalty is not None:
        bound(total - 1, links[-1], -penalty)
    for t in range(total - 1):
        if links[t] in ("<=", "=="):
            lo[t + 1] = max(lo[t + 1], lo[t])
        if links[t] in (">=", "=="):
            hi[t + 1] = min(hi[t + 1], hi[t])
    for t in reversed(range(total - 1)):
        if links[t] in ("<=", "=="):
            hi[t] = min(hi[t], hi[t + 1])
        if links[t] in (">=", "=="):
            lo[t] = max(lo[t], lo[t + 1])
    for t in range(total):
        if lo[t] > hi[t]:
            raise LpNumericalError(
                f"{name}: price range of period {t + 1} is empty: "
                f"[{lo[t]}, {hi[t]}]")
        if not (lo[t] - lpmod.EPS <= prices[t] <= hi[t] + lpmod.EPS):
            raise LpNumericalError(
                f"{name}: published price {prices[t]} of period {t + 1} "
                f"outside computed range [{lo[t]}, {hi[t]}]")
    return tuple((snap_zero(a), snap_zero(b)) for a, b in zip(lo, hi))


def _solve_or_raise(prog: lpmod.LinearProgram, requirement: str) -> lpmod.LpSolution:
    sol = lpmod.solve(prog)
    if sol.status == lpmod.INFEASIBLE:
        raise InfeasibleError(
            f"{prog.name}: no feasible dispatch satisfies the {requirement} "
            "requirement", stage=requirement)
    if sol.status == lpmod.UNBOUNDED:
        raise LpNumericalError(f"{prog.name}: unexpectedly unbounded")
    return sol


def _clear_chain(mode: str, intervals: tuple[IntervalSpec, ...],
                 storage: StorageSpec, e_init: float, compute_ranges: bool,
                 name: str, penalty: float | None = None) -> ClearingResult:
    """Clear one chain of storage levels over the periods of ``intervals``,
    starting from ``e_init``. Without a penalty the last level is held to
    the last interval's end level; with one it is free and every MWh left
    costs ``penalty`` in the objective."""
    dt = intervals[0].grid.delta_t
    spans = []
    total = 0
    for iv in intervals:
        spans.append((iv, total))
        total += iv.grid.n_periods
    prog = lpmod.LinearProgram(name=name, sense="max")
    for iv, offset in spans:
        _add_bid_variables(prog, iv, dt, offset)
    for t in range(total):
        prog.add_variable(f"pC[{t + 1}]", -math.inf, math.inf)
    for t in range(total):
        last = penalty is not None and t == total - 1
        prog.add_variable(f"e[{t + 1}]", 0.0, storage.capacity,
                          objective=-penalty if last else 0.0)
    for iv, offset in spans:
        for t in range(iv.grid.n_periods):
            coeffs = _balance_coeffs(iv, t, offset)
            coeffs[f"pC[{offset + t + 1}]"] = 1.0
            prog.add_constraint(f"balance[{offset + t + 1}]", coeffs, "==", 0.0)
    for t in range(total):
        coeffs = {f"e[{t + 1}]": 1.0, f"pC[{t + 1}]": -dt}
        if t:
            coeffs[f"e[{t}]"] = -1.0
        prog.add_constraint(f"level[{t + 1}]", coeffs, "==",
                            e_init if t == 0 else 0.0)
    if penalty is None:
        prog.add_constraint("end_level", {f"e[{total}]": 1.0}, "==",
                            intervals[-1].end_level)
    sol = _solve_or_raise(prog,
                          "end_level" if penalty is None else "storage_level")
    loads: list[dict[str, float]] = []
    gens: list[dict[str, float]] = []
    for iv, offset in spans:
        ld, gd = _extract_dispatch(sol, iv, offset)
        loads.extend(ld)
        gens.extend(gd)
    prices = _prices(sol, total, dt)
    ranges = (_chain_ranges(spans, storage, penalty, sol, prices, name)
              if compute_ranges else None)
    level = tuple(snap_zero(sol.primal[f"e[{t + 1}]"]) for t in range(total))
    return ClearingResult(
        mode=mode, delta_t=dt, n_periods=total,
        load_dispatch=tuple(loads), gen_dispatch=tuple(gens),
        storage_injection=tuple(snap_zero(sol.primal[f"pC[{t + 1}]"])
                                for t in range(total)),
        prices=prices, price_ranges=ranges, level=level,
        objective=sol.objective, initial_content=float(e_init),
        final_content=level[-1], lp=prog, lp_solution=sol)


def clear_split(interval: IntervalSpec, storage: StorageSpec, e_init: float,
                compute_ranges: bool = True, name: str = "split") -> ClearingResult:
    """Clear one interval with the storage steered to its target end level."""
    return _clear_chain("split_end_level", (interval,), storage, e_init,
                        compute_ranges, name)


def clear_split_penalty(interval: IntervalSpec, storage: StorageSpec,
                        e_init: float, compute_ranges: bool = True,
                        name: str = "split_penalty") -> ClearingResult:
    """Clear one interval with leftover stored energy priced at the
    interval's penalty price instead of a fixed end level."""
    if interval.penalty_price is None:
        raise ScenarioError("split_penalty clearing requires penalty_price")
    return _clear_chain("split_penalty", (interval,), storage, e_init,
                        compute_ranges, name, penalty=interval.penalty_price)


def clear_ideal(storage: StorageSpec, intervals: tuple[IntervalSpec, ...],
                compute_ranges: bool = True) -> ClearingResult:
    """Clear the whole horizon in one LP with perfect foresight. The end
    level binds only at the final period, using the last interval's target."""
    if not intervals:
        raise ScenarioError("clear_ideal requires at least one interval")
    dts = {iv.grid.delta_t for iv in intervals}
    if len(dts) > 1:
        raise ScenarioError("clear_ideal requires a shared delta_t")
    return _clear_chain("ideal", intervals, storage, storage.initial_energy,
                        compute_ranges, "ideal")


def dispatch_welfare(result: ClearingResult, interval: IntervalSpec) -> float:
    """Utility minus cost of the dispatched quantities over the interval's
    periods, times delta_t."""
    dt = result.delta_t
    total = 0.0
    for t in range(interval.grid.n_periods):
        row_l = result.load_dispatch[t]
        row_g = result.gen_dispatch[t]
        for ld in interval.loads:
            total += dt * ld.utility[t] * row_l.get(ld.id, 0.0)
        for g in interval.generators:
            total -= dt * g.cost[t] * row_g.get(g.id, 0.0)
    return total


def slice_ideal(result: ClearingResult,
                intervals: tuple[IntervalSpec, ...]) -> list[ClearingResult]:
    """Cut a whole-horizon ideal result into per-interval views aligned with
    ``intervals``; each slice's objective is its own dispatch welfare."""
    slices = []
    offset = 0
    prev_content = result.initial_content
    for iv in intervals:
        T = iv.grid.n_periods
        sl = slice(offset, offset + T)
        level = result.level[sl]
        piece = ClearingResult(
            mode="ideal", delta_t=result.delta_t, n_periods=T,
            load_dispatch=result.load_dispatch[sl],
            gen_dispatch=result.gen_dispatch[sl],
            storage_injection=result.storage_injection[sl],
            prices=result.prices[sl],
            price_ranges=None if result.price_ranges is None
            else result.price_ranges[sl],
            level=level, objective=0.0, initial_content=prev_content,
            final_content=level[-1])
        slices.append(replace(piece, objective=dispatch_welfare(piece, iv)))
        prev_content = level[-1]
        offset += T
    return slices


def clear_vlb(interval: IntervalSpec, storage: StorageSpec,
              ledger: ValueLedger, compute_ranges: bool = True,
              name: str = "vlb") -> ClearingResult:
    """Clear one interval with stored energy offered back through virtual
    load bids priced by the ledger. The returned solution is post-processed
    so no period both charges fresh energy and discharges a bucket."""
    T, dt = interval.grid.n_periods, interval.grid.delta_t
    buckets = ledger.buckets
    V = len(buckets)
    prog = lpmod.LinearProgram(name=name, sense="max")
    _add_bid_variables(prog, interval, dt, 0)
    for t in range(T):
        prog.add_variable(f"pCa[{t + 1}]", -math.inf, math.inf)
    for t in range(T):
        # intra level may dip negative mid-interval while buckets hold
        # energy; the final level must be nonnegative on its own
        lb = 0.0 if t == T - 1 else -math.inf
        prog.add_variable(f"ea[{t + 1}]", lb, math.inf)
    for v, bucket in enumerate(buckets):
        for t in range(T):
            prog.add_variable(f"pD[{v + 1},{t + 1}]", 0.0, math.inf,
                              objective=-dt * bucket.price)
    for v in range(V):
        for t in range(T):
            prog.add_variable(f"ee[{v + 1},{t + 1}]", 0.0, math.inf)
    for t in range(T):
        coeffs = _balance_coeffs(interval, t, 0)
        coeffs[f"pCa[{t + 1}]"] = 1.0
        for v in range(V):
            coeffs[f"pD[{v + 1},{t + 1}]"] = -1.0
        prog.add_constraint(f"balance[{t + 1}]", coeffs, "==", 0.0)
    for t in range(T):
        coeffs = {f"ea[{t + 1}]": 1.0, f"pCa[{t + 1}]": -dt}
        if t:
            coeffs[f"ea[{t}]"] = -1.0
        prog.add_constraint(f"intra[{t + 1}]", coeffs, "==", 0.0)
    for v, bucket in enumerate(buckets):
        for t in range(T):
            coeffs = {f"ee[{v + 1},{t + 1}]": 1.0, f"pD[{v + 1},{t + 1}]": dt}
            if t:
                coeffs[f"ee[{v + 1},{t}]"] = -1.0
            prog.add_constraint(f"inter[{v + 1},{t + 1}]", coeffs, "==",
                                bucket.quantity if t == 0 else 0.0)
    for t in range(T):
        coeffs = {f"ea[{t + 1}]": 1.0}
        for v in range(V):
            coeffs[f"ee[{v + 1},{t + 1}]"] = 1.0
        prog.add_constraint(f"capacity_lo[{t + 1}]", dict(coeffs), ">=", 0.0)
        prog.add_constraint(f"capacity_hi[{t + 1}]", dict(coeffs), "<=",
                            storage.capacity)
    end_coeffs = {f"ea[{T}]": 1.0}
    for v in range(V):
        end_coeffs[f"ee[{v + 1},{T}]"] = 1.0
    prog.add_constraint("end_level", end_coeffs, ">=", interval.end_level)
    sol = _solve_or_raise(prog, "end_level")
    loads, gens = _extract_dispatch(sol, interval, 0)
    prices = _prices(sol, T, dt)
    ranges = _face_ranges(prog, sol, T, dt) if compute_ranges else None
    intra_charge = tuple(snap_zero(sol.primal[f"pCa[{t + 1}]"])
                         for t in range(T))
    intra_level = tuple(snap_zero(sol.primal[f"ea[{t + 1}]"])
                        for t in range(T))
    inter_discharge = tuple(
        tuple(snap_zero(sol.primal[f"pD[{v + 1},{t + 1}]"]) for t in range(T))
        for v in range(V))
    inter_level = tuple(
        tuple(snap_zero(sol.primal[f"ee[{v + 1},{t + 1}]"]) for t in range(T))
        for v in range(V))
    injection = tuple(
        snap_zero(intra_charge[t] - sum(row[t] for row in inter_discharge))
        for t in range(T))
    result = ClearingResult(
        mode="vlb", delta_t=dt, n_periods=T,
        load_dispatch=tuple(loads), gen_dispatch=tuple(gens),
        storage_injection=injection,
        prices=prices, price_ranges=ranges,
        intra_charge=intra_charge, intra_level=intra_level,
        inter_discharge=inter_discharge, inter_level=inter_level,
        ledger=ledger, objective=sol.objective, initial_content=ledger.total,
        final_content=snap_zero(intra_level[-1]
                             + sum(row[-1] for row in inter_level)),
        lp=prog, lp_solution=sol)
    return storage_ledger.remove_simultaneous(result)
