"""Market clearing formulations.

Four clearings over the same bid structure: ``ideal`` (one LP across the
whole horizon), ``split_end_level`` (per interval, storage steered to a
target end level), ``split_penalty`` (per interval, the target replaced by a
price on leftover energy), and ``vlb`` (per interval, previously stored
energy offered back through virtual load bids priced from a value ledger).
The first three are one storage-level chain built by ``_clear_chain``: they
differ only in the periods the chain spans and in how its last level is
closed (an ``end_level`` row, or a price on the level).

LP names: a builder forms the names of each block of columns or rows once,
as a list (``_series``, ``_grid``; ``_add_bids`` for the bids), and the
same list adds the columns, writes the coefficients and reads the solution
(``_read``, a snapped value per name). One writer, ``_add_levels``, writes
every storage-level recursion: the chain's ``level`` rows, the ``intra``
rows of vlb's fresh charge and each bucket's ``inter`` rows.

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


def _series(stem: str, periods: range) -> list[str]:
    """The names of one block of columns or rows: ``stem[t]`` per period."""
    return [f"{stem}[{t}]" for t in periods]


def _grid(stem: str, keys, periods: range) -> list[list[str]]:
    """The names of one keyed block: per key, ``stem[key,t]`` per period."""
    return [[f"{stem}[{key},{t}]" for t in periods] for key in keys]


def _read(sol: lpmod.LpSolution, names: list[str]) -> tuple[float, ...]:
    """The snapped optimal values of the columns ``names``."""
    return tuple(snap_zero(sol.primal[name]) for name in names)


def _add_bids(prog: lpmod.LinearProgram, intervals: tuple[IntervalSpec, ...],
              dt: float) -> list[tuple[IntervalSpec, int, list[str], list[str]]]:
    """Add the bid columns of ``intervals`` in turn, each interval's loads
    and then its generators, each bid's periods in order. Returns, per
    period of the horizon, its interval, its index there and the names of
    its load and of its generator columns."""
    periods = []
    for iv in intervals:
        horizon = range(len(periods) + 1, len(periods) + iv.grid.n_periods + 1)
        loads = _grid("d", [ld.id for ld in iv.loads], horizon)
        gens = _grid("p", [g.id for g in iv.generators], horizon)
        for ld, names in zip(iv.loads, loads):
            for t, name in enumerate(names):
                prog.add_variable(name, 0.0, ld.max_quantity[t],
                                  objective=dt * ld.utility[t])
        for g, names in zip(iv.generators, gens):
            for t, name in enumerate(names):
                prog.add_variable(name, 0.0, g.max_quantity[t],
                                  objective=-dt * g.cost[t])
        periods += [(iv, t, [names[t] for names in loads],
                     [names[t] for names in gens])
                    for t in range(iv.grid.n_periods)]
    return periods


def _add_balance(prog: lpmod.LinearProgram, periods: list,
                 storage_terms: list[dict[str, float]]) -> list[str]:
    """Add one balance row per period of ``_add_bids``: its loads, less its
    generators, plus the period's ``storage_terms``. Returns their labels."""
    rows = _series("balance", range(1, len(periods) + 1))
    for row, (_iv, _t, loads, gens), terms in zip(rows, periods,
                                                  storage_terms):
        coeffs = dict.fromkeys(loads, 1.0)
        coeffs.update(dict.fromkeys(gens, -1.0))
        coeffs.update(terms)
        prog.add_constraint(row, coeffs, "==", 0.0)
    return rows


def _add_levels(prog: lpmod.LinearProgram, rows: list[str], levels: list[str],
                flows: list[str], coef: float, start: float) -> None:
    """Add the rows ``rows[t]`` of one storage-level recursion:
    ``levels[t] + coef * flows[t] - levels[t - 1] == 0``, with ``start`` in
    place of the level before the first period."""
    for t, (row, level, flow) in enumerate(zip(rows, levels, flows)):
        coeffs = {level: 1.0, flow: coef}
        if t:
            coeffs[levels[t - 1]] = -1.0
        prog.add_constraint(row, coeffs, "==", 0.0 if t else start)


def _dispatch(sol: lpmod.LpSolution, periods: list
              ) -> tuple[tuple[dict[str, float], ...], ...]:
    """Per period of ``_add_bids``, each load's and each generator's
    snapped dispatch, by participant id."""
    return (tuple(dict(zip((ld.id for ld in iv.loads), _read(sol, loads)))
                  for iv, _t, loads, _gens in periods),
            tuple(dict(zip((g.id for g in iv.generators), _read(sol, gens)))
                  for iv, _t, _loads, gens in periods))


def _prices(sol: lpmod.LpSolution, balance: list[str],
            dt: float) -> tuple[float, ...]:
    return tuple(snap_zero(sol.duals[row] / dt) for row in balance)


def _face_ranges(prog: lpmod.LinearProgram, sol: lpmod.LpSolution,
                 balance: list[str], dt: float) -> tuple[tuple[float, float], ...]:
    ranges = (lpmod.dual_range(prog, sol, row) for row in balance)
    return tuple((snap_zero(lo / dt), snap_zero(hi / dt)) for lo, hi in ranges)


# the side a generator's stationarity row puts on the price: its column
# enters the balance row with -1
_MIRROR = {"<=": ">=", ">=": "<=", "==": "==", None: None}


def _chain_ranges(periods: list, levels: list[str], storage: StorageSpec,
                  penalty: float | None, sol: lpmod.LpSolution,
                  prices: tuple[float, ...],
                  name: str) -> tuple[tuple[float, float], ...]:
    """Every period's range of supporting prices over the optimal dual face
    of a ``_clear_chain`` LP, with bids ``periods`` (``_add_bids``) and
    level columns ``levels``, without solving the face.

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

    for k, (iv, t, loads, gens) in enumerate(periods):
        for ld, var in zip(iv.loads, loads):
            bound(k, side(var, ld.max_quantity[t]), ld.utility[t])
        for g, var in zip(iv.generators, gens):
            bound(k, _MIRROR[side(var, g.max_quantity[t])], g.cost[t])
    # links[t] is the side of pi_t against pi_{t + 1}
    links = [side(level, storage.capacity) for level in levels]
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
    prog = lpmod.LinearProgram(name=name, sense="max")
    periods = _add_bids(prog, intervals, dt)
    total = len(periods)
    horizon = range(1, total + 1)
    flows, levels = _series("pC", horizon), _series("e", horizon)
    for flow in flows:
        prog.add_variable(flow, -math.inf, math.inf)
    for t, var in enumerate(levels):
        last = penalty is not None and t == total - 1
        prog.add_variable(var, 0.0, storage.capacity,
                          objective=-penalty if last else 0.0)
    balance = _add_balance(prog, periods, [{flow: 1.0} for flow in flows])
    _add_levels(prog, _series("level", horizon), levels, flows, -dt, e_init)
    if penalty is None:
        prog.add_constraint("end_level", {levels[-1]: 1.0}, "==",
                            intervals[-1].end_level)
    sol = _solve_or_raise(prog,
                          "end_level" if penalty is None else "storage_level")
    loads, gens = _dispatch(sol, periods)
    prices = _prices(sol, balance, dt)
    ranges = (_chain_ranges(periods, levels, storage, penalty, sol, prices,
                            name) if compute_ranges else None)
    level = _read(sol, levels)
    return ClearingResult(
        mode=mode, delta_t=dt, n_periods=total,
        load_dispatch=loads, gen_dispatch=gens,
        storage_injection=_read(sol, flows),
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
    prog = lpmod.LinearProgram(name=name, sense="max")
    periods = _add_bids(prog, (interval,), dt)
    horizon, keys = range(1, T + 1), range(1, len(buckets) + 1)
    charge, level = _series("pCa", horizon), _series("ea", horizon)
    discharge, stored = _grid("pD", keys, horizon), _grid("ee", keys, horizon)
    for flow in charge:
        prog.add_variable(flow, -math.inf, math.inf)
    for t, var in enumerate(level):
        # intra level may dip negative mid-interval while buckets hold
        # energy; the final level must be nonnegative on its own
        prog.add_variable(var, 0.0 if t == T - 1 else -math.inf, math.inf)
    for bucket, flows in zip(buckets, discharge):
        for flow in flows:
            prog.add_variable(flow, 0.0, math.inf, objective=-dt * bucket.price)
    for levels in stored:
        for var in levels:
            prog.add_variable(var, 0.0, math.inf)
    balance = _add_balance(prog, periods, [
        {charge[t]: 1.0, **{flows[t]: -1.0 for flows in discharge}}
        for t in range(T)])
    _add_levels(prog, _series("intra", horizon), level, charge, -dt, 0.0)
    for bucket, rows, levels, flows in zip(
            buckets, _grid("inter", keys, horizon), stored, discharge):
        _add_levels(prog, rows, levels, flows, dt, bucket.quantity)
    # the store's total content per period
    content = [{level[t]: 1.0, **{levels[t]: 1.0 for levels in stored}}
               for t in range(T)]
    for lo, hi, coeffs in zip(_series("capacity_lo", horizon),
                              _series("capacity_hi", horizon), content):
        prog.add_constraint(lo, coeffs, ">=", 0.0)
        prog.add_constraint(hi, coeffs, "<=", storage.capacity)
    prog.add_constraint("end_level", content[-1], ">=", interval.end_level)
    sol = _solve_or_raise(prog, "end_level")
    loads, gens = _dispatch(sol, periods)
    prices = _prices(sol, balance, dt)
    ranges = _face_ranges(prog, sol, balance, dt) if compute_ranges else None
    intra_charge = _read(sol, charge)
    intra_level = _read(sol, level)
    inter_discharge = tuple(_read(sol, flows) for flows in discharge)
    inter_level = tuple(_read(sol, levels) for levels in stored)
    injection = tuple(
        snap_zero(intra_charge[t] - sum(row[t] for row in inter_discharge))
        for t in range(T))
    result = ClearingResult(
        mode="vlb", delta_t=dt, n_periods=T,
        load_dispatch=loads, gen_dispatch=gens,
        storage_injection=injection,
        prices=prices, price_ranges=ranges,
        intra_charge=intra_charge, intra_level=intra_level,
        inter_discharge=inter_discharge, inter_level=inter_level,
        ledger=ledger, objective=sol.objective, initial_content=ledger.total,
        final_content=snap_zero(intra_level[-1]
                             + sum(row[-1] for row in inter_level)),
        lp=prog, lp_solution=sol)
    return storage_ledger.remove_simultaneous(result)
