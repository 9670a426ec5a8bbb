"""Surplus accounting, storage cycles, and cost-recovery audits.

All money amounts are in EUR. A participant's surplus in one interval is the
usual uniform-price settlement: loads earn ``delta_t * sum((U - price) * d)``,
generators earn ``delta_t * sum((price - C) * p)``, and the storage system is
paid for net withdrawals, ``-delta_t * sum(price * injection)`` (it pays while
charging, is paid while discharging).

Because published prices may sit anywhere on a closed interval of equally
valid values, every settlement here can be evaluated at the published point or
at either end of the published range (``price_selection``). Cost recovery for
the storage system is judged over *cycles*: maximal stretches of consecutive
intervals that start and end with the store empty. Stretches that never
return to empty cannot be judged without pricing the leftover energy, so they
are reported as INDETERMINATE rather than passed or failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .clearing import ClearingResult, dispatch_welfare
from .errors import ScenarioError
from .model import AUDIT_EPS, IntervalSpec

PRICE_SELECTIONS = ("point", "range_min", "range_max")

VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_INDETERMINATE = "INDETERMINATE"

#: participant id used for the storage system in surplus lines (reserved in
#: scenario documents, so it can never collide with a bid)
STORAGE_ID = "storage"


@dataclass(frozen=True)
class SurplusLine:
    """Settlement outcome of one participant over one interval."""

    participant: str
    kind: str  # "load" | "generator" | "storage"
    interval_index: int  # 1-based
    surplus: float


@dataclass(frozen=True)
class CycleReport:
    """Cost-recovery verdict for one storage cycle (or open stretch).

    ``closed`` is True when the store is empty at both boundaries; only then
    is the verdict PASS or FAIL. An open stretch gets INDETERMINATE: its
    surplus ignores the value of whatever remains in the store.
    """

    start: int  # 1-based, inclusive
    end: int  # 1-based, inclusive
    closed: bool
    storage_surplus: float
    verdict: str
    social_welfare: float


def _check_alignment(results, bids) -> None:
    if len(results) != len(bids):
        raise ValueError(
            f"got {len(results)} results for {len(bids)} intervals")


def _selected_prices(result: ClearingResult, price_selection: str,
                     index: int) -> tuple[float, ...]:
    """The prices of interval ``index`` (1-based) under ``price_selection``;
    an infinite range endpoint settles nothing and raises ScenarioError."""
    if price_selection not in PRICE_SELECTIONS:
        raise ValueError(
            f"price_selection must be one of {PRICE_SELECTIONS}, "
            f"got {price_selection!r}")
    if price_selection == "point":
        return result.prices
    if result.price_ranges is None:
        raise ValueError(
            "price ranges were not computed for this result; "
            "clear with compute_ranges=True to audit range endpoints")
    side = 0 if price_selection == "range_min" else 1
    prices = tuple(r[side] for r in result.price_ranges)
    for t, price in enumerate(prices, start=1):
        if math.isinf(price):
            raise ScenarioError(
                f"interval {index}, period {t}: the price range is unbounded "
                f"({price}), so {price_selection} cannot settle it")
    return prices


def participant_surpluses(results: list[ClearingResult],
                          bids: list[IntervalSpec],
                          price_selection: str = "point") -> list[SurplusLine]:
    """Per-interval settlement for every load, generator, and the storage.

    Lines are ordered by interval, then loads, generators, storage — a
    deterministic layout reports can rely on.
    """
    _check_alignment(results, bids)
    lines: list[SurplusLine] = []
    for i, (result, interval) in enumerate(zip(results, bids), start=1):
        dt = result.delta_t
        prices = _selected_prices(result, price_selection, i)
        for ld in interval.loads:
            d = result.load(ld.id)
            surplus = dt * sum((ld.utility[t] - prices[t]) * d[t]
                               for t in range(result.n_periods))
            lines.append(SurplusLine(ld.id, "load", i, surplus))
        for g in interval.generators:
            p = result.gen(g.id)
            surplus = dt * sum((prices[t] - g.cost[t]) * p[t]
                               for t in range(result.n_periods))
            lines.append(SurplusLine(g.id, "generator", i, surplus))
        lines.append(SurplusLine(STORAGE_ID, "storage", i,
                                 _storage_surplus(result, prices)))
    return lines


def _storage_surplus(result: ClearingResult, prices) -> float:
    """The storage's settlement over one interval at ``prices``."""
    return -result.delta_t * sum(prices[t] * result.storage_injection[t]
                                 for t in range(result.n_periods))


def _pieces(results: list[ClearingResult]) -> list[tuple[int, int, bool]]:
    """The horizon cut at every boundary where the store holds at most
    :data:`AUDIT_EPS`, as 1-based inclusive ``(start, end, closed)`` spans
    in order; ``closed`` when the store is empty at both ends. Adjacent
    open pieces (one empty boundary, none at either end) form one stretch."""
    if not results:
        return []
    contents = [results[0].initial_content] + [r.final_content for r in results]
    empty = [c <= AUDIT_EPS for c in contents]
    cuts = [0] + [i for i in range(1, len(results)) if empty[i]] + [len(results)]
    pieces: list[tuple[int, int, bool]] = []
    for a, b in zip(cuts, cuts[1:]):
        closed = empty[a] and empty[b]
        if not closed and pieces and not pieces[-1][2]:
            pieces[-1] = (pieces[-1][0], b, False)
        else:
            pieces.append((a + 1, b, closed))
    return pieces


def detect_cycles(results: list[ClearingResult]) -> list[tuple[int, int]]:
    """Maximal non-overlapping closed cycles, as 1-based inclusive pairs.

    A cycle runs between two consecutive boundaries where the store holds at
    most :data:`AUDIT_EPS`. Intervals before the first or after the last
    empty boundary belong to no cycle.
    """
    return [(start, end) for start, end, closed in _pieces(results) if closed]


def social_welfare(results: list[ClearingResult], bids: list[IntervalSpec],
                   cycle: tuple[int, int]) -> float:
    """Dispatch welfare (utilities minus costs) over a 1-based index span.

    Penalty and virtual-bid terms in the LP objectives are excluded: this is
    the physical-dispatch welfare the modes are compared on.
    """
    _check_alignment(results, bids)
    start, end = cycle
    if not (1 <= start <= end <= len(results)):
        raise ValueError(f"cycle {cycle} out of range for {len(results)} intervals")
    return sum(dispatch_welfare(results[i - 1], bids[i - 1])
               for i in range(start, end + 1))


def cost_recovery_audit(results: list[ClearingResult],
                        bids: list[IntervalSpec],
                        price_selection: str = "point") -> list[CycleReport]:
    """Judge storage cost recovery cycle by cycle.

    Closed cycles get PASS when the storage surplus under the chosen price
    selection is at least ``-AUDIT_EPS``, else FAIL. Intervals outside every
    closed cycle are grouped into maximal consecutive stretches and reported
    INDETERMINATE. ``range_min`` is the adversarial audit: the lowest valid
    uniform price each period.
    """
    _check_alignment(results, bids)
    storage = [_storage_surplus(r, _selected_prices(r, price_selection, i))
               for i, r in enumerate(results, start=1)]
    reports = []
    for start, end, closed in _pieces(results):
        surplus = sum(storage[start - 1:end])
        if not closed:
            verdict = VERDICT_INDETERMINATE
        elif surplus >= -AUDIT_EPS:
            verdict = VERDICT_PASS
        else:
            verdict = VERDICT_FAIL
        reports.append(CycleReport(
            start=start, end=end, closed=closed, storage_surplus=surplus,
            verdict=verdict,
            social_welfare=social_welfare(results, bids, (start, end))))
    return reports
