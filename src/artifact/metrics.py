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

from dataclasses import dataclass

from .clearing import ClearingResult, dispatch_welfare
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


def _selected_prices(result: ClearingResult,
                     price_selection: str) -> tuple[float, ...]:
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
    return tuple(r[side] for r in result.price_ranges)


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
        prices = _selected_prices(result, price_selection)
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
        storage_surplus = -dt * sum(
            prices[t] * result.storage_injection[t]
            for t in range(result.n_periods))
        lines.append(SurplusLine(STORAGE_ID, "storage", i, storage_surplus))
    return lines


def _boundaries(results: list[ClearingResult]) -> list[float]:
    """Total stored energy at each interval boundary (length N+1)."""
    if not results:
        return [0.0]
    out = [results[0].initial_content]
    out.extend(r.final_content for r in results)
    return out


def detect_cycles(results: list[ClearingResult]) -> list[tuple[int, int]]:
    """Maximal non-overlapping closed cycles, as 1-based inclusive pairs.

    A cycle runs between two boundaries where the store holds at most
    :data:`AUDIT_EPS`; each empty boundary greedily closes the cycle opened at
    the previous empty boundary. Intervals before the first or after the last
    empty boundary belong to no cycle.
    """
    bounds = _boundaries(results)
    cycles: list[tuple[int, int]] = []
    open_at: int | None = 0 if bounds[0] <= AUDIT_EPS else None
    for i in range(1, len(bounds)):
        if bounds[i] <= AUDIT_EPS:
            if open_at is not None and i > open_at:
                cycles.append((open_at + 1, i))
            open_at = i
    return cycles


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
    lines = participant_surpluses(results, bids, price_selection)
    storage_by_interval = {ln.interval_index: ln.surplus
                           for ln in lines if ln.kind == "storage"}
    cycles = detect_cycles(results)
    covered: set[int] = set()
    for start, end in cycles:
        covered.update(range(start, end + 1))
    spans: list[tuple[int, int, bool]] = [(s, e, True) for s, e in cycles]
    run_start: int | None = None
    for i in range(1, len(results) + 2):
        if i <= len(results) and i not in covered:
            if run_start is None:
                run_start = i
        elif run_start is not None:
            spans.append((run_start, i - 1, False))
            run_start = None
    reports = []
    for start, end, closed in sorted(spans):
        surplus = sum(storage_by_interval[i] for i in range(start, end + 1))
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
