"""Value-ledger maintenance between market intervals.

The vlb clearing prices previously stored energy through buckets of a
:class:`~artifact.model.ValueLedger` and returns it as ``result.ledger``.
After each interval that ledger is updated from the result alone:
discharged energy shrinks its buckets, and — when the interval net charged
— the fresh charge is split into a break-even local component and a moved
component by a sort on price, the moved energy entering the ledger as new
buckets priced at the clearing prices of the periods in which it was
charged. An optional discount ages bucket prices between intervals.

All energies are MWh, powers MW, prices EUR/MWh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import LpNumericalError, SimultaneityError, ValuationError
from .model import (AUDIT_EPS, MODEL_EPS, ValueBucket, ValueLedger,
                    snap_zero)

if TYPE_CHECKING:
    from .clearing import ClearingResult


def remove_simultaneous(result: ClearingResult) -> ClearingResult:
    """Rewrite a vlb solution so no period both charges fresh energy and
    discharges bucket energy.

    While the earliest such period tau exists, discharge at tau is shifted
    to the earliest period kappa whose fresh component discharges (negative
    charge), in chunks of min(remaining discharge at tau, -charge at kappa),
    split across buckets in ascending (price, birth) order. Each shift
    preserves net injection per period, per-bucket discharged totals (hence
    the objective), and every storage constraint. Raises SimultaneityError
    when a simultaneous period remains but no negative-charge period is left
    to absorb it.
    """
    if result.mode != "vlb":
        raise ValueError(f"remove_simultaneous expects a vlb result, "
                         f"got {result.mode!r}")
    T = result.n_periods
    dt = result.delta_t
    charge = list(result.intra_charge)
    discharge = [list(row) for row in result.inter_discharge]
    V = len(discharge)
    if V == 0:
        return result

    def disch_total(t: int) -> float:
        return sum(row[t] for row in discharge)

    moves = 0
    max_moves = 4 * T * T * (V + 1) + 16
    changed = False
    for tau in range(T):
        while charge[tau] > MODEL_EPS and disch_total(tau) > MODEL_EPS:
            moves += 1
            if moves > max_moves:
                raise SimultaneityError("overlap removal did not terminate")
            kappa = next((t for t in range(T) if charge[t] < -MODEL_EPS),
                         None)
            if kappa is None:
                raise SimultaneityError(
                    f"period {tau + 1} charges and discharges simultaneously "
                    "and no discharging period can absorb the overlap")
            q = min(disch_total(tau), -charge[kappa])
            remaining = q
            for v in range(V):  # buckets are already sorted by (price, birth)
                step = min(discharge[v][tau], remaining)
                if step <= 0.0:
                    continue
                discharge[v][tau] -= step
                discharge[v][kappa] += step
                remaining -= step
            charge[tau] -= q
            charge[kappa] += q
            changed = True
    if not changed:
        return result

    ea = []
    level = 0.0
    for t in range(T):
        level += dt * charge[t]
        ea.append(level)
    ee = []
    for v, bucket in enumerate(result.ledger.buckets):
        row = []
        level = bucket.quantity
        for t in range(T):
            level -= dt * discharge[v][t]
            row.append(level)
        ee.append(row)

    return replace(
        result,
        intra_charge=tuple(snap_zero(x) for x in charge),
        intra_level=tuple(snap_zero(x) for x in ea),
        inter_discharge=tuple(tuple(snap_zero(x) for x in row)
                              for row in discharge),
        inter_level=tuple(tuple(snap_zero(x) for x in row) for row in ee),
        storage_injection=tuple(
            snap_zero(charge[t] - sum(row[t] for row in discharge))
            for t in range(T)))


def apply_net_discharge(result: ClearingResult) -> ValueLedger:
    """Shrink each bucket of the ledger ``result`` was cleared against by
    the energy the clearing discharged from it. Emptied buckets (within
    tolerance) drop out; prices and birth intervals persist."""
    if result.mode != "vlb":
        raise ValueError("apply_net_discharge expects a vlb result")
    remaining = []
    for bucket, used in zip(result.ledger.buckets,
                            result.total_inter_discharge):
        left = bucket.quantity - used
        if left < -AUDIT_EPS:
            raise LpNumericalError(
                f"bucket priced {bucket.price} discharged {used} MWh but "
                f"held only {bucket.quantity} MWh")
        if left > MODEL_EPS:
            remaining.append(ValueBucket(bucket.price, left,
                                         bucket.birth_interval))
    return ValueLedger.from_buckets(remaining)


@dataclass(frozen=True)
class ValuationSplit:
    """Charged power split per period: ``local`` nets out to zero energy at
    nonnegative break-even value within the interval, ``moved``
    (nonnegative) carries the interval's net charge forward."""

    local: tuple[float, ...]
    moved: tuple[float, ...]


def assign_charge_values(result: ClearingResult) -> ValuationSplit:
    """Split the intra charge into local and moved components.

    A period that does not charge keeps its charge local. The charging
    periods cover the interval's fresh discharge locally, dearest first
    (equal prices: the earlier period first), which leaves the local trade
    the least profit at the clearing prices. If that fill loses money, it
    is mixed with the cheapest-first fill so that the local trade breaks
    even. A profit within ``MODEL_EPS`` · max(1, |revenue of the fresh
    discharge|) of zero breaks even. Intended for results with positive
    net charge; raises ValuationError when the fresh discharge exceeds the
    charge or even the cheapest fill loses money.
    """
    if result.mode != "vlb":
        raise ValueError("assign_charge_values expects a vlb result")
    pca, lam = result.intra_charge, result.prices
    charging = [t for t, c in enumerate(pca) if c > MODEL_EPS]
    fixed = [0.0 if c > MODEL_EPS else c for c in pca]
    need, charged = -sum(fixed), sum(pca[t] for t in charging)
    if need > charged:
        raise ValuationError(
            f"fresh discharge of {result.delta_t * need:.6g} MWh exceeds "
            f"the {result.delta_t * charged:.6g} MWh charged")

    def fill(sign: float) -> tuple[list[float], float]:
        """The split covering ``need`` in ascending ``sign`` · price, and
        its local profit in EUR/h."""
        local, left = list(fixed), need
        for t in sorted(charging, key=lambda t: sign * lam[t]):
            local[t] = min(pca[t], max(left, 0.0))
            left -= local[t]
        return local, -sum(p * x for p, x in zip(lam, local))

    local, profit = fill(-1.0)
    tol = MODEL_EPS * max(1.0, abs(sum(p * x for p, x in zip(lam, fixed))))
    if profit < -tol:
        cheap, best = fill(1.0)
        if best < -tol:
            raise ValuationError(f"the local trade cannot break even: its "
                                 f"best profit is {best:.6g} EUR/h")
        share = max(best, 0.0) / (best - profit)
        local = [c + share * (d - c) for c, d in zip(cheap, local)]
    return ValuationSplit(local=tuple(local),
                          moved=tuple(c - x for c, x in zip(pca, local)))


def update_ledger(result: ClearingResult, interval_index: int) -> ValueLedger:
    """Carry the ledger ``result`` was cleared against across its interval:
    shrink discharged buckets, then, if the interval net charged, add the
    moved share of the charge as buckets born in ``interval_index`` priced
    at their charging periods' clearing prices (equal prices merge). The
    updated total must equal the cleared final content."""
    updated = apply_net_discharge(result)
    ea_final = result.intra_level[-1] if result.intra_level else 0.0
    if ea_final > MODEL_EPS:
        split = assign_charge_values(result)
        dt = result.delta_t
        born = [ValueBucket(price=result.prices[t],
                            quantity=dt * split.moved[t],
                            birth_interval=interval_index)
                for t in range(result.n_periods)
                if dt * split.moved[t] > MODEL_EPS]
        updated = ValueLedger.from_buckets(updated.buckets + tuple(born))
    if abs(updated.total - result.final_content) > AUDIT_EPS:
        raise LpNumericalError(
            f"ledger total {updated.total} drifted from cleared final "
            f"content {result.final_content}")
    return updated


def apply_discount(ledger: ValueLedger, rate: float,
                   current_interval: int) -> ValueLedger:
    """Age bucket prices: every bucket born before ``current_interval`` has
    its price multiplied by (1 - rate). Quantities and births persist."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"discount rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return ledger
    return ValueLedger.from_buckets(
        ValueBucket(price=b.price * (1.0 - rate)
                    if b.birth_interval < current_interval else b.price,
                    quantity=b.quantity, birth_interval=b.birth_interval)
        for b in ledger.buckets)
