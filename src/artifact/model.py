"""Market data model and the scenario document format.

Units throughout the package: power in MW, energy in MWh, prices and
utilities in EUR/MWh, ``delta_t`` in hours.

A scenario document is a JSON object with fields::

    {
      "storage": {"capacity": 2.5, "initial_energy": 1.0},
      "mode": "vlb",
      "discount_rate": 0.0,
      "initial_ledger": [{"price": 5.0, "quantity": 1.0, "birth_interval": 1}],
      "intervals": [
        {"delta_t": 1.0, "n_periods": 1,
         "loads": [{"id": "l1", "utility": [12.0], "max": [3.0]}],
         "generators": [{"id": "g1", "cost": [2.0], "max": [2.0]}],
         "end_level": 0.0,
         "penalty_price": 2.0}
      ]
    }

``parse_scenario`` and ``serialize_scenario`` round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ScenarioError

MODES = ("ideal", "split_end_level", "split_penalty", "vlb")

#: magnitude below which an energy, power or price counts as zero
MODEL_EPS = 1e-9

#: slack of the audits and ledger checks (EUR, MWh): a surplus of at least
#: ``-AUDIT_EPS`` recovers cost, a content at most it counts as empty, and a
#: bucket or ledger total may miss its cleared value by it
AUDIT_EPS = 1e-6

#: longest echo of an offending value in a message, in characters
_ECHO = 60


def snap_zero(v: float) -> float:
    """``v`` as a float, or 0.0 when its magnitude is below ``MODEL_EPS``."""
    return 0.0 if abs(v) < MODEL_EPS else float(v)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization of one market interval."""

    n_periods: int
    delta_t: float


@dataclass(frozen=True)
class LoadBid:
    """Price-taking load: per-period marginal utility and quantity cap."""

    id: str
    utility: tuple[float, ...]
    max_quantity: tuple[float, ...]


@dataclass(frozen=True)
class GeneratorBid:
    """Price-taking generator: per-period marginal cost and capacity."""

    id: str
    cost: tuple[float, ...]
    max_quantity: tuple[float, ...]


@dataclass(frozen=True)
class StorageSpec:
    """The single storage system: energy capacity and the initial content
    the ideal/split modes start from. vlb starts from the scenario's
    ``initial_ledger`` instead, whose total ``validate_scenario`` holds
    to ``initial_energy``."""

    capacity: float
    initial_energy: float


@dataclass(frozen=True)
class IntervalSpec:
    """One market interval: bids, target end level, optional penalty price."""

    grid: TimeGrid
    loads: tuple[LoadBid, ...]
    generators: tuple[GeneratorBid, ...]
    end_level: float
    penalty_price: float | None = None


@dataclass(frozen=True)
class ValueBucket:
    """A slice of stored energy remembered at the price it was bought."""

    price: float
    quantity: float
    birth_interval: int


@dataclass(frozen=True)
class ValueLedger:
    """Stored-energy value ledger, kept sorted by (price, birth_interval)."""

    buckets: tuple[ValueBucket, ...] = ()

    @property
    def total(self) -> float:
        return sum(b.quantity for b in self.buckets)

    @staticmethod
    def from_buckets(buckets) -> "ValueLedger":
        """Build a ledger: merge buckets equal in price and birth interval,
        drop empties, sort by (price, birth_interval)."""
        merged: dict[tuple[float, int], float] = {}
        for b in buckets:
            key = (float(b.price), int(b.birth_interval))
            merged[key] = merged.get(key, 0.0) + float(b.quantity)
        out = [ValueBucket(price=p, quantity=q, birth_interval=bi)
               for (p, bi), q in merged.items() if q > MODEL_EPS]
        out.sort(key=lambda b: (b.price, b.birth_interval))
        return ValueLedger(buckets=tuple(out))


@dataclass(frozen=True)
class Scenario:
    """A full multi-interval run description."""

    storage: StorageSpec
    intervals: tuple[IntervalSpec, ...]
    mode: str
    discount_rate: float = 0.0
    initial_ledger: ValueLedger = field(default_factory=ValueLedger)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing required field")
    return obj[key]


def _json_int(digits: str) -> int | float:
    """A JSON integer; one longer than ``int()`` reads is far beyond any
    float and becomes ±inf, which validation rejects by its field path."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def _echo(value) -> str:
    """``value``'s repr for a message, cut after ``_ECHO`` characters."""
    text = repr(value)
    return (text if len(text) <= _ECHO
            else f"{text[:_ECHO]}... (cut from {len(text)} characters)")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {_echo(value)}")
    try:
        return float(value)
    except OverflowError:  # reads as ±inf, as 1e400 does, for validation
        return math.inf if value > 0 else -math.inf


def _integer(value, path: str) -> int:
    if isinstance(value, float) and math.isinf(value):
        raise ScenarioError(f"{path}: integer out of range")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {_echo(value)}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got {_echo(value)}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected an array, got {_echo(value)}")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object, got {_echo(value)}")
    return value


def _numbers(value, path: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(_array(value, path)))


def _bids(interval: dict, path: str, key: str, price_field: str, cls) -> tuple:
    """The ``key`` bids of one interval, each with ``id``, ``price_field``
    and ``max``, built as ``cls(id, prices, max_quantity)``."""
    out = []
    for j, item in enumerate(_array(_need(interval, key, path), f"{path}.{key}")):
        bp = f"{path}.{key}[{j}]"
        bo = _object(item, bp)
        out.append(cls(_string(_need(bo, "id", bp), f"{bp}.id"),
                       _numbers(_need(bo, price_field, bp), f"{bp}.{price_field}"),
                       _numbers(_need(bo, "max", bp), f"{bp}.max")))
    return tuple(out)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ScenarioError` with a position for syntax errors, or with
    one diagnostic per violated invariant for semantic errors.
    """
    try:
        raw = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioError("syntax error: arrays or objects nested too "
                            "deeply") from exc
    root = _object(raw, "$")
    sto = _object(_need(root, "storage", "$"), "storage")
    storage = StorageSpec(
        capacity=_number(_need(sto, "capacity", "storage"), "storage.capacity"),
        initial_energy=_number(_need(sto, "initial_energy", "storage"),
                               "storage.initial_energy"),
    )
    mode = _string(_need(root, "mode", "$"), "mode")
    discount = _number(root.get("discount_rate", 0.0), "discount_rate")
    buckets = []
    for i, b in enumerate(_array(root.get("initial_ledger", []), "initial_ledger")):
        bp = f"initial_ledger[{i}]"
        bo = _object(b, bp)
        buckets.append(ValueBucket(
            price=_number(_need(bo, "price", bp), f"{bp}.price"),
            quantity=_number(_need(bo, "quantity", bp), f"{bp}.quantity"),
            birth_interval=_integer(_need(bo, "birth_interval", bp),
                                    f"{bp}.birth_interval"),
        ))
    intervals = []
    for i, item in enumerate(_array(_need(root, "intervals", "$"), "intervals")):
        path = f"intervals[{i}]"
        obj = _object(item, path)
        grid = TimeGrid(
            n_periods=_integer(_need(obj, "n_periods", path), f"{path}.n_periods"),
            delta_t=_number(_need(obj, "delta_t", path), f"{path}.delta_t"),
        )
        penalty = obj.get("penalty_price")
        intervals.append(IntervalSpec(
            grid=grid,
            loads=_bids(obj, path, "loads", "utility", LoadBid),
            generators=_bids(obj, path, "generators", "cost", GeneratorBid),
            end_level=_number(_need(obj, "end_level", path), f"{path}.end_level"),
            penalty_price=None if penalty is None
            else _number(penalty, f"{path}.penalty_price"),
        ))
    scenario = Scenario(
        storage=storage,
        intervals=tuple(intervals),
        mode=mode,
        discount_rate=discount,
        initial_ledger=ValueLedger.from_buckets(buckets),
    )
    diagnostics = validate_scenario(scenario)
    if diagnostics:
        raise ScenarioError(
            f"invalid scenario ({len(diagnostics)} problem(s)): "
            + "; ".join(diagnostics),
            diagnostics=diagnostics,
        )
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario as a JSON document; inverse of ``parse_scenario``."""
    doc = {
        "storage": {
            "capacity": scenario.storage.capacity,
            "initial_energy": scenario.storage.initial_energy,
        },
        "mode": scenario.mode,
        "discount_rate": scenario.discount_rate,
        "initial_ledger": [
            {"price": b.price, "quantity": b.quantity,
             "birth_interval": b.birth_interval}
            for b in scenario.initial_ledger.buckets
        ],
        "intervals": [
            _interval_doc(iv) for iv in scenario.intervals
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _interval_doc(iv: IntervalSpec) -> dict:
    doc: dict = {
        "delta_t": iv.grid.delta_t,
        "n_periods": iv.grid.n_periods,
        "loads": [
            {"id": ld.id, "utility": list(ld.utility), "max": list(ld.max_quantity)}
            for ld in iv.loads
        ],
        "generators": [
            {"id": g.id, "cost": list(g.cost), "max": list(g.max_quantity)}
            for g in iv.generators
        ],
        "end_level": iv.end_level,
    }
    if iv.penalty_price is not None:
        doc["penalty_price"] = iv.penalty_price
    return doc


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_scenario(scenario: Scenario) -> list[str]:
    """Return one diagnostic per violated invariant (empty when valid)."""
    out: list[str] = []
    sto = scenario.storage
    if not math.isfinite(sto.capacity) or sto.capacity < 0:
        out.append("storage.capacity: must be a finite nonnegative energy")
    if not math.isfinite(sto.initial_energy) or sto.initial_energy < 0:
        out.append("storage.initial_energy: must be a finite nonnegative energy")
    elif (math.isfinite(sto.capacity)
          and sto.initial_energy > sto.capacity + MODEL_EPS):
        out.append("storage.initial_energy: exceeds storage.capacity")
    if scenario.mode not in MODES:
        out.append(f"mode: must be one of {', '.join(MODES)}")
    if not (math.isfinite(scenario.discount_rate)
            and 0.0 <= scenario.discount_rate < 1.0):
        out.append("discount_rate: must lie in [0, 1)")
    for i, b in enumerate(scenario.initial_ledger.buckets):
        path = f"initial_ledger[{i}]"
        if not math.isfinite(b.price) or b.price <= 0:
            out.append(f"{path}.price: must be a finite positive price")
        if not math.isfinite(b.quantity) or b.quantity <= 0:
            out.append(f"{path}.quantity: must be a finite positive energy")
    total = scenario.initial_ledger.total
    if math.isfinite(sto.capacity) and total > sto.capacity + MODEL_EPS:
        out.append("initial_ledger: total stored energy exceeds storage.capacity")
    if abs(total - sto.initial_energy) > MODEL_EPS:
        out.append(f"initial_ledger: total stored energy {float(total)!r} "
                   f"differs from storage.initial_energy "
                   f"{sto.initial_energy!r}")
    if not scenario.intervals:
        out.append("intervals: at least one interval is required")
    for i, iv in enumerate(scenario.intervals):
        path = f"intervals[{i}]"
        n = iv.grid.n_periods
        if n < 1:
            out.append(f"{path}.n_periods: must be at least 1")
        if not math.isfinite(iv.grid.delta_t) or iv.grid.delta_t <= 0:
            out.append(f"{path}.delta_t: must be a positive duration")
        for j, ld in enumerate(iv.loads):
            out.extend(_check_bid(f"{path}.loads[{j}]", ld.id, ld.utility,
                                  ld.max_quantity, "utility", n))
        for j, g in enumerate(iv.generators):
            out.extend(_check_bid(f"{path}.generators[{j}]", g.id, g.cost,
                                  g.max_quantity, "cost", n))
        interval_ids = [b.id for b in iv.loads] + [b.id for b in iv.generators]
        for pid in interval_ids:
            if pid == "storage":
                out.append(f"{path}: participant id 'storage' is reserved")
        dup = {pid for pid in interval_ids if interval_ids.count(pid) > 1}
        for pid in sorted(dup):
            out.append(f"{path}: duplicate participant id {_echo(pid)}")
        if not math.isfinite(iv.end_level) or iv.end_level < 0:
            out.append(f"{path}.end_level: must be a finite nonnegative energy")
        elif (math.isfinite(sto.capacity)
              and iv.end_level > sto.capacity + MODEL_EPS):
            out.append(f"{path}.end_level: exceeds storage.capacity")
        if (iv.penalty_price is not None
                and not math.isfinite(iv.penalty_price)):
            out.append(f"{path}.penalty_price: must be finite")
        if scenario.mode == "split_penalty" and iv.penalty_price is None:
            out.append(f"{path}.penalty_price: required in split_penalty mode")
    if scenario.mode == "ideal" and scenario.intervals:
        dts = {iv.grid.delta_t for iv in scenario.intervals}
        if len(dts) > 1:
            out.append("intervals: ideal mode requires a shared delta_t")
    return out


def _check_bid(path: str, pid: str, prices: tuple[float, ...],
               quantities: tuple[float, ...], price_field: str,
               n_periods: int) -> list[str]:
    out = []
    if not pid:
        out.append(f"{path}.id: must be nonempty")
    if len(prices) != n_periods:
        out.append(f"{path}.{price_field}: expected {n_periods} entries, "
                   f"got {len(prices)}")
    if len(quantities) != n_periods:
        out.append(f"{path}.max: expected {n_periods} entries, "
                   f"got {len(quantities)}")
    for k, v in enumerate(prices):
        if not math.isfinite(v):
            out.append(f"{path}.{price_field}[{k}]: must be finite")
    for k, v in enumerate(quantities):
        if not math.isfinite(v) or v < 0:
            out.append(f"{path}.max[{k}]: must be finite and nonnegative")
    return out
