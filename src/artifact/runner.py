"""Scenario orchestration: clear every market interval in sequence.

``run_scenario`` dispatches on the scenario mode, chains the storage state
between intervals (content for the split modes, the value ledger for vlb,
one whole-horizon LP for ideal) and returns per-interval results plus the
ledger trajectory.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from . import clearing
from .errors import EngineError, ScenarioError
from .model import Scenario, ValueLedger, validate_data
from .storage_ledger import apply_discount, update_ledger


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of clearing a scenario.

    ``results`` holds one ClearingResult per market interval. For vlb,
    each result holds the (already discounted) ledger its interval was
    cleared against, and ``final_ledger`` is the state after the last
    update; None otherwise. For ideal, ``full_result`` is the single
    whole-horizon solution the per-interval views were cut from.
    """

    scenario: Scenario
    results: tuple[clearing.ClearingResult, ...]
    final_ledger: ValueLedger | None = None
    full_result: clearing.ClearingResult | None = None

    @property
    def mode(self) -> str:
        return self.scenario.mode

    @property
    def ledgers_before(self) -> tuple[ValueLedger, ...]:
        """The ledger each vlb interval was cleared against; () otherwise."""
        return tuple(r.ledger for r in self.results if r.ledger is not None)


@contextmanager
def _interval(index: int):
    """Tag an EngineError raised inside the block with the 1-based index
    of the interval being cleared."""
    try:
        yield
    except EngineError as exc:
        exc.interval_index = index
        raise


def run_scenario(scenario: Scenario,
                 compute_ranges: bool = True) -> ScenarioRun:
    """Clear all intervals of a scenario in its mode.

    Scenario data that break an invariant (``model.validate_data``) raise
    ScenarioError with one diagnostic each; what a mode itself requires
    (penalty prices, a shared ``delta_t``) its clearing checks."""
    diagnostics = validate_data(scenario)
    if diagnostics:
        raise ScenarioError("invalid scenario", diagnostics)
    storage = scenario.storage
    intervals = scenario.intervals
    if scenario.mode == "ideal":
        full = clearing.clear_ideal(storage, intervals,
                                    compute_ranges=compute_ranges)
        return ScenarioRun(scenario=scenario,
                           results=tuple(clearing.slice_ideal(full, intervals)),
                           full_result=full)
    if scenario.mode in ("split_end_level", "split_penalty"):
        clear = (clearing.clear_split if scenario.mode == "split_end_level"
                 else clearing.clear_split_penalty)
        results = []
        content = storage.initial_energy
        for i, interval in enumerate(intervals):
            with _interval(i + 1):
                res = clear(interval, storage, content,
                            compute_ranges=compute_ranges,
                            name=f"{scenario.mode}[{i + 1}]")
            results.append(res)
            content = res.final_content
        return ScenarioRun(scenario=scenario, results=tuple(results))
    if scenario.mode == "vlb":
        results = []
        ledger = scenario.initial_ledger
        for i, interval in enumerate(intervals):
            index = i + 1
            with _interval(index):
                if index >= 2:
                    ledger = apply_discount(ledger, scenario.discount_rate,
                                            index - 1)
                res = clearing.clear_vlb(interval, storage, ledger,
                                         compute_ranges=compute_ranges,
                                         name=f"vlb[{index}]")
                ledger = update_ledger(res, index)
            results.append(res)
        return ScenarioRun(scenario=scenario, results=tuple(results),
                           final_ledger=ledger)
    raise ValueError(f"unknown mode {scenario.mode!r}")
