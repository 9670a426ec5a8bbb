"""Exception types shared across the package."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package.

    ``interval_index`` is the 1-based index of the market interval that was
    being cleared, or whose ledger was being updated, when the error was
    raised. ``runner.run_scenario`` sets it for the sequential modes; it
    stays None for ``ideal``, whose one LP spans every interval, and for an
    error raised outside an interval.
    """

    interval_index: int | None = None


class ScenarioError(EngineError):
    """A scenario document failed to parse or validate.

    ``diagnostics`` holds one human-readable message per violated invariant,
    each prefixed with the field path it refers to. With diagnostics,
    ``headline`` is the message with their count, and the error reads as
    the headline followed by every diagnostic.
    """

    def __init__(self, message: str, diagnostics: tuple[str, ...] | list[str] = ()):
        self.diagnostics = tuple(diagnostics)
        self.headline = message
        if self.diagnostics:
            self.headline = f"{message} ({len(self.diagnostics)} problem(s))"
            message = f"{self.headline}: " + "; ".join(self.diagnostics)
        super().__init__(message)


class LpNumericalError(EngineError):
    """The solver stalled, hit a singular basis, or failed its own
    post-solve optimality certificates."""


class InfeasibleError(EngineError):
    """A clearing problem admits no feasible dispatch.

    ``stage`` names the binding requirement (for example ``"end_level"``).
    """

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class SimultaneityError(EngineError):
    """Charge/discharge disentanglement was handed a solution outside its
    contract (no absorbing period exists while simultaneity remains)."""


class ValuationError(EngineError):
    """The charge-valuation subproblem could not price the stored energy."""
