"""Exception types shared across the package."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


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
    ``interval_index`` is the 1-based index of the failing interval, set by
    ``runner.run_scenario`` for the sequential modes; it stays None for
    ``ideal``, whose one LP spans every interval.
    """

    def __init__(self, message: str, stage: str = "", interval_index: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.interval_index = interval_index


class SimultaneityError(EngineError):
    """Charge/discharge disentanglement was handed a solution outside its
    contract (no absorbing period exists while simultaneity remains)."""


class ValuationError(EngineError):
    """The charge-valuation subproblem could not price the stored energy."""
