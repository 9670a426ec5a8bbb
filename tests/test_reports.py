"""The reports of the bundled fixtures and of two seeded weeks, pinned byte
for byte.

``golden/reports/`` holds, for every fixture, the structured report of
``compare`` over all four modes under each price selection
(``<fixture>-<selection>.json``) and the table report under ``point``
(``<fixture>-point.txt``). It also holds the structured ``ideal`` report
(``<week>-ideal.json``) of each scenario document in ``golden/scenarios/``:
two 7 x 24 hourly weeks drawn by ``helpers.random_interval``, one LP of 337
rows each, whose basis LU is sparse. ``week-phase-1`` has a nonzero final
target and runs phase 1; ``week-feasible-start`` has a zero one and starts
feasible. The fixtures reach neither. A change to clearing, auditing or
rendering that moves any byte fails here and names the first line that
differs. Regenerate the files only when a report is meant to change:

    PYTHONPATH=src python tests/test_reports.py tests/golden/reports

The week documents are inputs: that command writes one only when it is
missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from artifact.cli import FIXTURE_NAMES, _load_scenario, compare, emit
from artifact.lp import FEASIBLE_START, PHASE_1
from artifact.metrics import PRICE_SELECTIONS
from artifact.model import MODES, Scenario, StorageSpec, serialize_scenario
from helpers import random_interval

GOLDEN = Path(__file__).parent / "golden" / "reports"
SCENARIOS = Path(__file__).parent / "golden" / "scenarios"
# week document -> (seed, every interval's end level, its start path)
WEEKS = {"week-phase-1": (1, 1.0, PHASE_1),
         "week-feasible-start": (3, 0.0, FEASIBLE_START)}


def week_scenario(seed: int, end_level: float) -> Scenario:
    """Seven hourly 24-period intervals cleared as one ``ideal`` horizon."""
    rng = np.random.default_rng(seed)
    return Scenario(StorageSpec(2.0, 0.0), tuple(
        random_interval(rng, 2.0, n_periods=24, delta_t=1.0,
                        end_level=end_level) for _ in range(7)), "ideal")


def reports() -> dict[str, str]:
    """File name -> report text, for every pinned report."""
    out = {}
    for name in FIXTURE_NAMES:
        scenario = _load_scenario(name)
        for selection in PRICE_SELECTIONS:
            report = compare(scenario, MODES, price_selection=selection)
            out[f"{name}-{selection}.json"] = emit(report, "structured")
            if selection == "point":
                out[f"{name}-point.txt"] = emit(report, "table")
    for name in WEEKS:
        # as ``artifact --scenario FILE --mode ideal --format structured``
        report = compare(_load_scenario(str(SCENARIOS / f"{name}.json")),
                         ["ideal"])
        out[f"{name}-ideal.json"] = emit(report, "structured")
    return out


def _first_difference(want: str, got: str) -> str | None:
    w, g = want.splitlines(), got.splitlines()
    for k, (a, b) in enumerate(zip(w, g), start=1):
        if a != b:
            return f"line {k}: {a!r}, now {b!r}"
    if len(w) != len(g):
        return f"{len(w)} lines, now {len(g)}"
    if want != got:
        return "same lines, different line ends"
    return None


@pytest.fixture(scope="module")
def current() -> dict[str, str]:
    return reports()


def test_every_golden_report_is_produced(current):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(current)


@pytest.mark.parametrize("name", FIXTURE_NAMES + tuple(WEEKS))
def test_reports_match_the_golden_files(current, name):
    for file, text in sorted(current.items()):
        if file.startswith(f"{name}-"):
            diff = _first_difference((GOLDEN / file).read_text(), text)
            assert diff is None, f"{file} {diff}"


@pytest.mark.parametrize("name", tuple(WEEKS))
def test_week_documents_take_their_start_paths(name):
    scenario = _load_scenario(str(SCENARIOS / f"{name}.json"))
    run = compare(scenario, ["ideal"], compute_ranges=False).modes[0].run
    solution = run.full_result.lp_solution
    assert run.full_result.lp.n_constraints == 337
    assert solution.stats.start == WEEKS[name][2]
    assert solution.stats.factorization == "sparse"


if __name__ == "__main__":
    for name, (seed, end_level, _start) in WEEKS.items():
        document = SCENARIOS / f"{name}.json"
        if not document.exists():
            SCENARIOS.mkdir(parents=True, exist_ok=True)
            document.write_text(serialize_scenario(
                week_scenario(seed, end_level)))
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for file, text in reports().items():
        (target / file).write_text(text)
