"""The reports of the bundled fixtures, pinned byte for byte.

``golden/reports/`` holds, for every fixture, the structured report of
``compare`` over all four modes under each price selection
(``<fixture>-<selection>.json``) and the table report under ``point``
(``<fixture>-point.txt``). A change to clearing, auditing or rendering that
moves any byte fails here and names the first line that differs.
Regenerate the files only when a report is meant to change:

    PYTHONPATH=src python tests/test_reports.py tests/golden/reports
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from artifact.cli import FIXTURE_NAMES, _load_scenario, compare, emit
from artifact.metrics import PRICE_SELECTIONS
from artifact.model import MODES

GOLDEN = Path(__file__).parent / "golden" / "reports"


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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reports_match_the_golden_files(current, name):
    for file, text in sorted(current.items()):
        if file.startswith(f"{name}-"):
            diff = _first_difference((GOLDEN / file).read_text(), text)
            assert diff is None, f"{file} {diff}"


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for file, text in reports().items():
        (target / file).write_text(text)
