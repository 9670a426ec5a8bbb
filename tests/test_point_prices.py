"""Every published point price of the bundled fixtures, pinned exactly.

A point price is one optimal dual, and which one the simplex reports
depends on its pivot path. ``golden/point_prices.json`` holds, as ``repr``,
every ``prices`` value for every fixture, mode, interval and period,
cleared with ranges on. A change to the solver that moves any of them fails
here by name. Regenerate the file only when a price is meant to move:

    PYTHONPATH=src python tests/test_point_prices.py > tests/golden/point_prices.json
"""

from __future__ import annotations

import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from artifact.cli import FIXTURE_NAMES
from artifact.errors import ScenarioError
from artifact.model import MODES, parse_scenario
from artifact.runner import run_scenario

GOLDEN = Path(__file__).parent / "golden" / "point_prices.json"


def point_prices() -> dict[str, dict[str, list[list[str]]]]:
    """fixture -> mode -> per interval, per period: ``repr`` of the price.
    A mode the fixture cannot run (split_penalty without penalties) is
    absent."""
    out: dict[str, dict[str, list[list[str]]]] = {}
    for name in FIXTURE_NAMES:
        text = (resources.files("artifact") / "fixtures"
                / f"{name}.json").read_text()
        out[name] = {}
        for mode in MODES:
            scn = dataclasses.replace(parse_scenario(text), mode=mode)
            try:
                run = run_scenario(scn, compute_ranges=True)
            except ScenarioError:
                continue
            out[name][mode] = [[repr(p) for p in res.prices]
                               for res in run.results]
    return out


def _first_difference(want: dict, got: dict) -> str | None:
    for name in sorted(set(want) | set(got)):
        modes_w, modes_g = want.get(name, {}), got.get(name, {})
        for mode in sorted(set(modes_w) | set(modes_g)):
            if mode not in modes_w or mode not in modes_g:
                return f"{name}/{mode}: cleared on one side only"
            iw, ig = modes_w[mode], modes_g[mode]
            if len(iw) != len(ig):
                return f"{name}/{mode}: {len(iw)} intervals, now {len(ig)}"
            for k, (pw, pg) in enumerate(zip(iw, ig)):
                if len(pw) != len(pg):
                    return (f"{name}/{mode}/interval {k + 1}: {len(pw)} "
                            f"periods, now {len(pg)}")
                for t, (a, b) in enumerate(zip(pw, pg)):
                    if a != b:
                        return (f"{name}/{mode}/interval {k + 1}/period "
                                f"{t + 1}: {a}, now {b}")
    return None


def test_point_prices_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    diff = _first_difference(want, point_prices())
    assert diff is None, diff


if __name__ == "__main__":
    json.dump(point_prices(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
