"""The tolerance table of ``docs/decisions.md`` matches the code: each
tabled tolerance exists in its module with the tabled value, and each
tolerance constant of ``lp`` and ``model`` is tabled."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

DECISIONS = Path(__file__).resolve().parents[1] / "docs" / "decisions.md"
TOLERANCE_NAME = re.compile(r"EPS|TOL|TIE|SINGULAR")


def tolerance_table() -> dict[str, tuple[float, str]]:
    """``{name: (value, module)}`` from the table under the tolerances
    heading; the module is the first one its row names."""
    text = DECISIONS.read_text(encoding="utf-8")
    section = text.split("\n## Tolerances", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        cells = [c.strip() for c in row.strip("|").split("|")]
        name = cells[0].strip("`")
        module = re.match(r"`(\w+)`", cells[2]).group(1)
        table[name] = (float(cells[1]), module)
    return table


TABLE = tolerance_table()


@pytest.mark.parametrize("name", sorted(TABLE))
def test_tabled_tolerance_has_its_value(name):
    value, module = TABLE[name]
    assert getattr(importlib.import_module(f"artifact.{module}"),
                   name) == value


@pytest.mark.parametrize("module", ["lp", "model"])
def test_every_tolerance_is_tabled(module):
    mod = importlib.import_module(f"artifact.{module}")
    constants = {name for name, v in vars(mod).items()
                 if isinstance(v, float) and TOLERANCE_NAME.search(name)}
    assert constants, module
    assert {(name, module) for name in constants} <= {
        (name, mod_) for name, (_, mod_) in TABLE.items()}
