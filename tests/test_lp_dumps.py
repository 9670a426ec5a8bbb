"""The clearing LPs of the bundled fixtures, pinned byte for byte.

``golden/lps/<fixture>/`` holds the ``write_lp_text`` of every clearing LP
of ``compare`` over all four modes, as ``artifact --dump-lp`` writes them
(``cli._dump_lps``: ``<mode>-horizon.lp`` for the whole-horizon ``ideal``
LP, ``<mode>-miNN.lp`` per market interval). A change to how a clearing
builds its LP that moves any column, row, coefficient or bound fails here
and names the first line that differs. Regenerate the files only when an
LP is meant to change:

    PYTHONPATH=src python tests/test_lp_dumps.py tests/golden/lps
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from artifact.cli import FIXTURE_NAMES, _dump_lps, _load_scenario, compare
from artifact.model import MODES

from test_reports import _first_difference

GOLDEN = Path(__file__).parent / "golden" / "lps"


def dump(target: Path) -> None:
    """Write every fixture's clearing LPs under ``target/<fixture>/``."""
    for name in FIXTURE_NAMES:
        _dump_lps(compare(_load_scenario(name), MODES), str(target / name))


def lp_texts() -> dict[str, str]:
    """``<fixture>/<file>`` -> LP text, for every pinned LP."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dump(root)
        return {p.relative_to(root).as_posix(): p.read_text()
                for p in sorted(root.rglob("*.lp"))}


@pytest.fixture(scope="module")
def current() -> dict[str, str]:
    return lp_texts()


def test_every_golden_lp_is_produced(current):
    pinned = sorted(p.relative_to(GOLDEN).as_posix()
                    for p in GOLDEN.rglob("*") if p.is_file())
    assert pinned == sorted(current)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_lps_match_the_golden_files(current, name):
    files = [f for f in sorted(current) if f.startswith(f"{name}/")]
    assert files
    for file in files:
        diff = _first_difference((GOLDEN / file).read_text(), current[file])
        assert diff is None, f"{file} {diff}"


if __name__ == "__main__":
    dump(Path(sys.argv[1]))
