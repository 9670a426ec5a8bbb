"""The README stays true to the code: its library snippet runs, its flag
table lists exactly the command-line options, and its example scenario
document, like ``artifact.model``'s, is valid."""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

from artifact import model
from artifact.cli import _parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    section = README.split("\n## Library use\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    fixture = resources.files("artifact") / "fixtures" / "table1.json"
    (tmp_path / "scenario.json").write_text(fixture.read_text())
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_flag_table_lists_every_option_once():
    rows = re.findall(r"^\| `(--[\w-]+)", README, re.M)
    options = [opt for action in _parser()._actions
               for opt in action.option_strings
               if opt not in ("-h", "--help", "--scenario")]
    assert sorted(rows) == sorted(options)


def test_example_documents_parse():
    section = README.split("\n### Scenario file format\n", 1)[1]
    readme_doc = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    model_doc = model.__doc__.split("fields::\n", 1)[1].split("\n\n")[0]
    for text in (readme_doc, model_doc):
        scenario = model.parse_scenario(text)
        assert scenario.initial_ledger.total == scenario.storage.initial_energy > 0
