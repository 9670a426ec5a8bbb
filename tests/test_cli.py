"""Command-line entry point: exit codes, formats, determinism, LP dumps."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from artifact.cli import FIXTURE_NAMES, compare, emit, main
from artifact.model import parse_scenario, serialize_scenario, validate_scenario
from helpers import (interval, random_ledger, random_vlb_scenario,
                     table1_scenario)
from artifact.model import Scenario, StorageSpec


TABLE1 = serialize_scenario(table1_scenario("vlb"))


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def infeasible_file(tmp_path):
    # the end level needs 2.5 MWh but the only unit can supply 2 MW for 1 h
    iv = interval([12.0], [0.0], [[5.0]], [[2.0]], end_level=2.5,
                  penalty_price=1.0)
    scn = Scenario(StorageSpec(2.5, 0.0), (iv,), "split_end_level")
    path = tmp_path / "infeasible.json"
    path.write_text(serialize_scenario(scn))
    return str(path)


@pytest.fixture
def one_sided_file(tmp_path):
    # the only load bids for 0 MW: nothing bounds the price from below, and
    # the unused cost-5 generator caps it, so the range is (-inf, 5]
    iv = interval([12.0], [0.0], [[5.0]], [[2.0]], end_level=0.0)
    scn = Scenario(StorageSpec(2.5, 0.0), (iv,), "split_end_level")
    path = tmp_path / "one_sided.json"
    path.write_text(serialize_scenario(scn))
    return str(path)


class TestExitCodes:
    def test_fixture_run_succeeds(self, capsys):
        code, out, err = invoke(capsys, "--scenario", "table1",
                                "--mode", "vlb")
        assert code == 0
        assert err == ""
        assert "vlb" in out

    def test_unknown_scenario_reference(self, capsys):
        code, _, err = invoke(capsys, "--scenario", "no-such-table")
        assert code == 2
        assert "no-such-table" in err

    def test_invalid_document_lists_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"storage": {"capacity": -1, "initial_energy": 0},'
                       ' "mode": "vlb", "intervals": []}')
        code, _, err = invoke(capsys, "--scenario", str(bad))
        assert code == 2
        assert "capacity" in err

    def test_each_diagnostic_is_printed_once(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(TABLE1)
        doc["storage"]["initial_energy"] = 1.0
        bad.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "--scenario", str(bad))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: invalid scenario (1 problem(s)):",
            "  - initial_ledger: total stored energy 0.0 differs from "
            "storage.initial_energy 1.0"]
        doc["discount_rate"] = 1.0
        doc["intervals"][0]["end_level"] = -1.0
        doc["intervals"][1]["loads"][0]["id"] = ""
        doc["intervals"][1]["generators"][0]["max"] = [-1.0]
        bad.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "--scenario", str(bad))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: invalid scenario (5 problem(s)):",
            "  - discount_rate: must lie in [0, 1)",
            "  - initial_ledger: total stored energy 0.0 differs from "
            "storage.initial_energy 1.0",
            "  - intervals[0].end_level: must be a finite nonnegative energy",
            "  - intervals[1].loads[0].id: must be nonempty",
            "  - intervals[1].generators[0].max[0]: must be finite and "
            "nonnegative"]

    @pytest.mark.parametrize("text, named", [
        ("[" * 100000, "nested too deeply"),
        (TABLE1.replace('"capacity": 2.5', '"capacity": ' + "9" * 5000),
         "storage.capacity"),
        (TABLE1.replace('"capacity": 2.5', '"capacity": 1' + "0" * 400),
         "storage.capacity"),
    ], ids=["deep_nesting", "digit_limit", "float_range"])
    def test_hostile_document_exits_two(self, capsys, tmp_path, text, named):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = invoke(capsys, "--scenario", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and named in err

    def test_infeasible_scenario(self, capsys, infeasible_file):
        code, _, err = invoke(capsys, "--scenario", infeasible_file)
        assert code == 3
        assert "infeasible" in err.lower() or "feasible" in err

    def test_range_selection_needs_ranges(self, capsys):
        code, _, err = invoke(capsys, "--scenario", "table1",
                              "--price-selection", "range_min",
                              "--no-price-ranges")
        assert code == 2
        assert "price" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", "table1", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_compare_mode(self, capsys):
        code, _, err = invoke(capsys, "--scenario", "table1",
                              "--compare", "vlb,psychic")
        assert code == 2
        assert "psychic" in err

    @pytest.mark.parametrize("modes", [",", ""], ids=["comma", "empty"])
    def test_empty_compare_list_exits_two(self, capsys, modes):
        code, out, err = invoke(capsys, "--scenario", "table1",
                                "--compare", modes)
        assert (code, out) == (2, "")
        assert err.startswith("error: no mode given")

    @pytest.mark.parametrize("field, value, named", [
        ("loads", "x" * 10**6, "intervals[0].loads"),
        ("delta_t", [0] * 10**6, "intervals[0].delta_t"),
        ("end_level", {f"k{i}": i for i in range(10**5)},
         "intervals[0].end_level"),
    ], ids=["long_string", "long_array", "large_object"])
    def test_long_offending_value_is_cut(self, capsys, tmp_path, field,
                                         value, named):
        doc = json.loads(TABLE1)
        doc["intervals"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "--scenario", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named}: expected ")
        assert "cut from" in err
        assert len(err.encode()) < 300

    def test_invalid_mode_in_compare_exits_two(self, capsys):
        # table4 has no penalty price: split_penalty is invalid input there,
        # as in a single-mode run, while the other modes clear
        code, out, _ = invoke(capsys, "--scenario", "table4", "--compare",
                              "ideal,split_end_level,split_penalty,vlb",
                              "--format", "structured")
        assert code == 2
        errors = {mode: doc.get("error")
                  for mode, doc in json.loads(out)["modes"].items()}
        assert errors == {"ideal": None, "split_end_level": None,
                          "split_penalty": "split_penalty clearing requires "
                                           "penalty_price",
                          "vlb": None}
        single, _, _ = invoke(capsys, "--scenario", "table4", "--mode",
                              "split_penalty")
        assert single == code

    def test_failed_single_mode_writes_no_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = invoke(capsys, "--scenario", "table4", "--mode",
                                "split_penalty", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == "error: split_penalty clearing requires penalty_price\n"
        assert not target.exists()

    def test_scenario_directory(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "--scenario", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot read scenario")

    def test_scenario_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"mode": "vlb", "note": "é"}'.encode("latin-1"))
        code, _, err = invoke(capsys, "--scenario", str(bad))
        assert code == 2
        assert err.startswith("error: cannot read scenario")

    def test_out_is_a_directory(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "--scenario", "table1", "--mode",
                                "vlb", "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_dump_lp_is_a_file(self, capsys, tmp_path):
        target = tmp_path / "lps"
        target.write_text("")
        code, out, err = invoke(capsys, "--scenario", "table1", "--mode",
                                "vlb", "--dump-lp", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestStructuredFormat:
    def test_single_mode_document_shape(self, capsys):
        code, out, _ = invoke(capsys, "--scenario", "table1", "--mode", "vlb",
                              "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["cycles", "intervals", "ledger_snapshots",
                               "mode", "price_selection", "surpluses",
                               "totals"]
        assert doc["mode"] == "vlb"
        assert len(doc["intervals"]) == 2
        assert doc["intervals"][0]["prices"] == [5.0]

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = invoke(capsys, "--scenario", "table5",
                             "--compare", "ideal,split_end_level,vlb",
                             "--format", "structured")
        _, second, _ = invoke(capsys, "--scenario", "table5",
                              "--compare", "ideal,split_end_level,vlb",
                              "--format", "structured")
        assert first == second

    def test_single_mode_compare_collapses(self, capsys):
        _, single, _ = invoke(capsys, "--scenario", "table4",
                              "--mode", "vlb", "--format", "structured")
        _, multi, _ = invoke(capsys, "--scenario", "table4",
                             "--compare", "vlb", "--format", "structured")
        assert json.loads(multi) == json.loads(single)

    def test_compare_nests_single_mode_documents(self, capsys):
        _, single, _ = invoke(capsys, "--scenario", "table4",
                              "--mode", "vlb", "--format", "structured")
        _, multi, _ = invoke(capsys, "--scenario", "table4",
                             "--compare", "ideal,vlb", "--format",
                             "structured")
        doc = json.loads(multi)
        assert set(doc) == {"modes", "totals"}
        assert doc["modes"]["vlb"] == json.loads(single)
        assert doc["totals"]["ideal"]["social_welfare"] \
            == pytest.approx(21.0)

    def test_compare_captures_failing_mode(self, capsys, tmp_path):
        # no penalty price anywhere: split_penalty cannot run, vlb can
        iv = interval([12.0], [3.0], [[2.0]], [[2.0]], end_level=0.0)
        scn = Scenario(StorageSpec(2.5, 0.0), (iv,), "vlb")
        path = tmp_path / "no_penalty.json"
        path.write_text(serialize_scenario(scn))
        code, out, _ = invoke(capsys, "--scenario", str(path),
                              "--compare", "vlb,split_penalty",
                              "--format", "structured")
        # a mode that cannot run on this input is invalid input
        assert code == 2
        doc = json.loads(out)
        assert "error" in doc["modes"]["split_penalty"]
        assert doc["modes"]["vlb"]["totals"]["social_welfare"] \
            == pytest.approx(20.0)
        assert doc["totals"]["split_penalty"] is None

    def test_no_price_ranges_suppresses_ranges(self, capsys):
        _, out, _ = invoke(capsys, "--scenario", "table1", "--mode", "vlb",
                           "--format", "structured", "--no-price-ranges")
        doc = json.loads(out)
        assert all(iv["price_ranges"] is None for iv in doc["intervals"])


class TestUnboundedPriceRange:
    @pytest.mark.parametrize("mode", ["ideal", "split_end_level"])
    def test_point_run_reports_the_open_end(self, capsys, one_sided_file,
                                            mode):
        code, out, err = invoke(capsys, "--scenario", one_sided_file,
                                "--mode", mode)
        assert (code, err) == (0, "")
        assert "[-inf, 5]" in out
        code, out, _ = invoke(capsys, "--scenario", one_sided_file,
                              "--mode", mode, "--format", "structured")
        assert code == 0 and "-Infinity" in out
        assert json.loads(out)["intervals"][0]["price_ranges"] \
            == [[-math.inf, 5.0]]

    def test_settling_at_the_open_end_exits_two(self, capsys,
                                                one_sided_file):
        code, out, err = invoke(capsys, "--scenario", one_sided_file,
                                "--price-selection", "range_min")
        assert (code, out) == (2, "")
        assert "interval 1, period 1" in err
        code, _, _ = invoke(capsys, "--scenario", one_sided_file,
                            "--price-selection", "range_max")
        assert code == 0


class TestVlbLedgerRecord:
    """A vlb interval's bucket keys and its ``before`` ledger snapshot both
    come from the one ledger its result was cleared against."""

    def test_interval_buckets_are_the_before_snapshot(self):
        rng = np.random.default_rng(20261021)
        checked = 0
        for k in range(30):
            scn = random_vlb_scenario(rng)
            if k % 2:
                # the store starts with the energy its ledger prices
                ledger = random_ledger(rng, scn.storage.capacity)
                scn = replace(scn, initial_ledger=ledger, storage=StorageSpec(
                    scn.storage.capacity, ledger.total))
            report = compare(scn, ["vlb"])
            if report.modes[0].error is not None:
                continue
            run = report.modes[0].run
            doc = json.loads(emit(report, "structured"))
            before = [s for s in doc["ledger_snapshots"]
                      if s["stage"] == "before"]
            assert len(before) == len(doc["intervals"])
            for i, (iv, snap) in enumerate(zip(doc["intervals"], before)):
                assert snap["interval"] == iv["index"] == i + 1
                buckets = snap["buckets"]
                assert iv["bucket_prices"] == [b["price"] for b in buckets]
                assert iv["bucket_quantities"] == [b["quantity"]
                                                   for b in buckets]
                assert iv["bucket_births"] == [b["birth_interval"]
                                               for b in buckets]
                assert run.ledgers_before[i] is run.results[i].ledger
            checked += 1
        assert checked >= 20


class TestOutputTargets:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke(capsys, "--scenario", "table1", "--mode",
                              "vlb", "--format", "structured",
                              "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["mode"] == "vlb"

    def test_dump_lp_writes_models(self, capsys, tmp_path):
        lp_dir = tmp_path / "lps"
        code, _, _ = invoke(capsys, "--scenario", "table1",
                            "--compare", "ideal,vlb", "--dump-lp",
                            str(lp_dir))
        assert code == 0
        names = sorted(p.name for p in lp_dir.iterdir())
        # ideal is one whole-horizon model; its per-interval rows are views
        # without an LP of their own
        assert names == ["ideal-horizon.lp", "vlb-mi01.lp", "vlb-mi02.lp"]
        text = (lp_dir / "vlb-mi01.lp").read_text()
        assert "maximize" in text
        assert "balance" in text


class TestTableFormat:
    def test_dispatch_and_ledger_sections(self, capsys):
        _, out, _ = invoke(capsys, "--scenario", "table1", "--mode", "vlb")
        assert "l1" in out and "g1" in out
        assert "ledger" in out.lower()
        # second-interval bucket discharge shows up
        assert "5" in out

    def test_compare_renders_every_mode(self, capsys):
        _, out, _ = invoke(capsys, "--scenario", "table4",
                           "--compare", "ideal,split_end_level,vlb")
        for mode in ("ideal", "split_end_level", "vlb"):
            assert mode in out


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_documents_are_valid(self, name):
        text = (resources.files("artifact") / "fixtures"
                / f"{name}.json").read_text()
        scn = parse_scenario(text)
        assert validate_scenario(scn) == []

    def test_fixture_matches_programmatic_scenario(self):
        text = (resources.files("artifact") / "fixtures"
                / "table1.json").read_text()
        assert parse_scenario(text) == table1_scenario("vlb")
