"""Self-tests of the clearing benchmark.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
from itertools import islice
from pathlib import Path

import artifact.clearing
import bench
import gate
import scenarios
from artifact.errors import LpNumericalError

ROOT = Path(__file__).resolve().parents[2]
TINY = scenarios.Shape(scenarios.ALL_MODES, 2, 3, ranges=True, discount=0.05,
                       trace_ops=2)


def _one_op(seed=1):
    text = next(scenarios.scenario_stream(TINY, seed))
    _, report, document = scenarios.run_op(TINY, text)
    return text, report, document


def test_smoke_run_at_a_tiny_shape(monkeypatch):
    monkeypatch.setitem(scenarios.WORKLOADS, "day_ranges", TINY)
    monkeypatch.setattr(bench, "SETUP_RUNS", 1)
    tally, metrics = bench.measure("day_ranges", seed=3, seconds=0.5)
    assert tally.attempted >= 1
    assert tally.failed == 0
    assert tally.oracle == tally.attempted
    assert metrics["periods_per_s"][0] > 0
    assert metrics["setup_s"][0] > 0


def test_every_named_metric_is_printed_with_its_unit(monkeypatch, tmp_path,
                                                     capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setitem(scenarios.WORKLOADS, "day_ranges", TINY)
    monkeypatch.setattr(bench, "SETUP_RUNS", 1)
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "day_ranges", "--seed", "2", "--seconds", "0.2",
                "--trace", str(trace)]
        assert bench.main(argv) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_layer_counts_repeat_for_a_seed(monkeypatch):
    monkeypatch.setitem(scenarios.WORKLOADS, "day_ranges", TINY)
    counts = []
    for _ in range(2):
        _, metrics, _, _ = bench.trace("day_ranges", seed=4, seconds=0.0)
        counts.append([metrics[name][0] for name in (
            "lp.solve.calls", "lp.dual_range.face_solves",
            "lp.solve.rows_max")])
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_gate_rejects_a_tampered_dual():
    text, report, document = _one_op()
    assert gate.check_report(TINY.modes, report) == []
    ideal = next(m for m in report.modes if m.mode == "ideal")
    ideal.run.full_result.lp_solution.duals["balance[1]"] += 1.0
    problems = gate.check_report(TINY.modes, report)
    assert any("certificates fail" in p for p in problems)


def test_gate_rejects_an_injected_mode_error(monkeypatch):
    def fail(*args, **kwargs):
        raise LpNumericalError("injected")

    monkeypatch.setattr(artifact.clearing, "clear_vlb", fail)
    text, report, document = _one_op()
    assert gate.check_report(TINY.modes, report) == ["vlb: injected"]
    tally = bench.Tally(TINY)
    assert tally.attempt(text, 0)[1] is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_gate_compares_with_recorded_values():
    text, report, document = _one_op(seed=5)
    observed = gate.observe(report, document)
    assert gate.check_ideal(text, observed, {}).problems == []
    reference = {gate.sha256(text): observed}
    result = gate.check_ideal(text, observed, reference)
    assert (result.source, result.digest_changed) == ("recorded", False)
    assert result.problems == []
    shifted = dict(observed, ranges=[[lo, hi + 1e-6]
                                     for lo, hi in observed["ranges"]],
                   report_sha256="0" * 64)
    result = gate.check_ideal(text, observed, {gate.sha256(text): shifted})
    assert result.digest_changed
    assert any("price range" in p for p in result.problems)


def test_oracle_check_after_the_run_rejects_a_wrong_welfare(monkeypatch):
    optimum = gate.ideal_optimum
    monkeypatch.setattr(gate, "ideal_optimum", lambda scenario, ranges: dict(
        optimum(scenario, ranges), welfare=1e6))
    tally = bench.Tally(TINY)
    text = _one_op(seed=6)[0]
    assert tally.attempt(text, 0)[1] is not None
    assert tally.finish(iter([text])) == 1
    assert (tally.oracle, tally.failed) == (1, 1)


def test_recording_keeps_recorded_values(tmp_path, monkeypatch):
    monkeypatch.setitem(scenarios.WORKLOADS, "day_ranges", TINY)
    path = tmp_path / "reference.json"
    assert gate.record("day_ranges", 2, [9], path) == 2
    first = gate.load_reference(path)
    key = next(iter(first))
    path.write_text(json.dumps(dict(first, **{key: {"welfare": 0.0}})))
    assert gate.record("day_ranges", 3, [9], path) == 3
    second = gate.load_reference(path)
    assert second[key] == {"welfare": 0.0}
    assert {k: v for k, v in second.items() if k in first and k != key} == {
        k: v for k, v in first.items() if k != key}


def test_stream_repeats_for_a_seed():
    first = list(islice(scenarios.scenario_stream(TINY, 7), 3))
    assert first == list(islice(scenarios.scenario_stream(TINY, 7), 3))
    assert first != list(islice(scenarios.scenario_stream(TINY, 8), 3))
