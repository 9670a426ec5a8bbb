"""Scenario runner command line and report emitters.

``compare`` runs a scenario under one or more modes side by side, and every
command-line run goes through it; ``emit`` renders a report either as
aligned text tables (``table``) or as a machine-readable JSON document
(``structured``) whose top-level sections are ``intervals``,
``ledger_snapshots``, ``surpluses``, ``cycles``, and ``totals``. Structured
output is deterministic: re-running a scenario yields a byte-identical
document.

Exit codes: 0 success, 2 invalid input or flags, 3 infeasible clearing,
4 numerical or algorithmic failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from . import lp as lpmod
from .errors import EngineError, InfeasibleError, ScenarioError
from .metrics import (
    PRICE_SELECTIONS,
    VERDICT_FAIL,
    VERDICT_INDETERMINATE,
    VERDICT_PASS,
    cost_recovery_audit,
    participant_surpluses,
    social_welfare,
)
from .model import MODES, Scenario, parse_scenario
from .runner import ScenarioRun, run_scenario

FIXTURE_NAMES = ("table1", "table4", "table5", "table6")

_EXIT_OK = 0
_EXIT_INVALID = 2
_EXIT_INFEASIBLE = 3
_EXIT_NUMERICAL = 4


def _exit_code(exc: EngineError) -> int:
    """The exit code of a run that failed with ``exc``."""
    if isinstance(exc, ScenarioError):
        return _EXIT_INVALID
    if isinstance(exc, InfeasibleError):
        return _EXIT_INFEASIBLE
    return _EXIT_NUMERICAL


@dataclass(frozen=True)
class ModeReport:
    """Everything reported about one mode's run of a scenario.

    ``document`` is the mode's structured report; a mode that failed has
    only ``mode`` and ``error`` in it.
    """

    price_selection: str
    document: dict
    error_code: int = 0
    run: ScenarioRun | None = field(default=None, repr=False, compare=False)

    @property
    def mode(self) -> str:
        return self.document["mode"]

    @property
    def error(self) -> str | None:
        """The failed mode's error message; None for a mode that ran."""
        return self.document.get("error")

    @property
    def totals(self) -> dict:
        """The document's totals; empty for a failed mode."""
        return self.document.get("totals", {})


@dataclass(frozen=True)
class RunReport:
    """One or more mode reports over a single scenario."""

    modes: tuple[ModeReport, ...] = ()


def _interval_summary(result, index: int) -> dict:
    doc = {
        "index": index,
        "delta_t": result.delta_t,
        "n_periods": result.n_periods,
        "loads": {pid: list(result.load(pid))
                  for pid in sorted({k for d in result.load_dispatch for k in d})},
        "generators": {pid: list(result.gen(pid))
                       for pid in sorted({k for d in result.gen_dispatch for k in d})},
        "storage_injection": list(result.storage_injection),
        "prices": list(result.prices),
        "price_ranges": None if result.price_ranges is None
        else [list(r) for r in result.price_ranges],
        "objective": result.objective,
        "initial_content": result.initial_content,
        "final_content": result.final_content,
    }
    if result.level is not None:
        doc["level"] = list(result.level)
    if result.intra_charge is not None:
        doc["intra_charge"] = list(result.intra_charge)
        doc["intra_level"] = list(result.intra_level)
        doc["inter_discharge"] = [list(row) for row in result.inter_discharge]
        doc["inter_level"] = [list(row) for row in result.inter_level]
        buckets = result.ledger.buckets
        doc["bucket_prices"] = [b.price for b in buckets]
        doc["bucket_quantities"] = [b.quantity for b in buckets]
        doc["bucket_births"] = [b.birth_interval for b in buckets]
    return doc


def _bucket_docs(ledger) -> list[dict]:
    return [{"price": b.price, "quantity": b.quantity,
             "birth_interval": b.birth_interval} for b in ledger.buckets]


def _ledger_snapshots(run: ScenarioRun) -> list[dict]:
    snaps = [
        {"interval": i, "stage": "before", "buckets": _bucket_docs(ledger)}
        for i, ledger in enumerate(run.ledgers_before, start=1)
    ]
    if run.final_ledger is not None:
        snaps.append({"interval": len(run.results), "stage": "after",
                      "buckets": _bucket_docs(run.final_ledger)})
    return snaps


def _aggregate_verdict(cycles: list[dict]) -> str:
    if any(c["verdict"] == VERDICT_FAIL for c in cycles):
        return VERDICT_FAIL
    if any(c["verdict"] == VERDICT_INDETERMINATE for c in cycles):
        return VERDICT_INDETERMINATE
    return VERDICT_PASS


def _build_mode_report(scenario: Scenario, mode: str, price_selection: str,
                       compute_ranges: bool) -> ModeReport:
    run = run_scenario(replace(scenario, mode=mode),
                       compute_ranges=compute_ranges)
    results, bids = list(run.results), list(scenario.intervals)
    surpluses = [{"participant": ln.participant, "kind": ln.kind,
                  "interval": ln.interval_index, "surplus": ln.surplus}
                 for ln in participant_surpluses(results, bids,
                                                 price_selection)]
    cycles = [{"start": c.start, "end": c.end, "closed": c.closed,
               "storage_surplus": c.storage_surplus, "verdict": c.verdict,
               "social_welfare": c.social_welfare}
              for c in cost_recovery_audit(results, bids, price_selection)]
    n = len(results)

    def surplus_of(kind: str) -> float:
        return sum(s["surplus"] for s in surpluses if s["kind"] == kind)

    document = {
        "mode": mode,
        "price_selection": price_selection,
        "intervals": [_interval_summary(r, i)
                      for i, r in enumerate(results, start=1)],
        "ledger_snapshots": _ledger_snapshots(run),
        "surpluses": surpluses,
        "cycles": cycles,
        "totals": {
            "social_welfare": social_welfare(results, bids, (1, n)) if n
            else 0.0,
            "objective_sum": sum(r.objective for r in results),
            "load_surplus": surplus_of("load"),
            "generator_surplus": surplus_of("generator"),
            "storage_surplus": surplus_of("storage"),
            "cost_recovery": _aggregate_verdict(cycles),
        },
    }
    return ModeReport(price_selection, document, run=run)


def compare(scenario: Scenario, modes, price_selection: str = "point",
            compute_ranges: bool = True) -> RunReport:
    """Run the same scenario under one or more modes.

    A mode that fails is reported with its error while the others complete.
    Modes run in their canonical order regardless of the order given.
    """
    wanted = list(dict.fromkeys(modes))
    if not wanted:
        raise ScenarioError(f"no mode given; valid: {', '.join(MODES)}")
    unknown = [m for m in wanted if m not in MODES]
    if unknown:
        raise ScenarioError(
            f"unknown mode(s) {', '.join(unknown)}; valid: {', '.join(MODES)}")
    ordered = [m for m in MODES if m in wanted]
    reports = []
    for mode in ordered:
        try:
            reports.append(_build_mode_report(scenario, mode, price_selection,
                                              compute_ranges))
        except EngineError as exc:
            reports.append(ModeReport(
                price_selection, {"mode": mode, "error": str(exc)},
                error_code=_exit_code(exc)))
    return RunReport(modes=tuple(reports))


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def structured_document(report: RunReport) -> dict:
    """The report as a JSON-ready dict (single-mode reports at top level)."""
    if len(report.modes) == 1:
        return report.modes[0].document
    return {
        "modes": {m.mode: m.document for m in report.modes},
        "totals": {m.mode: (None if m.error is not None else m.totals)
                   for m in report.modes},
    }


def _fmt(v: float) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.6g}"


def _fmt_range(r) -> str:
    return f"[{_fmt(r[0])}, {_fmt(r[1])}]"


def _render_rows(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return out


def _dispatch_section(intervals: list[dict]) -> list[str]:
    load_ids = sorted({k for iv in intervals for k in iv["loads"]})
    gen_ids = sorted({k for iv in intervals for k in iv["generators"]})
    vlb = any("intra_charge" in iv for iv in intervals)
    headers = (["MI", "t"] + [f"d[{i}]" for i in load_ids]
               + [f"p[{i}]" for i in gen_ids])
    if vlb:
        headers += ["pC", "pD,e", "ea", "ee"]
    else:
        headers += ["pC", "e"]
    headers += ["price"]
    has_ranges = any(iv["price_ranges"] is not None for iv in intervals)
    if has_ranges:
        headers += ["price range"]
    rows = []
    for iv in intervals:
        for t in range(iv["n_periods"]):
            row = [str(iv["index"]) if t == 0 else "", str(t + 1)]
            row += [_fmt(iv["loads"].get(i, [0.0] * iv["n_periods"])[t])
                    for i in load_ids]
            row += [_fmt(iv["generators"].get(i, [0.0] * iv["n_periods"])[t])
                    for i in gen_ids]
            if vlb:
                row += [
                    _fmt(iv["intra_charge"][t]),
                    _fmt(sum(b[t] for b in iv["inter_discharge"])),
                    _fmt(iv["intra_level"][t]),
                    _fmt(sum(b[t] for b in iv["inter_level"])),
                ]
            else:
                level = iv.get("level")
                row += [_fmt(iv["storage_injection"][t]),
                        _fmt(level[t]) if level is not None else ""]
            row += [_fmt(iv["prices"][t])]
            if has_ranges:
                rng = iv["price_ranges"]
                row += [_fmt_range(rng[t]) if rng is not None else ""]
            rows.append(row)
    return _render_rows(headers, rows)


def _ledger_section(snapshots: list[dict]) -> list[str]:
    out = []
    for snap in snapshots:
        label = (f"before MI {snap['interval']}" if snap["stage"] == "before"
                 else f"after MI {snap['interval']}")
        if not snap["buckets"]:
            out.append(f"  {label}: (empty)")
        else:
            parts = [f"{_fmt(b['quantity'])} MWh @ {_fmt(b['price'])} EUR/MWh "
                     f"(born MI {b['birth_interval']})"
                     for b in snap["buckets"]]
            out.append(f"  {label}: " + "; ".join(parts))
    return out


def _surplus_section(surpluses: list[dict]) -> list[str]:
    headers = ["MI", "participant", "kind", "surplus"]
    rows = [[str(s["interval"]), s["participant"], s["kind"],
             _fmt(s["surplus"])] for s in surpluses]
    return _render_rows(headers, rows)


def _cycle_section(cycles: list[dict]) -> list[str]:
    headers = ["MIs", "closed", "storage surplus", "verdict", "social welfare"]
    rows = [[f"{c['start']}-{c['end']}", "yes" if c["closed"] else "no",
             _fmt(c["storage_surplus"]), c["verdict"],
             _fmt(c["social_welfare"])] for c in cycles]
    return _render_rows(headers, rows)


def _text_for_mode(report: ModeReport) -> list[str]:
    head = f"=== mode {report.mode} (prices: {report.price_selection}) ==="
    if report.error is not None:
        return [head, f"  error: {report.error}", ""]
    doc = report.document
    out = [head, ""]
    out += _dispatch_section(doc["intervals"])
    out.append("")
    if doc["ledger_snapshots"]:
        out.append("ledger:")
        out += _ledger_section(doc["ledger_snapshots"])
        out.append("")
    out.append("surpluses:")
    out += ["  " + line for line in _surplus_section(doc["surpluses"])]
    out.append("")
    out.append("cycles:")
    if doc["cycles"]:
        out += ["  " + line for line in _cycle_section(doc["cycles"])]
    else:
        out.append("  (none)")
    out.append("")
    out.append("totals:")
    for key in ("social_welfare", "load_surplus", "generator_surplus",
                "storage_surplus", "objective_sum"):
        out.append(f"  {key.replace('_', ' ')}: {_fmt(report.totals[key])}")
    out.append(f"  cost recovery: {report.totals['cost_recovery']}")
    out.append("")
    return out


def emit(report: RunReport, format: str = "table") -> str:
    """Render a report as ``table`` text or a ``structured`` JSON document."""
    if format == "structured":
        return json.dumps(structured_document(report), indent=2,
                          sort_keys=True) + "\n"
    if format != "table":
        raise ValueError(f"format must be 'table' or 'structured', got {format!r}")
    lines: list[str] = []
    for mode_report in report.modes:
        lines += _text_for_mode(mode_report)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_scenario(ref: str) -> Scenario:
    path = Path(ref)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(
                f"cannot read scenario {ref!r}: {exc}") from exc
        return parse_scenario(text)
    if ref in FIXTURE_NAMES:
        text = (resources.files("artifact") / "fixtures" / f"{ref}.json").read_text()
        return parse_scenario(text)
    raise ScenarioError(
        f"scenario {ref!r} is neither a file nor a bundled fixture "
        f"({', '.join(FIXTURE_NAMES)})")


def _dump_lps(report: RunReport, directory: str) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for mode_report in report.modes:
        run_ = mode_report.run
        if run_ is None:
            continue
        if run_.full_result is not None and run_.full_result.lp is not None:
            text = lpmod.write_lp_text(run_.full_result.lp)
            (out / f"{mode_report.mode}-horizon.lp").write_text(text)
        for i, result in enumerate(run_.results, start=1):
            if result.lp is None:
                continue
            text = lpmod.write_lp_text(result.lp)
            (out / f"{mode_report.mode}-mi{i:02d}.lp").write_text(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Clear energy-market scenarios with a non-merchant "
                    "storage system and audit the outcome.")
    parser.add_argument("--scenario", required=True,
                        help="path to a scenario document, or one of the "
                             f"bundled fixtures: {', '.join(FIXTURE_NAMES)}")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--mode", choices=MODES,
                       help="clear under this mode instead of the document's")
    group.add_argument("--compare",
                       help="comma-separated modes to run side by side")
    parser.add_argument("--price-selection", default="point",
                        choices=PRICE_SELECTIONS,
                        help="price used for settlement and audits")
    parser.add_argument("--no-price-ranges", action="store_true",
                        help="skip price-multiplicity ranges (faster)")
    parser.add_argument("--dump-lp", metavar="DIR",
                        help="write each clearing LP as text into DIR")
    parser.add_argument("--format", default="table",
                        choices=("table", "structured"),
                        help="output format")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.no_price_ranges and args.price_selection != "point":
        print("error: --price-selection range_min/range_max needs price "
              "ranges; drop --no-price-ranges", file=sys.stderr)
        return _EXIT_INVALID
    try:
        scenario = _load_scenario(args.scenario)
        if args.compare is not None:
            modes = [m.strip() for m in args.compare.split(",") if m.strip()]
        else:
            modes = [args.mode or scenario.mode]
        report = compare(scenario, modes,
                         price_selection=args.price_selection,
                         compute_ranges=not args.no_price_ranges)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for diag in getattr(exc, "diagnostics", ()):
            print(f"  - {diag}", file=sys.stderr)
        return _exit_code(exc)
    failed = [m for m in report.modes if m.error is not None]
    if failed and args.compare is None:
        # a single-mode run that fails writes no report
        print(f"error: {failed[0].error}", file=sys.stderr)
        return failed[0].error_code
    document = emit(report, format=args.format)
    try:
        if args.dump_lp:
            _dump_lps(report, args.dump_lp)
        if args.out:
            Path(args.out).write_text(document)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    if not args.out:
        sys.stdout.write(document)
    if failed:
        return failed[0].error_code
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
