"""Scenario document round-trips and validation diagnostics."""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.errors import ScenarioError
from artifact.model import (
    MODES,
    Scenario,
    StorageSpec,
    ValueBucket,
    ValueLedger,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)
from helpers import interval, table1_scenario, table5_scenario

MINIMAL = """
{
  "storage": {"capacity": 2.5, "initial_energy": 0.0},
  "mode": "vlb",
  "intervals": [
    {"delta_t": 1.0, "n_periods": 1,
     "loads": [{"id": "l1", "utility": [12.0], "max": [3.0]}],
     "generators": [{"id": "g1", "cost": [2.0], "max": [2.0]}],
     "end_level": 0.0}
  ]
}
"""


class TestParsing:
    def test_minimal_document(self):
        scn = parse_scenario(MINIMAL)
        assert scn.mode == "vlb"
        assert scn.discount_rate == 0.0
        assert scn.initial_ledger.buckets == ()
        assert scn.intervals[0].loads[0].utility == (12.0,)
        assert scn.intervals[0].penalty_price is None

    def test_round_trip_exact(self):
        for build in (table1_scenario, lambda m: table5_scenario(m, 0.25)):
            scn = build("vlb")
            again = parse_scenario(serialize_scenario(scn))
            assert again == scn

    def test_round_trip_with_ledger(self):
        scn = Scenario(
            storage=StorageSpec(2.5, 1.5),
            intervals=table1_scenario("vlb").intervals,
            mode="vlb",
            initial_ledger=ValueLedger.from_buckets(
                [ValueBucket(5.0, 1.0, 1), ValueBucket(3.0, 0.5, 2)]),
        )
        again = parse_scenario(serialize_scenario(scn))
        assert again == scn

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError, match=r"line 3"):
            parse_scenario('{\n "storage": {},\n oops\n}')

    def test_missing_field_named(self):
        with pytest.raises(ScenarioError, match=r"storage\.capacity"):
            parse_scenario('{"storage": {"initial_energy": 0}, "mode": "vlb", '
                           '"intervals": []}')

    def test_wrong_type_named(self):
        bad = MINIMAL.replace('"max": [3.0]', '"max": ["three"]')
        with pytest.raises(ScenarioError, match=r"max\[0\]"):
            parse_scenario(bad)


class TestHostileInput:
    """Input that once ended in a traceback instead of a ScenarioError."""

    def test_deep_nesting(self):
        with pytest.raises(ScenarioError, match="nested too deeply"):
            parse_scenario("[" * 100000)

    def test_integer_beyond_the_digit_limit(self):
        text = MINIMAL.replace('"capacity": 2.5', '"capacity": ' + "9" * 5000)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert "storage.capacity: must be a finite nonnegative energy" \
            in exc.value.diagnostics

    def test_integer_field_beyond_the_digit_limit(self):
        text = MINIMAL.replace('"n_periods": 1', '"n_periods": ' + "9" * 5000)
        with pytest.raises(ScenarioError,
                           match=r"intervals\[0\]\.n_periods: integer out of range"):
            parse_scenario(text)

    def test_integer_beyond_float_range(self):
        text = MINIMAL.replace('"capacity": 2.5', '"capacity": 1' + "0" * 400)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert "storage.capacity: must be a finite nonnegative energy" \
            in exc.value.diagnostics


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)

#: a valid document that uses every field
FULL = json.loads(serialize_scenario(replace(
    table1_scenario("vlb"), storage=StorageSpec(2.5, 1.0), discount_rate=0.1,
    initial_ledger=ValueLedger((ValueBucket(5.0, 1.0, 1),)))))


def _paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _parses_or_rejects(text: str) -> None:
    try:
        assert isinstance(parse_scenario(text), Scenario)
    except ScenarioError:
        pass


class TestArbitraryInput:
    """``parse_scenario`` returns a Scenario or raises ScenarioError,
    whatever JSON it is given."""

    @settings(derandomize=True, deadline=None)
    @given(JSON_VALUES)
    def test_any_json_value(self, value):
        _parses_or_rejects(json.dumps(value))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(list(_paths(FULL))), JSON_VALUES)
    def test_valid_document_with_one_field_replaced(self, path, value):
        doc = copy.deepcopy(FULL)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        _parses_or_rejects(json.dumps(doc))


class TestValidation:
    def test_valid_fixture_has_no_diagnostics(self):
        assert validate_scenario(table1_scenario("vlb")) == []

    def test_bad_mode(self):
        scn = table1_scenario("nonsense")
        diags = validate_scenario(scn)
        assert any("mode" in d for d in diags)

    def test_all_modes_accepted(self):
        for mode in MODES:
            scn = table1_scenario(mode)
            assert validate_scenario(scn) == []

    def test_penalty_price_required_for_penalty_mode(self):
        scn = table1_scenario("split_penalty")
        stripped = scn.intervals[0].__class__(
            grid=scn.intervals[0].grid, loads=scn.intervals[0].loads,
            generators=scn.intervals[0].generators, end_level=1.0,
            penalty_price=None)
        bad = Scenario(scn.storage, (stripped, scn.intervals[1]),
                       "split_penalty")
        diags = validate_scenario(bad)
        assert any("penalty_price" in d for d in diags)

    def test_capacity_and_levels(self):
        scn = table1_scenario("vlb")
        bad = Scenario(StorageSpec(-1.0, 0.0), scn.intervals, "vlb")
        assert any("capacity" in d for d in validate_scenario(bad))
        bad = Scenario(StorageSpec(2.5, 3.0), scn.intervals, "vlb")
        assert any("initial_energy" in d for d in validate_scenario(bad))

    def test_end_level_above_capacity(self):
        scn = table1_scenario("vlb")
        tweaked = scn.intervals[0].__class__(
            grid=scn.intervals[0].grid, loads=scn.intervals[0].loads,
            generators=scn.intervals[0].generators, end_level=9.9,
            penalty_price=None)
        bad = Scenario(scn.storage, (tweaked, scn.intervals[1]), "vlb")
        assert any("end_level" in d for d in validate_scenario(bad))

    def test_discount_rate_range(self):
        scn = table1_scenario("vlb")
        for rate in (-0.1, 1.0, 1.5):
            bad = Scenario(scn.storage, scn.intervals, "vlb",
                           discount_rate=rate)
            assert any("discount_rate" in d for d in validate_scenario(bad))

    def test_reserved_and_duplicate_ids(self):
        base = interval([12.0], [3.0], [[2.0]], [[2.0]], 0.0)
        loads = (base.loads[0].__class__("storage", (12.0,), (3.0,)),)
        bad_iv = base.__class__(base.grid, loads, base.generators, 0.0, None)
        scn = Scenario(StorageSpec(2.5, 0.0), (bad_iv,), "vlb")
        assert any("reserved" in d for d in validate_scenario(scn))

        dup_gens = (base.generators[0], base.generators[0])
        dup_iv = base.__class__(base.grid, base.loads, dup_gens, 0.0, None)
        scn = Scenario(StorageSpec(2.5, 0.0), (dup_iv,), "vlb")
        assert any("duplicate" in d for d in validate_scenario(scn))

    def test_long_duplicate_id_is_cut(self):
        doc = json.loads(MINIMAL)
        gen = doc["intervals"][0]["generators"][0]
        gen["id"] = "g" * 10**6
        doc["intervals"][0]["generators"].append(gen)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.diagnostics == (
            "intervals[0]: duplicate participant id '" + "g" * 59
            + "... (cut from 1000002 characters)",)

    def test_period_count_mismatch(self):
        bad = MINIMAL.replace('"utility": [12.0]', '"utility": [12.0, 1.0]')
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert any("expected 1 entries" in d for d in err.value.diagnostics)

    def test_ledger_over_capacity(self):
        scn = table1_scenario("vlb")
        bad = Scenario(scn.storage, scn.intervals, "vlb",
                       initial_ledger=ValueLedger.from_buckets(
                           [ValueBucket(5.0, 3.0, 1)]))
        assert any("exceeds storage.capacity" in d
                   for d in validate_scenario(bad))

    def test_ledger_must_hold_the_initial_energy(self):
        # a store that starts with energy needs a ledger that prices it; an
        # omitted ledger counts as empty
        ledger = [{"price": 5.0, "quantity": 0.75, "birth_interval": 1},
                  {"price": 3.0, "quantity": 0.25, "birth_interval": 2}]
        for initial, buckets, total in ((1.0, None, 0.0), (0.0, ledger, 1.0),
                                        (1.0, ledger[:1], 0.75)):
            doc = json.loads(MINIMAL)
            doc["storage"]["initial_energy"] = initial
            if buckets is not None:
                doc["initial_ledger"] = buckets
            with pytest.raises(ScenarioError) as err:
                parse_scenario(json.dumps(doc))
            assert err.value.diagnostics == (
                f"initial_ledger: total stored energy {total!r} differs "
                f"from storage.initial_energy {initial!r}",)
        doc["initial_ledger"] = ledger
        assert parse_scenario(json.dumps(doc)).initial_ledger.total == 1.0

    def test_nonpositive_bucket_rejected(self):
        scn = table1_scenario("vlb")
        bad = Scenario(scn.storage, scn.intervals, "vlb",
                       initial_ledger=ValueLedger(
                           buckets=(ValueBucket(-2.0, 1.0, 1),)))
        assert any("price" in d for d in validate_scenario(bad))

    def test_empty_intervals_rejected(self):
        scn = Scenario(StorageSpec(2.5, 0.0), (), "vlb")
        assert any("at least one interval" in d for d in validate_scenario(scn))

    def test_ideal_needs_shared_delta_t(self):
        a = interval([12.0], [3.0], [[2.0]], [[2.0]], 0.0, delta_t=1.0)
        b = interval([12.0], [3.0], [[2.0]], [[2.0]], 0.0, delta_t=0.5)
        scn = Scenario(StorageSpec(2.5, 0.0), (a, b), "ideal")
        assert any("shared delta_t" in d for d in validate_scenario(scn))


class TestLedgerType:
    def test_merge_and_sort(self):
        ledger = ValueLedger.from_buckets([
            ValueBucket(7.0, 1.0, 2),
            ValueBucket(5.0, 0.5, 1),
            ValueBucket(5.0, 0.25, 1),
            ValueBucket(5.0, 0.25, 2),
        ])
        assert [(b.price, b.quantity, b.birth_interval)
                for b in ledger.buckets] == [
            (5.0, 0.75, 1), (5.0, 0.25, 2), (7.0, 1.0, 2)]
        assert ledger.total == pytest.approx(2.0)

    def test_empty_buckets_dropped(self):
        ledger = ValueLedger.from_buckets([ValueBucket(5.0, 0.0, 1)])
        assert ledger.buckets == ()
