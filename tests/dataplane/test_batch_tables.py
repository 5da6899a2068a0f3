"""Batched ternary classification (by tuple space) vs per-packet lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.dataplane.tables import TernaryMatchTable, TableEntry, TernaryField
from repro.traffic.batch import PacketBatch

RNG = np.random.default_rng(7)


def _table() -> TernaryMatchTable:
    table = TernaryMatchTable("t", ("src_ip", "protocol"))
    table.insert(
        TableEntry.build(
            {"src_ip": TernaryField.prefix(0x0A000000, 8, 32)},
            action="set_task",
            args={"task_id": 1},
            priority=10,
        )
    )
    table.insert(
        TableEntry.build(
            {
                "src_ip": TernaryField.prefix(0x0A000000, 8, 32),
                "protocol": TernaryField.exact(6, 8),
            },
            action="set_task",
            args={"task_id": 2},
            priority=20,  # more specific, higher priority
        )
    )
    table.insert(
        TableEntry.build(
            {"src_ip": TernaryField.prefix(0x14000000, 8, 32)},
            action="set_task",
            args={"task_id": 3},
            priority=10,
        )
    )
    return table


def _batch(n: int = 400) -> PacketBatch:
    prefixes = RNG.choice([0x0A000000, 0x14000000, 0x1E000000], size=n)
    return PacketBatch(
        {
            "src_ip": prefixes + RNG.integers(0, 1 << 24, size=n),
            "protocol": RNG.choice([6, 17], size=n),
        }
    )


class TestMatchBatch:
    def test_winning_positions_match_scalar_lookup(self):
        table = _table()
        batch = _batch()
        positions = table.match_batch(batch)
        for i, fields in enumerate(batch.iter_fields()):
            action, args = table.lookup(fields)
            pos = int(positions[i])
            if pos == -1:
                assert action is None
            else:
                entry = table.entries[pos]
                assert (entry.action, entry.args_dict()) == (action, args)

    def test_priority_order_respected(self):
        table = _table()
        batch = PacketBatch({"src_ip": [0x0A010203], "protocol": [6]})
        positions = table.match_batch(batch)
        assert table.entries[int(positions[0])].args_dict()["task_id"] == 2


class TestClassifyBatch:
    def test_task_id_vector_matches_scalar(self):
        table = _table()
        batch = _batch()
        task_ids = table.classify_batch(batch, "task_id")
        for i, fields in enumerate(batch.iter_fields()):
            action, args = table.lookup(fields)
            want = args["task_id"] if action == "set_task" else -1
            assert int(task_ids[i]) == want

    def test_default_action_arg_applies_to_misses(self):
        table = _table()
        table.set_default("set_task", {"task_id": 99})
        batch = PacketBatch({"src_ip": [0x1E000001], "protocol": [17]})
        assert int(table.classify_batch(batch, "task_id")[0]) == 99

    def test_unmatched_packets_get_default_sentinel(self):
        table = _table()
        batch = PacketBatch({"src_ip": [0x1E000001], "protocol": [17]})
        assert int(table.classify_batch(batch, "task_id", default=-5)[0]) == -5


# -- tuple-space classification vs the per-packet oracle -------------------

_FIELDS = ("src_ip", "dst_ip", "dst_port", "protocol")
_WIDTHS = {"src_ip": 32, "dst_ip": 32, "dst_port": 16, "protocol": 8}
#: Few distinct values per field, so entries collide (duplicate keys,
#: overlapping prefixes) and packets hit them.
_VALUES = {
    "src_ip": (0x0A000001, 0x0A800001, 0x0B000001, 0xE0000005),
    "dst_ip": (0x14000001, 0x14000002),
    "dst_port": (80, 443, 0x1F90),
    "protocol": (6, 17),
}
_PREFIXES = {"src_ip": (0, 3, 8, 9, 32), "dst_ip": (0, 32), "dst_port": (0, 12, 16), "protocol": (0, 8)}
#: Not one run of bits: a shape the packer must refuse.
_SPLIT_MASK = 0xF0F00000


@st.composite
def _entries(draw):
    entries = []
    for _ in range(draw(st.integers(0, 10))):
        match = {}
        for name in _FIELDS:
            plen = draw(st.sampled_from(_PREFIXES[name]))
            if plen:
                match[name] = TernaryField.prefix(
                    draw(st.sampled_from(_VALUES[name])), plen, _WIDTHS[name]
                )
        if draw(st.integers(0, 5)) == 0:
            match["src_ip"] = TernaryField(draw(st.sampled_from(_VALUES["src_ip"])), _SPLIT_MASK)
        args = {"task_id": draw(st.integers(0, 40))} if draw(st.integers(0, 6)) else {}
        entries.append(
            TableEntry.build(match, "set_task", args, priority=draw(st.integers(0, 3)))
        )
    return entries


@st.composite
def _packets(draw):
    n = draw(st.integers(1, 40))
    return {
        name: [
            draw(st.sampled_from(_VALUES[name])) ^ draw(st.sampled_from((0, 0, 1, 1 << 20)))
            for _ in range(n)
        ]
        for name in _FIELDS
    }


def _assert_matches_lookup(table, columns, default=-7):
    batch = PacketBatch(columns)
    positions = table.match_batch(batch)
    values = table.classify_batch(batch, "task_id", default=default)
    entries = table.entries
    for i, fields in enumerate(batch.iter_fields()):
        first = next((p for p, e in enumerate(entries) if e.matches(fields)), -1)
        assert int(positions[i]) == first
        _action, args = table.lookup(fields)
        assert int(values[i]) == args.get("task_id", default)


@settings(max_examples=120, deadline=None)
@given(_entries(), _packets(), st.sampled_from([None, {}, {"task_id": 99}]))
def test_classification_matches_per_packet_lookup(entries, columns, default_args):
    table = TernaryMatchTable("t", _FIELDS)
    for entry in entries:
        table.insert(entry)
    if default_args is not None:
        table.set_default("set_task", default_args)
    _assert_matches_lookup(table, columns)


class TestCompiledClassifier:
    COLUMNS = {
        "src_ip": [0x0A010203, 0x0A800001, 0x14000005, 0x1E000001, 0x0A010203],
        "protocol": [6, 17, 6, 17, 17],
    }

    def test_shapes_not_entries(self):
        """Three /8 rules are one shape resolved by one lookup; the more
        specific rule is a one-entry shape matched by equality."""
        compiled = _table().classifier()
        assert len(compiled.packed) == 1 and len(compiled.single) == 1
        assert compiled.unpackable == 0 and compiled.floor == 3
        assert _table().classifier() is not compiled  # per table
        table = _table()
        assert table.classifier() is table.classifier()  # cached

    def test_wildcard_rule_is_the_floor_and_shadows_lower_rules(self):
        table = _table()
        table.insert(TableEntry.build({}, "set_task", {"task_id": 7}, priority=15))
        compiled = table.classifier()
        assert compiled.floor == 1  # below the priority-20 rule only
        assert compiled.packed == [] and [pos for pos, _ in compiled.single] == [0]
        _assert_matches_lookup(table, self.COLUMNS)

    def test_wide_keys_resolve_by_binary_search(self):
        table = TernaryMatchTable("t", ("src_ip", "dst_ip"))
        for task_id, (src, dst) in enumerate([(1, 2), (1, 3), (5, 2), (1, 2)]):
            table.insert(
                TableEntry.build(
                    {"src_ip": TernaryField.exact(src, 32), "dst_ip": TernaryField.exact(dst, 31)},
                    "set_task",
                    {"task_id": task_id},
                )
            )
        ((_layout, keys, _positions),) = table.classifier().packed
        assert keys is not None and len(keys) == 4  # three distinct keys + pad
        _assert_matches_lookup(
            table, {"src_ip": [1, 1, 5, 5, 9, 0], "dst_ip": [2, 3, 2, 3, 2, 0]}
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: t.insert(
                TableEntry.build(
                    {"src_ip": TernaryField.prefix(0x1E000000, 8, 32)},
                    "set_task",
                    {"task_id": 4},
                    priority=30,
                )
            ),
            lambda t: t.remove(t.entries[1]),
            lambda t: t.remove_where(lambda e: e.priority == 10),
            lambda t: t.clear(),
            lambda t: t.set_default("set_task", {"task_id": 5}),
        ],
        ids=["insert", "remove", "remove_where", "clear", "set_default"],
    )
    def test_every_mutator_drops_the_compiled_rules(self, mutate):
        table = _table()
        _assert_matches_lookup(table, self.COLUMNS)
        stale = table.classifier()
        mutate(table)
        assert table._classifier is None  # dropped, nothing compiled
        _assert_matches_lookup(table, self.COLUMNS)
        assert table.classifier() is not stale

    def test_unpackable_shapes_fall_back_per_entry_and_are_counted(self):
        table = TernaryMatchTable("t", ("src_ip", "protocol"))
        for task_id, value in enumerate((0x10100000, 0x20200000, 0x10200000)):
            table.insert(
                TableEntry.build(
                    {"src_ip": TernaryField(value, _SPLIT_MASK)}, "set_task", {"task_id": task_id}
                )
            )
        columns = {"src_ip": [0x1F1F0001, 0x2A2B0000, 0x1A2A0000, 0x30300000], "protocol": [6] * 4}
        telemetry.reset()
        telemetry.enable()
        try:
            _assert_matches_lookup(table, columns)  # match_batch + classify_batch
            _assert_matches_lookup(_table(), self.COLUMNS)  # packable: not counted
            counted = telemetry.TELEMETRY.registry.value(
                "flymon_classify_fallback_total", reason="unpackable"
            )
        finally:
            telemetry.disable()
        assert counted == 2 * 3 * 4  # two calls x three entries x four packets
