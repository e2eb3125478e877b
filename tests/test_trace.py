import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from syncsim import load_scenario, run_scenario, trace
from syncsim.trace import (TraceFormatError, load_trace, parse_record, parse_trace,
                           trace_bytes)

from conftest import ROOT, benchmark_workloads

# strings json must escape: controls, quotes, non-ASCII, astral-plane
# characters (written as surrogate pairs) and a lone surrogate
AWKWARD = st.sampled_from(["", "\x00", "\x1f\n\t", '"\\/', "\x7f", "é", "\u2028",
                           "\u65e5\u672c", "\U0001f600", "\ud800", "%s{}"])
TEXT = st.one_of(st.text(), AWKWARD)
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(), st.integers(min_value=-10**40, max_value=10**40),
    st.floats(),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(TEXT, max_size=4),
                               st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=10,
)
RECORDS = st.dictionaries(TEXT, VALUES, max_size=8)


def canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def canonical_lines(records) -> bytes:
    return "".join(canonical(r) + "\n" for r in records).encode("utf-8")


def outcome(fn, records):
    """The output of fn(records), or the type of the exception it raises."""
    try:
        return fn(records)
    except Exception as exc:  # compared, not swallowed: both sides must agree
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(record=RECORDS, data=st.data())
@example(record={}, data=None)
@example(record={"sim_time_ps": 1, "sequence": True}, data=None)
@example(record={"sim_time_ps": True, "sequence": None}, data=None)
# keys holding f-string braces, quotes, backslashes, newlines and % fields
@example(record={"{": 1, "}": "s", "{x}": None, "'": -2, '"': "q'\"", "\\": [1],
                 "\n": 3, "%d": "%d"}, data=None)
@example(record={"{v0}": "{v0}", "{_esc(v0)}": 0, "}{": 1.5, "\\'": "\\"}, data=None)
def test_trace_line_is_json_dumps(record, data):
    assert trace_bytes([record]) == canonical_lines([record])
    if data is None:
        return
    # the same key set in another insertion order: same canonical bytes
    items = data.draw(st.permutations(list(record.items())))
    reordered = dict(items)
    assert trace_bytes([reordered]) == canonical_lines([reordered]) == canonical_lines([record])


@settings(max_examples=100, deadline=None)
@given(record=st.dictionaries(
    st.one_of(st.integers(), st.booleans(), st.none(), st.floats(), TEXT),
    VALUES, min_size=1, max_size=4))
@example(record={1: "a", "b": 2})
@example(record={"b": 2, None: 1})
def test_records_with_non_str_keys_follow_json_dumps(record):
    # mixed key types make json.dumps's sort raise TypeError; the serializer
    # must then raise the same error, and otherwise emit the same bytes
    assert outcome(trace_bytes, [record]) == outcome(canonical_lines, [record])


def test_record_with_300_keys():
    record = {f"k{i:03}": [i, str(i), None][i % 3] for i in range(300)}
    records = [record, dict(reversed(record.items())), {**record, "k000": "int slot as str"}]
    assert trace_bytes(records) == canonical_lines(records)


@pytest.mark.parametrize("first", [7, "str", None, ["list"], True, {"k": 1}],
                         ids=["int", "str", "other", "list", "bool", "dict"])
def test_value_json_dumps_cannot_encode_raises_its_error(first):
    # a shape first seen with `first` at one slot, later holding a value
    # json.dumps rejects there, raises what json.dumps raises
    shape_first = {"kind": "timeout", f"unencodable_after_{type(first).__name__}": first}
    later = [dict.fromkeys(shape_first, object()),
             {**shape_first, "kind": object()},
             dict.fromkeys(shape_first, [object()]),
             dict.fromkeys(shape_first, {"k": object()})]
    for record in later:
        for records in ([shape_first, record], [record]):
            assert outcome(trace_bytes, records) == outcome(canonical_lines, records) == TypeError


class Text(str):
    pass


class Count(int):
    pass


class Strings(list):
    pass


def test_value_types_unlike_the_first_record_of_a_shape_fall_back(monkeypatch):
    # the shape's formatter is typed by the first record: int at t_int, str
    # at t_str, bool, list of str and dict of str to int at t_bool, t_list
    # and t_dict; every other value there must still give json.dumps's
    # bytes, or its error
    monkeypatch.setattr(trace, "_formatters", {})
    first = {"t_int": 7, "t_str": "s", "t_bool": True, "t_list": ["a"], "t_dict": {"k": 1},
             "t_other": None}
    others = [True, 1.5, None, Text("sub"), Count(3), [4], "str", 8,
              [1], ["a", None], [["a"]], [],
              ("a",), "ab", Strings(["a"]), [Text("x")],
              {}, {"b": 1, "a": 2}, {"k": True}, {"k": Count(3)}, {"k": 1.5}, {"k": "v"},
              {1: 2}, {Text("k"): 1},
              1, False]
    records = [first] + [dict.fromkeys(first, value) for value in others]
    assert trace_bytes(records) == canonical_lines(records)
    assert [trace_bytes([r]) for r in records] == [canonical_lines([r]) for r in records]
    # keys json.dumps cannot sort
    unsortable = dict.fromkeys(first, {"a": 1, 2: 3})
    assert outcome(trace_bytes, [first, unsortable]) == TypeError
    assert outcome(canonical_lines, [first, unsortable]) == TypeError


@st.composite
def same_shape_pairs(draw):
    """A record, then a second with the same keys in the same order."""
    first = draw(RECORDS)
    return first, {key: draw(VALUES) for key in first}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=same_shape_pairs())
@example(pair=({"n": 1, "s": "a", "b": False, "l": ["x"], "d": {"k": 1}},
               {"n": True, "s": 1, "b": 0, "l": "xy", "d": {"k": False}}))
@example(pair=({"l": [], "d": {}}, {"l": [object()], "d": {"a": 1, 2: 3}}))
def test_a_second_record_of_a_shape_follows_json_dumps(pair, monkeypatch):
    # the first record types the slots of a fresh formatter; the second
    # holds any values there
    monkeypatch.setattr(trace, "_formatters", {})
    assert outcome(trace_bytes, list(pair)) == outcome(canonical_lines, list(pair))


# a benchmark workload (perfbench/workloads.py) at seed 1, or a bundled
# scenario at its own seed
ENGINE_TRACES = ["mesh", "line", "mesh_attacked", "campus_wifi_fiber", "fiber_vs_satellite",
                 "minimal_pair", "mesh_attacks"]


@pytest.mark.parametrize("source", ENGINE_TRACES)
def test_engine_records_are_written_without_json_dumps(source, tmp_path, monkeypatch):
    # every value the engine emits fits the slot the first record of its
    # shape gave it, except an attack value, which json.dumps writes alone;
    # no record is written by json.dumps whole
    path = ROOT / "demos" / "scenarios" / f"{source}.json"
    if not path.exists():
        path = tmp_path / f"{source}.json"
        path.write_bytes(benchmark_workloads().scenario_bytes(source, 1))
    records = run_scenario(load_scenario(path))[1]
    dumped, lined = [], []
    dumps, line = trace._dumps, trace._line
    monkeypatch.setattr(trace, "_formatters", {})
    monkeypatch.setattr(trace, "_dumps", lambda value: dumped.append(value) or dumps(value))
    monkeypatch.setattr(trace, "_line", lambda record: lined.append(record) or line(record))
    trace_bytes(records)
    attacks = {id(record["attack"]) for record in records if "attack" in record}
    assert [value for value in dumped if id(value) not in attacks] == []
    assert lined == []
    assert bool(dumped) == (source in ("mesh_attacked", "mesh_attacks"))


def test_trace_bytes_over_several_chunks_of_mixed_shapes():
    shapes = [("sim_time_ps", "sequence", "kind"), ("kind", "sequence", "sim_time_ps", "node"),
              ("sequence", "route", "sim_time_ps", "kind"), ("kind", "attack", "sim_time_ps")]
    values = [0, 12, "r\u00e9", "\u2028%s", ["a", 1], {"k": 2}, True, None, 2.5, -10**30]
    records = []
    for i in range(3 * 4096 + 5):
        shape = shapes[i % len(shapes)]
        records.append({key: values[(i * 7 + j) % len(values)] for j, key in enumerate(shape)})
    assert trace_bytes(records) == canonical_lines(records)
    assert trace_bytes([]) == b""


def test_formatter_cache_stays_within_its_cap():
    for i in range(1000):
        record = {f"shape{i}": i, "kind": "timeout"}
        assert trace_bytes([record]) == canonical_lines([record])
    assert len(trace._formatters) <= trace._MAX_SHAPES


def test_raw_line_separators_inside_strings_do_not_split_records(tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw in strings; only "\n" ends a
    # trace line
    record = {"sim_time_ps": 0, "sequence": 0, "kind": "message_send",
              "src": "a\u2028b\u2029c\x85d"}
    path = tmp_path / "raw.trace"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n{}\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="line 2: missing field"):
        load_trace(path)
    assert parse_trace(json.dumps(record, ensure_ascii=False) + "\n") == [record]


def test_attack_edge_is_not_a_record_kind():
    # nothing emits attack window edges, so a trace may not hold one
    with pytest.raises(TraceFormatError, match="unknown record kind 'attack_edge'"):
        parse_record('{"sim_time_ps": 0, "sequence": 0, "kind": "attack_edge"}')
