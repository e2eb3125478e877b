import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncsim import trace
from syncsim.trace import (TraceFormatError, load_trace, parse_record, parse_trace,
                           trace_bytes)

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


@pytest.mark.parametrize("first", [7, "str", None, ["list"]], ids=["int", "str", "other", "list"])
def test_value_json_dumps_cannot_encode_raises_its_error(first):
    # a shape first seen with `first` at one slot, later holding a value
    # json.dumps rejects there, raises what json.dumps raises
    shape_first = {"kind": "timeout", f"unencodable_after_{type(first).__name__}": first}
    later = [dict.fromkeys(shape_first, object()),
             {**shape_first, "kind": object()},
             dict.fromkeys(shape_first, [object()])]
    for record in later:
        for records in ([shape_first, record], [record]):
            assert outcome(trace_bytes, records) == outcome(canonical_lines, records) == TypeError


class Text(str):
    pass


class Count(int):
    pass


def test_value_types_unlike_the_first_record_of_a_shape_fall_back():
    # the shape's formatter is typed by the first record: int at t_int, str
    # at t_str; every other type there must still give json.dumps bytes
    first = {"t_int": 7, "t_str": "s", "t_other": None}
    others = [True, 1.5, None, Text("sub"), Count(3), [4], "str", 8]
    records = [first] + [{"t_int": value, "t_str": value, "t_other": value}
                         for value in others]
    assert trace_bytes(records) == canonical_lines(records)
    assert [trace_bytes([r]) for r in records] == [canonical_lines([r]) for r in records]


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
