import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncsim.trace import format_record

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


def outcome(fn, record):
    """The output of fn(record), or the type of the exception it raises."""
    try:
        return fn(record)
    except Exception as exc:  # compared, not swallowed: both sides must agree
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(record=RECORDS, data=st.data())
@example(record={}, data=None)
@example(record={"sim_time_ps": 1, "sequence": True}, data=None)
@example(record={"sim_time_ps": True, "sequence": None}, data=None)
def test_format_record_is_json_dumps(record, data):
    assert format_record(record) == canonical(record)
    if data is None:
        return
    # the same key set in another insertion order: same canonical bytes
    items = data.draw(st.permutations(list(record.items())))
    reordered = dict(items)
    assert format_record(reordered) == canonical(reordered) == canonical(record)


@settings(max_examples=100, deadline=None)
@given(record=st.dictionaries(
    st.one_of(st.integers(), st.booleans(), st.none(), st.floats(), TEXT),
    VALUES, min_size=1, max_size=4))
@example(record={1: "a", "b": 2})
@example(record={"b": 2, None: 1})
def test_records_with_non_str_keys_follow_json_dumps(record):
    # mixed key types make json.dumps's sort raise TypeError; the serializer
    # must then raise the same error, and otherwise emit the same bytes
    assert outcome(format_record, record) == outcome(canonical, record)

