"""Trace record serialization: one canonical JSON object per line.

All times and delays in a trace are integer picoseconds and keys are
sorted, so the byte stream for a (scenario, seed) pair is identical across
runs and platforms and can be compared by hash.

The canonical line of a record is exactly
`json.dumps(record, sort_keys=True, separators=(",", ":"))` (ASCII escapes)
followed by a newline.  Those bytes come from one formatter per key shape
(the record's keys in insertion order), generated as source the way
`namedtuple` builds its methods and cached.  A formatter unpacks the
record's values and returns one f-string: the escaped `{"key":` /
`,"key":` prefixes in sorted key order as `repr()` literals, each followed
by its value's piece.  The type of each value in the first record of a
shape makes its slot one of these kinds:

- int (exact, `type(v) is int`): the digits;
- str: the escaped string;
- bool: `true` or `false`;
- list (exact) of str: `[`, the escaped strings joined by `,`, `]`;
- dict (exact) of str keys to exact ints: `{`, the `"key":int` pairs in
  sorted key order joined by `,`, `}`;
- any other type: `json.dumps` of the value.

The bool, list and dict writers check their value, and one that does not
fit its slot (a tuple or str in a list slot, a float or nested value in a
dict, ...) is written by `json.dumps` of that value alone.  The int slots
are checked before the f-string runs (a bool, float or int subclass would
print wrongly through `f'{v}'`), and the string escaper raises `TypeError`
for a value that is not a str (it encodes a str subclass as `json.dumps`
does).  A failed int check or a `TypeError`, from the escaper or from
`json.dumps` of a value it cannot encode, sends the record through
`json.dumps` whole, which writes it or raises its own error.  The engine's
records never take that path.  Keys enter the source only as `repr()`
literals, never inside f-string braces, and values never enter it.  A
record with no keys or a non-str key also goes through `json.dumps` whole.
`trace_bytes` writes the lines chunk by chunk into one buffer, so no str
of the whole trace is built.
"""

import hashlib
import io
import json
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _esc

RECORD_KINDS = ("message_send", "hop_arrival", "delivery", "timeout", "sync_step")

REQUIRED_FIELDS = ("sim_time_ps", "sequence", "kind")

# one JSONEncoder.encode call is what json.dumps makes with these arguments
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_MAX_SHAPES = 256
_CHUNK_RECORDS = 4096

# key shape -> formatter(record) -> canonical line with its "\n"
_formatters: dict = {}


def _line(record: dict) -> str:
    return _dumps(record) + "\n"


def _bool(value) -> str:
    return "true" if value is True else "false" if value is False else _dumps(value)


def _strings(value) -> str:
    if type(value) is list:
        try:
            return "[" + ",".join(map(_esc, value)) + "]"
        except TypeError:  # an element that is not a str
            pass
    return _dumps(value)


def _counts(value) -> str:
    if type(value) is dict:
        try:
            pairs = [f"{_esc(key)}:{count}" for key, count in sorted(value.items())
                     if type(count) is int]
        except TypeError:  # a key that is not a str
            pass
        else:
            if len(pairs) == len(value):
                return "{" + ",".join(pairs) + "}"
    return _dumps(value)


# type of a slot's value in the first record of a shape -> the function that
# writes the slot's value in every record of that shape (int and str slots
# are written inline, any other type by _dumps)
_WRITERS = {bool: _bool, list: _strings, dict: _counts}


def _generate(shape: tuple, values) -> Callable[[dict], str]:
    """The formatter for records of key shape `shape` (all str keys), each
    value typed as in `values`, the first record seen of that shape."""
    names = [f"v{i}" for i in range(len(shape))]
    checks, pieces = [], {}
    for key, name, value in zip(shape, names, values):
        if type(value) is int:
            checks.append(f"type({name}) is int")
            pieces[key] = name
        elif type(value) is str:
            pieces[key] = f"_esc({name})"
        elif type(value) in _WRITERS:
            pieces[key] = f"{_WRITERS[type(value)].__name__}({name})"
        else:
            pieces[key] = f"_dumps({name})"
    line = " ".join([repr(("," if i else "{") + _esc(key) + ":")
                     + f" f'{{{pieces[key]}}}'" for i, key in enumerate(sorted(shape))]
                    + [repr("}\n")])
    source = ("def format(record):\n"
              f"    {', '.join(names)}, = record.values()\n"
              f"    if {' and '.join(checks) or 'True'}:\n"
              "        try:\n"
              f"            return {line}\n"
              "        except TypeError:\n"
              "            pass\n"
              "    return _line(record)\n")
    namespace = {"_esc": _esc, "_dumps": _dumps, "_line": _line,
                 **{writer.__name__: writer for writer in _WRITERS.values()}}
    exec(source, namespace)
    return namespace["format"]


def _formatter(record: dict) -> Callable[[dict], str]:
    """The formatter for the key shape of `record`, generated and cached on
    first sight of the shape (evicting the oldest past _MAX_SHAPES)."""
    shape = tuple(record)
    formatter = _formatters.get(shape)
    if formatter is None:
        if shape and all(type(key) is str for key in shape):
            formatter = _generate(shape, record.values())
        else:
            formatter = _line
        if len(_formatters) >= _MAX_SHAPES:
            del _formatters[next(iter(_formatters))]
        _formatters[shape] = formatter
    return formatter


def trace_bytes(records: list[dict]) -> bytes:
    out = io.BytesIO()
    get = _formatters.get
    for start in range(0, len(records), _CHUNK_RECORDS):
        chunk = records[start:start + _CHUNK_RECORDS]
        out.write("".join([(get(tuple(r)) or _formatter(r))(r)
                           for r in chunk]).encode("utf-8"))
    return out.getvalue()


def trace_sha256(records: list[dict]) -> str:
    return hashlib.sha256(trace_bytes(records)).hexdigest()


class TraceFormatError(ValueError):
    pass


def parse_record(line: str, lineno: int = 0) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: not valid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise TraceFormatError(f"line {lineno}: record must be an object")
    for key in REQUIRED_FIELDS:
        if key not in record:
            raise TraceFormatError(f"line {lineno}: missing field {key!r}")
    if record["kind"] not in RECORD_KINDS:
        raise TraceFormatError(f"line {lineno}: unknown record kind {record['kind']!r}")
    return record


def parse_trace(text: str) -> list[dict]:
    records = []
    # only "\n" ends a line: JSON strings may hold U+2028, U+0085 and the
    # other characters str.splitlines() also splits on
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        records.append(parse_record(line, lineno))
    return records


def load_trace(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                                   f"{exc.start})") from None
    try:
        return parse_trace(text)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def diff_traces(a: list[dict], b: list[dict]) -> dict:
    """Structural comparison of two traces.

    Returns a summary with the first differing record index, per-side record
    counts, and counts of records by kind present on only one side.
    """
    first_difference = None
    for index, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            first_difference = {"index": index, "a": ra, "b": rb}
            break
    if first_difference is None and len(a) != len(b):
        index = min(len(a), len(b))
        longer, side = (a, "a") if len(a) > len(b) else (b, "b")
        first_difference = {"index": index, side: longer[index]}
    return {
        "identical": first_difference is None,
        "records_a": len(a),
        "records_b": len(b),
        "first_difference": first_difference,
    }
