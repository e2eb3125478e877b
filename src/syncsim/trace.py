"""Trace record serialization: one canonical JSON object per line.

All times and delays in a trace are integer picoseconds and keys are
sorted, so the byte stream for a (scenario, seed) pair is identical across
runs and platforms and can be compared by hash.

The canonical line of a record is exactly
`json.dumps(record, sort_keys=True, separators=(",", ":"))` (ASCII escapes)
followed by a newline.  Those bytes come from one formatter per key shape
(the record's keys in insertion order), generated as source the way
`namedtuple` builds its methods and cached.  A formatter unpacks the
record's values, checks in one test that every value first seen as an
exact int or str still is one, and fills a `%` template holding the
escaped `{"key":` / `,"key":` prefixes in sorted key order: `%d` for ints,
the escaped string for strs, and `json.dumps` of the value for any other
type.  Keys enter the source only as `repr()` literals, never values.  A
record that fails the test, has no keys or holds a non-str key goes
through that `json.dumps` call whole.  `trace_bytes` writes the lines
chunk by chunk into one buffer, so no str of the whole trace is built.
"""

import hashlib
import io
import json
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

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


def _generate(shape: tuple, values) -> Callable[[dict], str]:
    """The formatter for records of key shape `shape` (all str keys), each
    value typed as in `values`, the first record seen of that shape."""
    names = [f"v{i}" for i in range(len(shape))]
    checks, fields = [], {}
    for key, name, value in zip(shape, names, values):
        if type(value) is int:
            checks.append(f"type({name}) is int")
            fields[key] = ("%d", name)
        elif type(value) is str:
            checks.append(f"type({name}) is str")
            fields[key] = ("%s", f"_esc({name})")
        else:
            fields[key] = ("%s", f"_dumps({name})")
    keys = sorted(shape)
    template = "".join(("," if i else "{") + encode_basestring_ascii(key).replace("%", "%%")
                       + ":" + fields[key][0] for i, key in enumerate(keys)) + "}\n"
    source = ("def format(record):\n"
              f"    {', '.join(names)}, = record.values()\n"
              f"    if {' and '.join(checks) or 'True'}:\n"
              f"        return {template!r} % ({', '.join(fields[key][1] for key in keys)},)\n"
              "    return _line(record)\n")
    namespace = {"_esc": encode_basestring_ascii, "_dumps": _dumps, "_line": _line}
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


def format_record(record: dict) -> str:
    return _formatter(record)(record)[:-1]


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
