"""Trace record serialization: one canonical JSON object per line.

All times and delays in a trace are integer picoseconds and keys are
sorted, so the byte stream for a (scenario, seed) pair is identical across
runs and platforms and can be compared by hash.

The canonical line of a record is exactly
`json.dumps(record, sort_keys=True, separators=(",", ":"))` (ASCII escapes)
followed by a newline.  `format_record` emits those same bytes without
calling `json.dumps` per record: it caches one plan per key shape (the
record's keys in insertion order), holding the keys in sorted order, each
with its escaped `{"key":` or `,"key":` prefix, and writes int, str and
list-of-str values directly.  Any other value, and any record with no keys
or a non-str key, still goes through that `json.dumps` call.
"""

import functools
import hashlib
import json
from json.encoder import encode_basestring_ascii

RECORD_KINDS = ("message_send", "hop_arrival", "delivery", "timeout",
                "sync_step", "attack_edge")

REQUIRED_FIELDS = ("sim_time_ps", "sequence", "kind")


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=256)
def _plan(keys: tuple) -> tuple | None:
    """(key, prefix) pairs in sorted key order, or None when `keys` is empty
    or holds a non-str key."""
    if not keys or any(type(key) is not str for key in keys):
        return None
    return tuple((key, ("," if i else "{") + encode_basestring_ascii(key) + ":")
                 for i, key in enumerate(sorted(keys)))


def format_record(record: dict) -> str:
    plan = _plan(tuple(record))
    if plan is None:
        return _dumps(record)
    parts = []
    for key, prefix in plan:
        value = record[key]
        value_type = type(value)  # exact: bool and other subclasses fall through
        if value_type is int:
            parts.append(prefix + int.__repr__(value))
        elif value_type is str:
            parts.append(prefix + encode_basestring_ascii(value))
        elif value_type is list and all(type(item) is str for item in value):
            parts.append(prefix + "[" + ",".join(map(encode_basestring_ascii, value)) + "]")
        else:
            parts.append(prefix + _dumps(value))
    parts.append("}")
    return "".join(parts)


def format_trace(records: list[dict]) -> str:
    return "".join([format_record(r) + "\n" for r in records])


def trace_bytes(records: list[dict]) -> bytes:
    return format_trace(records).encode("utf-8")


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
    for lineno, line in enumerate(text.splitlines(), start=1):
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
