"""Counter-based keyed random streams.

Every random quantity in a run (a clock's clock_noise and clock_jitter
draws, router failure flags, attack drops) is drawn from its own stream
keyed by the global seed plus entity identifiers, never from a shared
sequential generator.  Adding a new consumer therefore never perturbs
existing draws, which is what makes attack/no-attack trace comparisons
byte-stable.

Draws are derived from BLAKE2b digests of a canonical key encoding, so they
are identical across platforms and Python versions.  `_encode` writes one
chunk per key part, so a stream's prefix (seed, stream tag, entity) is
hashed once into a state that `draw` copies and extends with the tail;
an exact int in the tail takes its chunk header from a table built at
import (`_INT_HEADERS`), so a draw encodes only the int's own bytes.
Every clock and flag draw has a tail of one exact int of at most 256
bits, the instant, so it costs one copy, one update and one digest (two
digests for a Gaussian).
Every stream on the run path is held by its owner, built once from
`stream`: each `SoftwareClock` holds its clock_noise and clock_jitter
states, and each `NetworkView` the router_flag state of every router a
failure model can take down and the ddos_drop state of its drop rolls.
`u64` hashes a whole key; every held draw must equal it bit for bit.
"""

import hashlib
import math
import struct

_TWO53 = float(1 << 53)
_TWO64 = float(1 << 64)


def _encode(parts: tuple) -> bytes:
    chunks = []
    for part in parts:
        if isinstance(part, bool):
            chunks.append(b"b" + (b"\x01" if part else b"\x00"))
        elif isinstance(part, int):
            raw = part.to_bytes((part.bit_length() + 8) // 8 + 1, "big", signed=True)
            chunks.append(b"i" + len(raw).to_bytes(2, "big") + raw)
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            chunks.append(b"s" + len(raw).to_bytes(4, "big") + raw)
        elif isinstance(part, float):
            chunks.append(b"f" + struct.pack(">d", part))
        elif isinstance(part, (tuple, list)):
            inner = _encode(tuple(part))
            chunks.append(b"t" + len(inner).to_bytes(4, "big") + inner)
        else:
            raise TypeError(f"unsupported key part type: {type(part)!r}")
    return b"".join(chunks)


_GAUSSIAN_TAILS = (_encode((0,)), _encode((1,)))  # the two draws of a Gaussian

# _encode's chunk header of an int whose bytes number `size`, for every
# size up to that of a 256-bit int; `_extend` reads it from here
_INT_HEADERS = tuple(b"i" + size.to_bytes(2, "big") for size in range(34))
_INT_SIZES = len(_INT_HEADERS)


def stream(seed: int, *key):
    """BLAKE2b state after hashing _encode((seed,) + key): the prefix state
    a stream owner holds and passes to `draw`."""
    return hashlib.blake2b(_encode((seed,) + key), digest_size=8)


def _extend(prefix, tail: tuple):
    """A copy of `prefix` updated with _encode(tail), exact ints of up to
    256 bits encoded inline under their header from `_INT_HEADERS`."""
    state = prefix.copy()
    for part in tail:
        if type(part) is int and (size := (part.bit_length() + 8) // 8 + 1) < _INT_SIZES:
            state.update(_INT_HEADERS[size] + part.to_bytes(size, "big", signed=True))
        else:
            state.update(_encode((part,)))
    return state


def draw(prefix, *tail) -> int:
    """Uniform 64-bit integer of the key whose encoding `prefix` has hashed,
    extended by `tail`.  `prefix` is not mutated."""
    return int.from_bytes(_extend(prefix, tail).digest(), "big")


def u64(seed: int, *key) -> int:
    """Uniform 64-bit integer for (seed, key): BLAKE2b of _encode((seed,) + key)."""
    return draw(stream(seed, *key))


def draw_bernoulli(prefix, probability: float, *tail) -> bool:
    """True with the given probability, drawn from the key `prefix` has
    hashed, extended by `tail`: the draw's top 53 bits over 2^53 fall below
    it.  p=0 never and p=1 always, without a draw."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return (int.from_bytes(_extend(prefix, tail).digest(), "big") >> 11) / _TWO53 < probability


def draw_gaussian(prefix, *tail) -> float:
    """Standard normal draw: Box-Muller of the draws of the key `prefix` has
    hashed, extended by `tail` and then by 0 and by 1.  The tail is hashed
    once and the state copied for the two constant last chunks."""
    state = _extend(prefix, tail)
    first = state.copy()
    first.update(_GAUSSIAN_TAILS[0])
    state.update(_GAUSSIAN_TAILS[1])
    u1 = (int.from_bytes(first.digest(), "big") + 1) / _TWO64  # (0, 1]
    u2 = int.from_bytes(state.digest(), "big") / _TWO64        # [0, 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
