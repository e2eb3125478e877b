"""Counter-based keyed random streams.

Every random quantity in a run (clock noise, router failure flags, attack
drops, GNSS jitter) is drawn from its own stream keyed by the global seed
plus entity identifiers, never from a shared sequential generator.  Adding a
new consumer therefore never perturbs existing draws, which is what makes
attack/no-attack trace comparisons byte-stable.

Draws are derived from BLAKE2b digests of a canonical key encoding, so they
are identical across platforms and Python versions.
"""

import functools
import hashlib
import math
import struct

_TWO53 = float(1 << 53)
_TWO64 = float(1 << 64)
_EXACT_KEY_TYPES = frozenset((str, int))  # types whose equal values encode equally


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


@functools.lru_cache(maxsize=4096)
def _prefix_state(prefix: tuple):
    """BLAKE2b state after hashing _encode(prefix); callers copy it."""
    return hashlib.blake2b(_encode(prefix), digest_size=8)


def u64(seed: int, *key) -> int:
    """Uniform 64-bit integer for (seed, key).

    The digest is BLAKE2b of _encode((seed,) + key).  _encode concatenates
    one chunk per part, so the state after the prefix (seed, stream tag,
    entity) is hashed once and copied.  Only str and int prefix parts are
    cached: equal values of those types encode equally, while 1 == 1.0 ==
    True and 0.0 == -0.0 do not.
    """
    prefix = (seed,) + key[:2]
    if _EXACT_KEY_TYPES.issuperset(map(type, prefix)):
        state = _prefix_state(prefix).copy()
        state.update(_encode(key[2:]))
    else:
        state = hashlib.blake2b(_encode((seed,) + key), digest_size=8)
    return int.from_bytes(state.digest(), "big")


def uniform(seed: int, *key) -> float:
    """Uniform float in [0, 1)."""
    return (u64(seed, *key) >> 11) / _TWO53


def bernoulli(seed: int, probability: float, *key) -> bool:
    """True with the given probability; p=0 never, p=1 always."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return uniform(seed, *key) < probability


def gaussian(seed: int, sigma: float, *key) -> float:
    """Zero-mean normal draw with standard deviation sigma (Box-Muller)."""
    if sigma == 0.0:
        return 0.0
    u1 = (u64(seed, *key, 0) + 1) / _TWO64  # (0, 1]
    u2 = u64(seed, *key, 1) / _TWO64        # [0, 1)
    return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
