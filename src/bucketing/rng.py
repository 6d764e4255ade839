"""Deterministic, order-independent random stream derivation.

Every randomized operation in the package takes an explicit 64-bit seed and
derives independent sub-streams by hashing ``(seed, purpose_tag, index...)``
with SHA-256.  The first 128 bits of the digest are the entropy of numpy's
PCG64, so results never depend on the order in which sub-streams are
consumed.

derive_rng builds one stream through numpy's own SeedSequence and PCG64.
Loops that need thousands of streams call derive_states instead, which
hashes each key the same way, repeats SeedSequence's pool mixing and
generate_state on arrays, one uint32 lane per stream, and repeats PCG64's
seeding step on Python ints.  Each state it returns is the one that
derive_rng's stream starts in, bit for bit, so a loop can load it into a
Generator that it reuses (``gen.bit_generator.state = state``).
"""

import hashlib

import numpy as np

# numpy.random.SeedSequence's hash constants for its pool of four uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _entropy(seed: int, tags) -> bytes:
    """The 16 low bytes of SHA-256 over (seed, *tags): the little-endian
    PCG64 entropy of the stream."""
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(8, "little", signed=False))
    for tag in tags:
        if isinstance(tag, str):
            h.update(b"s" + tag.encode("utf-8") + b"\x00")
        else:
            h.update(b"i" + int(tag).to_bytes(8, "little", signed=True))
    return h.digest()[:16]


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the sub-stream identified by (seed, *tags).

    Tags may be strings or integers; the same tuple always yields the same
    stream, on any platform.
    """
    entropy = int.from_bytes(_entropy(seed, tags), "little")
    return np.random.default_rng(np.random.PCG64(entropy))


def _hash_steps(init: int, mult: int):
    """SeedSequence's running hash constant around each of its hash steps,
    as (before, after) pairs; the sequence does not depend on the data."""
    h = init
    while True:
        after = h * mult & 0xFFFFFFFF
        yield h, after
        h = after


def _hashmix(value: np.ndarray, step) -> np.ndarray:
    before, after = step
    value = (value ^ before) * after
    return value ^ value >> 16


def _pcg64_states(entropy: bytes) -> list:
    """PCG64(e).state for each 16-byte little-endian entropy e in `entropy`.

    SeedSequence(e) reads e as uint32 words, low word first, without its
    leading zero words, and pads its pool of four with hashes of 0, so every
    e below 2^128 mixes as its four words.  PCG64 takes generate_state(4,
    uint64) as (seed high, seed low, increment high, increment low) and
    steps its LCG twice from 0, adding the seed in between.
    """
    words = np.frombuffer(entropy, dtype="<u4").reshape(-1, 4).T.astype(np.uint32)
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(w, next(steps)) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * _hashmix(pool[src], next(steps)))
                pool[dst] = mixed ^ mixed >> 16
    steps = _hash_steps(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % 4], next(steps)).astype(np.uint64)
           for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[2 * i] | out[2 * i + 1] << np.uint64(32)).tolist()
        for i in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def derive_states(keys) -> list:
    """The bit-generator state that derive_rng(seed, *tags) starts in, for
    each (seed, *tags) tuple in `keys`, derived in one batch.

    Assigning a state to a Generator's bit_generator.state turns it into
    that stream; has_uint32 is 0, so a 32-bit value that an earlier stream
    left buffered is dropped.
    """
    return _pcg64_states(b"".join(_entropy(key[0], key[1:]) for key in keys))
