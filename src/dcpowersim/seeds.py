"""Deterministic seed derivation for parallel-safe RNG substreams."""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def derive_seed(root: int, *labels: str | int) -> int:
    """Derive a 64-bit substream seed from a root seed and scope labels.

    The derivation is BLAKE2b with an 8-byte digest over the root seed
    (8 bytes big-endian, reduced mod 2**64) followed by every label encoded
    as UTF-8 with a 4-byte length prefix, so distinct label tuples can never
    collide by concatenation. The hash is pure and platform-stable, which
    keeps runs reproducible regardless of process or execution order.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update((int(root) % (1 << 64)).to_bytes(8, "big"))
    for label in labels:
        data = str(label).encode("utf-8")
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return int.from_bytes(h.digest(), "big")


def substream(root: int, *labels: str | int) -> np.random.Generator:
    """Independent PCG64 generator for the given scope: exactly
    ``np.random.default_rng(derive_seed(root, *labels))``."""
    return np.random.default_rng(derive_seed(root, *labels))


def substreams(
    root: int, scope: str, labels: Iterable[str | int]
) -> Iterator[np.random.Generator]:
    """For each label in turn, a generator in the state of
    ``substream(root, scope, label)``, that is of exactly
    ``np.random.default_rng(derive_seed(root, scope, label))``, so it gives
    the same draws.

    Every item is the same Generator object, set to the next label's state
    when the next item is asked for: draw all a label needs before that.
    The labels are all seeded in one vectorized pass, which costs a
    fraction of building one Generator per label.
    """
    seeds = [derive_seed(root, scope, label) for label in labels]
    return _seeded_streams(np.array(seeds, dtype=np.uint64))


def _hashmix(
    value: np.ndarray, hash_const: list[int], mult: int = _MULT_A
) -> np.ndarray:
    """SeedSequence's ``hashmix`` on uint32 words. It multiplies
    ``hash_const[0]`` by ``mult`` on the way; ``generate_state`` runs the
    same steps with its own constants."""
    value = value ^ np.uint32(hash_const[0])
    hash_const[0] = (hash_const[0] * mult) & _MASK32
    value *= np.uint32(hash_const[0])
    value ^= value >> np.uint32(16)
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` on uint32 words."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(16)
    return result


def _seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` for
    each uint64 seed, as an (n, 4) uint64 array.

    A seed is at most two 32-bit words, low first, so it never exceeds the
    pool and pads with zero words, which hash as the pool's zero filler.
    """
    words = [
        (seeds & np.uint64(_MASK32)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
    ]
    words += [np.zeros(seeds.size, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    hash_const = [_INIT_A]
    pool = [_hashmix(w, hash_const) for w in words]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], hash_const))
    state = np.empty((seeds.size, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = [_INIT_B]
    for i in range(2 * _POOL_SIZE):
        state[:, i] = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
    # word pairs, low first, as numpy reads them on any platform
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seeded_streams(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each uint64 seed in turn, as one
    reused Generator set to each seed's PCG64 state."""
    states = _seed_sequence_states(seeds)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for row in states:
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        # pcg64_set_seed: two LCG steps from state 0 with the initial
        # state added between them
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = (((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT) + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
