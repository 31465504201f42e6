"""Deterministic random-number streams for replicated experiments.

Every randomized routine in this package takes a numpy Generator.  For
replicated runs, each replicate gets its own stream derived from the
master seed and the replicate index, so results are independent of
execution order, and any single replicate can be re-created in
isolation with substream(seed, i).

Replicated experiments draw those streams in batch: substream_uniforms
returns many replicates' first m uniforms as one array, and its row for
index i equals substream(seed, i).random(m) bit for bit.  It seeds all
replicates at once by redoing numpy's SeedSequence entropy mixing and
the PCG64 seeding step (O'Neill 2014) on arrays, then lets numpy draw
each row from the seeded state.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["MAX_SEED", "validate_seed", "substream", "substream_uniforms"]

MAX_SEED = 2**64 - 1


def validate_seed(seed: int) -> int:
    """Check that a seed is an unsigned 64-bit integer and return it."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**64 - 1], got {seed!r}")
    return seed


def _validate_part(part: int) -> int:
    if isinstance(part, bool) or not isinstance(part, int) or part < 0:
        raise ValueError(f"substream path parts must be nonnegative ints, got {part!r}")
    return part


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for one replicate, reproducible from (seed, path) alone.

    Same (master_seed, path) always yields the same stream; different
    paths yield statistically independent streams.
    """
    validate_seed(master_seed)
    for part in path:
        _validate_part(part)
    return np.random.default_rng(np.random.SeedSequence([master_seed, *path]))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence's default pool size, in uint32 words


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of `count` successive hashes.

    SeedSequence multiplies its hash constant by `mult` at every hash,
    whatever the data, so the whole chain is known in advance.  Returned
    as (count, 1) columns that broadcast over sequences.
    """
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# Pool mixing hashes _POOL entropy words, then each word into the other three.
_MIX_XOR, _MIX_MUL = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
# generate_state(4, uint64) hashes 8 words, cycling through the pool.
_OUT_XOR, _OUT_MUL = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, uint64) for each column.

    `entropy` is a (_POOL, n) uint32 array, one column of zero-padded
    entropy words per sequence: numpy hashes a missing word as a zero, so
    padding changes nothing.  The hash constants do not depend on the
    data, so all columns mix in lockstep, and one source word's three
    hashes into the other pool words are independent of each other.
    Returns the (n, 4) uint64 words.
    """
    pool = _hash(entropy, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    for i_src in range(_POOL):
        dst = [i for i in range(_POOL) if i != i_src]
        at = slice(_POOL + len(dst) * i_src, _POOL + len(dst) * (i_src + 1))
        pool[dst] = _mix(pool[dst], _hash(pool[i_src], _MIX_XOR[at], _MIX_MUL[at]))
    words = _hash(np.concatenate((pool, pool)), _OUT_XOR, _OUT_MUL).astype(np.uint64)
    # Pairs of words read as little-endian uint64s.
    return (words[0::2] | (words[1::2] << np.uint64(32))).T


def substream_uniforms(master_seed: int, indices: Iterable[int], m: int) -> np.ndarray:
    """substream(master_seed, i).random(m) for every i in indices, as rows.

    Returns the (len(indices), m) float64 array whose row r equals
    substream(master_seed, indices[r]).random(m) bit for bit.  Indices
    follow substream's rules for path parts and must also lie below
    2**64; a larger index raises ValueError rather than yield another
    stream.
    """
    validate_seed(master_seed)
    indices = [_validate_part(i) for i in indices]
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"m must be a nonnegative int, got {m!r}")
    if any(i > MAX_SEED for i in indices):
        raise ValueError(f"substream_uniforms indices must lie below 2**64, got {max(indices)!r}")
    out = np.empty((len(indices), m))
    if not indices:
        return out

    # Entropy words as SeedSequence([seed, i]) assembles them: the seed's
    # one or two uint32 words, then the index's, zero-padded to the pool.
    index = np.array(indices, dtype=np.uint64)
    seed_words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy = np.zeros((_POOL, len(index)), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = index & np.uint64(_MASK32)
    entropy[len(seed_words) + 1] = index >> np.uint64(32)

    # PCG64's seeding step: initstate is words 0 (high) and 1, initseq
    # words 2 and 3; inc = 2 * initseq + 1 and state = (inc + initstate)
    # * MULT + inc, mod 2**128.  numpy then draws each row from that state.
    gen = np.random.Generator(np.random.PCG64(0))
    bit_generator = gen.bit_generator
    seeded = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
    for row, (s_hi, s_lo, q_hi, q_lo) in zip(out, _seed_states(entropy).tolist()):
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
        seeded["inc"] = inc
        seeded["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = state
        gen.random(out=row)
    return out
