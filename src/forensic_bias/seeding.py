"""Deterministic random-number streams for replicated experiments.

Every randomized routine in this package takes a numpy Generator.  A
replicated run can give each replicate its own stream derived from the
master seed and the replicate index, so results are independent of
execution order, and any single replicate can be re-created in
isolation with substream(seed, i).

Replicated experiments draw those streams in batch: substream_uniforms
returns the first m uniforms of runs 0..n-1 as one array, and its row i
equals substream(seed, i).random(m) bit for bit.  It seeds all runs at
once by redoing numpy's SeedSequence entropy mixing and the PCG64
seeding step (O'Neill 2014) on arrays.  The draws are then computed on
arrays too: each draw's 128-bit state comes from the seeded state by a
jump-ahead, and the XSL-RR output and numpy's double conversion follow.
"""

from __future__ import annotations

import functools

from ._lazy import np

__all__ = ["MAX_SEED", "validate_seed", "substream", "substream_uniforms"]

MAX_SEED = 2**64 - 1


def validate_seed(seed: int) -> int:
    """Check that a seed is an unsigned 64-bit integer and return it."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**64 - 1], got {seed!r}")
    return seed


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for one replicate, reproducible from (seed, path) alone.

    Same (master_seed, path) always yields the same stream; different
    paths yield statistically independent streams.
    """
    validate_seed(master_seed)
    for part in path:
        if isinstance(part, bool) or not isinstance(part, int) or part < 0:
            raise ValueError(f"substream path parts must be nonnegative ints, got {part!r}")
    return np.random.default_rng(np.random.SeedSequence([master_seed, *path]))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
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


@functools.cache
def _bind_constants() -> None:
    """Bind the draws' numpy constants once, at the first draw or float_text's import of some."""
    global _MIX_MULT_L, _MIX_MULT_R, _XSHIFT, _MIX_XOR, _MIX_MUL, _OUT_XOR, _OUT_MUL, _LIMB, _U1, _U11, _U32, _U58, _U63
    _MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
    _XSHIFT = np.uint32(16)
    # Pool mixing hashes _POOL entropy words, then each word into the other three.
    _MIX_XOR, _MIX_MUL = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
    # generate_state(4, uint64) hashes 8 words, cycling through the pool.
    _OUT_XOR, _OUT_MUL = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    _LIMB = np.uint64(_MASK32)
    _U1, _U11, _U32, _U58, _U63 = (np.uint64(b) for b in (1, 11, 32, 58, 63))


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


# Values per block of rows in _draw_by_jump: its ≈10 uint64 temporaries of
# a block stay at 64 kB each, whatever the row count.  Blocks of 8,192
# values beat fixed blocks of 256, 512 and 1,024 rows at (1,000, 11),
# (1,000, 31) and (5,000, 11) rows and draws.
_BLOCK_VALUES = 8192
_MASK64 = 2**64 - 1


def _jump_constants(m: int) -> np.ndarray:
    """PCG64's jump-ahead coefficients for the first m draws after seeding.

    Seeding leaves the state MULT * (initstate + inc) + inc, and every
    draw steps the state before it reads it, so draw j (from 1) reads
    A_j * initstate + B_j * inc, mod 2**128, with A_j = MULT**(j+1) and
    B_j = MULT**0 + ... + MULT**(j+1).  Returns the (2, 4, m) uint64
    array of A's and B's (hi, lo, lo's low 32 bits, lo's high 32 bits)
    words.  Building it costs ≈35 µs at m = 11, so it is not cached.
    """
    powers, sums = [], []
    power, total = _PCG64_MULT, 1 + _PCG64_MULT
    for _ in range(m):
        power = power * _PCG64_MULT & _MASK128
        total = (total + power) & _MASK128
        powers.append(power)
        sums.append(total)
    hi = np.array([[c >> 64 for c in row] for row in (powers, sums)], dtype=np.uint64)
    lo = np.array([[c & _MASK64 for c in row] for row in (powers, sums)], dtype=np.uint64)
    return np.stack((hi, lo, lo & _LIMB, lo >> _U32), axis=1)


def _mulhi(c0: np.ndarray, c1: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product c * x, from 32-bit limbs c1:c0 and x1:x0."""
    low, cross_1, cross_2 = c0 * x0, c0 * x1, c1 * x0
    mid = (low >> _U32) + (cross_1 & _LIMB) + (cross_2 & _LIMB)
    return c1 * x1 + (cross_1 >> _U32) + (cross_2 >> _U32) + (mid >> _U32)


def _draw_by_jump(out: np.ndarray, words: np.ndarray) -> None:
    """Fill out's (n, m) rows with the PCG64 draws of the (n, 4) seeded words, on arrays.

    The 128-bit states are (hi, lo) uint64 pairs, every draw's state of a
    row comes from the seeded state by _jump_constants, and the uint64
    arithmetic wraps mod 2**64 as PCG64's does.
    """
    (a_hi, a_lo, a0, a1), (b_hi, b_lo, b0, b1) = _jump_constants(out.shape[1])
    block = max(1, _BLOCK_VALUES // out.shape[1])
    for start in range(0, len(out), block):
        # Each word as a (block, 1) column, broadcast against the (m,) constants.
        s_hi, s_lo, q_hi, q_lo = words[start : start + block, :, None].transpose(1, 0, 2)
        # PCG64's seeding step: initstate is words 0 (high) and 1, initseq
        # words 2 and 3, and inc = 2 * initseq + 1, mod 2**128.
        inc_hi, inc_lo = (q_hi << _U1) | (q_lo >> _U63), (q_lo << _U1) | _U1
        lo_a = a_lo * s_lo
        lo = lo_a + b_lo * inc_lo
        hi = (
            _mulhi(a0, a1, s_lo & _LIMB, s_lo >> _U32)
            + _mulhi(b0, b1, inc_lo & _LIMB, inc_lo >> _U32)
            + a_lo * s_hi
            + a_hi * s_lo
            + b_lo * inc_hi
            + b_hi * inc_lo
            + (lo < lo_a)  # the carry out of the low words' sum
        )
        # XSL-RR output, then numpy's random(): the top 53 bits times 2**-53.
        xored, rot = hi ^ lo, hi >> _U58
        draws = (xored >> rot) | (xored << ((-rot) & _U63))
        np.multiply(draws >> _U11, 2.0**-53, out=out[start : start + block])


def substream_uniforms(master_seed: int, n: int, m: int) -> np.ndarray:
    """substream(master_seed, i).random(m) for runs i = 0..n-1, as rows.

    Returns the (n, m) float64 array whose row i equals
    substream(master_seed, i).random(m) bit for bit, so any one run can
    still be re-created alone with substream(master_seed, i).  n and m
    must be nonnegative ints.
    """
    validate_seed(master_seed)
    for name, count in (("n", n), ("m", m)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
            raise ValueError(f"{name} must be a nonnegative int, got {count!r}")
    out = np.empty((n, m))
    if not out.size:
        return out
    _bind_constants()
    index = np.arange(n, dtype=np.uint64)
    # Entropy words as SeedSequence([seed, i]) assembles them: the seed's
    # one or two uint32 words, then the index's, zero-padded to the pool.
    seed_words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy = np.zeros((_POOL, n), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = index & np.uint64(_MASK32)
    entropy[len(seed_words) + 1] = index >> np.uint64(32)
    _draw_by_jump(out, _seed_states(entropy))
    return out
