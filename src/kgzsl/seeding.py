"""Deterministic, portable random streams.

Every stochastic choice in the package flows through a named PCG64
stream derived here.  Seeds are derived with sha256 rather than hash()
because hash() of strings is salted per process and would break
run-to-run reproducibility.
"""

import functools
import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Map an arbitrary tuple of labels to a stable 64-bit seed.

    Parts are stringified and joined with an unlikely separator, so
    ("a", 1) and ("a1",) derive different seeds.
    """
    digest = hashlib.sha256(_label(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(prefixes, lasts):
    """derive_seed(*p, x) for each p in `prefixes`, then each x in `lasts`.

    Prefixes must be non-empty tuples.  Each is joined once, so a run of
    related streams costs one sha256 apiece and no int parsing.

    Returns:
        (len(prefixes) * len(lasts),) uint64 array, prefix-major.
    """
    tails = ["\x1f" + str(x) for x in lasts]
    sha256 = hashlib.sha256
    digests = b"".join(
        sha256((head + tail).encode("utf-8")).digest()[:8]
        for head in map(_label, prefixes)
        for tail in tails
    )
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def _label(parts):
    return "\x1f".join(str(p) for p in parts)


def make_rng(*parts) -> np.random.Generator:
    """Fresh generator for the stream named by `parts`."""
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)
# PCG64's 128-bit LCG multiplier, as an int and as high word, low word
# and the low word's 32-bit limbs
_MUL = 0x2360ED051FC65DA4_4385DF649FCCF645
_MUL_WORDS = tuple(np.uint64(w) for w in (_MUL >> 64, _MUL & (2 ** 64 - 1), 0x4385DF64, 0x9FCCF645))
_M32 = np.uint64(0xFFFFFFFF)
# the most draws one array operation computes
_BLOCK = 256
_S1, _S11, _S32, _S58, _S63, _S64 = (np.uint64(s) for s in (1, 11, 32, 58, 63, 64))


def _hash_constants(init, mult, calls):
    """The xor and multiply constants of SeedSequence's first `calls` hashmixes.

    hashmix xors with its running constant, steps it (const *= mult,
    mod 2**32) and multiplies by the new value, so call j's constants
    are the sequence's terms j and j + 1; neither depends on the data.
    Returned as (calls, 1) uint64 columns.
    """
    terms = [init]
    for _ in range(calls):
        terms.append(terms[-1] * mult & 0xFFFFFFFF)
    column = np.array(terms, dtype=np.uint64)[:, None]
    return column[:-1], column[1:]


# the pool's 4 + 12 hashmixes, and generate_state's 8
_HASH_POOL = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_STATE = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(values, xor, mul):
    value = (values ^ xor) * mul & _M32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> _XSHIFT)


def _seed_state(seeds):
    """SeedSequence(seed).generate_state(4, uint64): four (S,) word arrays.

    A seed's entropy is its little-endian uint32 words; a seed below
    2**32 has one word, and the pool pads the missing high word with a
    zero, so every 64-bit seed hashes as [lo, hi, 0, 0].  The pool's
    mixing loop hashes pool[src] once for each other word, in order,
    and leaves pool[src] itself alone, so each src's three hashes and
    mixes run as one (3, S) step.  The 32-bit words live in uint64
    arrays and every product and difference is masked back to 32 bits,
    so the hash shares the LCG's integer type.
    """
    xor, mul = _HASH_POOL
    words = np.zeros((4, len(seeds)), dtype=np.uint64)
    words[0], words[1] = seeds & _M32, seeds >> _S32
    pool = _hashmix(words, xor[:4], mul[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        at = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[at], mul[at]))
    # generate_state hashes the pool twice over, one half of the state at a time
    xor, mul = _HASH_STATE
    state = []
    for half in (slice(0, 4), slice(4, 8)):
        out = _hashmix(pool, xor[half], mul[half])
        state.extend(out[0::2] | (out[1::2] << _S32))
    return state


def _mulhi(a, b1, b0):
    """High word of the 128-bit product a * b, from 32-bit limbs."""
    a1, a0 = a >> _S32, a & _M32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    return p11 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _add128(hi, lo, add_hi, add_lo):
    low = lo + add_lo
    return hi + add_hi + (low < lo), low


def _mul128(hi, lo, b_hi, b_lo, b_lo1, b_lo0):
    """(hi, lo) * b mod 2**128; b_lo1 and b_lo0 are b_lo's 32-bit limbs."""
    return _mulhi(lo, b_lo1, b_lo0) + hi * b_lo + lo * b_hi, lo * b_lo


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state advance: state * multiplier + inc, mod 2**128."""
    return _add128(*_mul128(hi, lo, *_MUL_WORDS), inc_hi, inc_lo)


@functools.cache
def _jumps():
    """Coefficients (a_k, c_k), k = 1.._BLOCK, of k PCG64 steps at once.

    k steps take a state s to a_k * s + c_k * inc mod 2**128, where
    a_k = multiplier**k and c_k = 1 + multiplier + ... + multiplier**(k-1).
    Each is returned as the four uint64 words `_mul128` takes.
    """
    a, c, terms = 1, 0, []
    for _ in range(_BLOCK):
        a, c = a * _MUL % 2 ** 128, (c * _MUL + 1) % 2 ** 128
        terms.append((a, c))

    def words(values):
        hi = np.array([v >> 64 for v in values], dtype=np.uint64)
        lo = np.array([v % 2 ** 64 for v in values], dtype=np.uint64)
        return hi, lo, lo >> _S32, lo & _M32

    return words([a for a, _ in terms]), words([c for _, c in terms])


def uniform_blocks(seeds, n):
    """Yield the draws of many PCG64 streams a block of draw indices at a time.

    Each block is a (len(seeds), width) float64 array, and the blocks
    side by side are the (len(seeds), n) array whose row i is
    Generator(PCG64(seeds[i])).random(n), bit for bit.  A block holds
    at most _BLOCK draws, or one column if there are more streams.
    SeedSequence hashing, PCG64 seeding, the 128-bit LCG and the XSL-RR
    output all run as uint64 array operations over every stream at
    once, and the LCG jumps a block's width at once: state t + k is
    a_k * state_t + c_k * inc.  A few streams then cost a few dozen
    numpy calls in all, many streams a few dozen per draw, and either
    holds no more than a few arrays of one block's size.  Array
    arithmetic wraps silently, which these hashes rely on; numpy
    scalars would warn on overflow, so every operand is an array or a
    constant combined with one.

    Args:
        seeds: 1-D integers in [0, 2**64).
        n: draws per stream.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = _seed_state(seeds)
    inc_hi = (seq_hi << _S1) | (seq_lo >> _S63)
    inc_lo = (seq_lo << _S1) | _S1
    hi, lo = inc_hi, inc_lo  # the first step from state 0 lands on inc
    hi, lo = _add128(hi, lo, state_hi, state_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    width = max(1, min(n, _BLOCK // max(1, len(seeds))))
    a, c = ([w[:width] for w in words] for words in _jumps())
    shift_hi, shift_lo = _mul128(inc_hi[:, None], inc_lo[:, None], *c)  # c_k * inc
    hi, lo = hi[:, None], lo[:, None]
    for start in range(0, n, width):
        hi, lo = _add128(*_mul128(hi[:, -1:], lo[:, -1:], *a), shift_hi, shift_lo)
        rot = hi >> _S58
        word = hi ^ lo
        word = (word >> rot) | (word << ((_S64 - rot) & _S63))
        yield ((word >> _S11) * 2.0 ** -53)[:, :n - start]
