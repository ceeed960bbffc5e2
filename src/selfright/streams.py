"""numpy's seeded random streams as array arithmetic.

Every perturbed trial, of a sweep or of simulate_roll, draws from its own
stream, Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(cell, t)))).
Building one generator per trial costs far more than the two doubles it
yields, so this module runs SeedSequence's hash and PCG64 for every
trial at once, bitwise equal to numpy's. NEP 19 keeps both streams
stable; PCG64 is O'Neill, PCG (HMC-CS-2014-0905), with the XSL-RR
output. Python ints are masked to their word size; uint32 and uint64
arrays wrap on their own.
"""

from __future__ import annotations

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32, _M64 = 2**32 - 1, 2**64 - 1
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def spawned_doubles(seed: int, cells, trials, n: int) -> np.ndarray:
    """The first n doubles in [0, 1) of every cell's and trial's stream.

    cells and trials are index arrays (each index below 2**32); element
    [k, i, j] is draw k of Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(cells[i], trials[j])))), as Generator.random would return
    it, for n >= 1.
    """
    state = _spawned_state(seed, np.asarray(cells, dtype=np.uint32)[:, None],
                           np.asarray(trials, dtype=np.uint32))
    return _pcg64_doubles(state, n)


def _hash_consts(const: int, mult: int, n: int) -> list[int]:
    """A SeedSequence hash constant and its next n values."""
    consts = [const]
    for _ in range(n):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _hashmix(value, xor_c, mul_c):
    value = (value ^ xor_c) * mul_c & _M32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return r ^ r >> 16


def _column(words: list[int]) -> np.ndarray:
    return np.array(words, dtype=np.uint32).reshape(-1, 1, 1)


def _spawned_state(seed: int, cell: np.ndarray, trial: np.ndarray
                   ) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(cell, trial))
    .generate_state(4, uint64): the four words along a leading axis, each
    broadcast over cell and trial (uint32 arrays, one key word each)."""
    # A spawned sequence pads the seed's words to the pool size, 4. The
    # first four words fill the pool and are mixed pairwise; each later
    # word mixes into every pool word in turn, here into all four at once.
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    c = _hash_consts(_INIT_A, _MULT_A, 4 * len(words) + 8)
    pool = [_hashmix(w, c[i], c[i + 1]) for i, w in enumerate(words[:4])]
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst],
                                 _hashmix(pool[src], c[i], c[i + 1]))
                i += 1
    pool = _column(pool)
    for w in words[4:] + [cell, trial]:
        pool = _mix(pool, _hashmix(w, _column(c[i:i + 4]),
                                   _column(c[i + 1:i + 5])))
        i += 4
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    state = _hashmix(np.concatenate([pool, pool]), _column(b[:8]),
                     _column(b[1:])).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _mul128(hi: np.ndarray, lo: np.ndarray, factors: list[int]
            ) -> tuple[np.ndarray, np.ndarray]:
    """(hi * 2**64 + lo) * f mod 2**128 as (hi, lo) uint64 arrays, with
    a leading axis over the factors f."""
    f_hi, f_lo, b1, b0 = np.array(
        [(f >> 64, f & _M64, f >> 32 & _M32, f & _M32) for f in factors],
        dtype=np.uint64).T[..., None, None]
    a1, a0 = lo >> 32, lo & _M32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + lo * f_hi + hi * f_lo, lo * f_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_doubles(state: np.ndarray, n: int) -> np.ndarray:
    """The first n doubles of Generator(PCG64) seeded with state, the four
    words of generate_state(4, uint64), along a new leading axis."""
    init_hi, init_lo, seq_hi, seq_lo = state
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    # Seeding sets the LCG state to inc + initstate and steps it once;
    # draw k outputs the state k steps on. s steps take x to
    # x * M**s + inc * (1 + M + ... + M**(s - 1)) mod 2**128.
    x = _add128(*inc, init_hi, init_lo)
    steps = range(2, n + 2)
    hi, lo = _add128(
        *_mul128(*x, [pow(_PCG_MULT, s, 2**128) for s in steps]),
        *_mul128(*inc, [sum(pow(_PCG_MULT, j, 2**128) for j in range(s))
                        % 2**128 for s in steps]))
    out, rot = hi ^ lo, hi >> 58  # XSL-RR
    out = out >> rot | out << (64 - rot & 63)
    return (out >> 11) * 2.0**-53  # next_double: the top 53 bits
