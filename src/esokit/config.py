"""Project-wide numerical policy: caps, tolerances and the RNG scheme.

Every random draw in the library flows through the generator of
:func:`rng_for_stream`, so a (seed, stream_index) pair pins the full sequence
of results bit-for-bit on any platform. Parallel work (Monte-Carlo replicas,
multi-seed solver runs) uses disjoint stream indices and merges results in
stream order. :func:`rngs_for_streams` builds a batch of streams' generators
in one pass, mixing the seed once and the streams' spawn keys as arrays; its
generators' states, and so their draws, are the same, bit for bit, as
:func:`rng_for_stream`'s, so it leaves the RNG scheme unchanged.

``RNG_SCHEME`` versions how draws consume a stream, and CLI reports record
it. Scheme 2 draws in blocks: one vectorized call per kind draws many sets
of a stream at once, e.g. tau rounds of Fisher-Yates swap positions for a
chunk of tau-nice sets, or one sized ``rng.choice`` for a serial or
explicit sampling. ``samplings._draw_blocks`` draws the sets of many streams
in one pass (``samplings.draw_sets`` all its streams, the solver 64 sets for
each active run) and returns them as CSR index lists; each stream's
generator makes exactly the calls it would make alone, so batching and the
set layout leave scheme 2 unchanged. Scheme 1 drew one set at a time, so
the same seed gives other sets under scheme 2.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError, _is_int

# Version of the way draws consume a random stream (see the module docstring).
RNG_SCHEME = 2

# Kinds with exponential support enumerate only up to this ground-set size.
ENUMERATION_CAP = 16

# Hard ceiling on the number of support sets any enumeration may produce
# (guards product/intersection/convex-combination blowups).
MAX_ENUM_SUPPORT = 1 << 20

# Largest n for which dense eigenvalue work (and explicit A^T A) is allowed.
DENSE_EIG_CAP = 4096

# Above this order, spectral._extreme proves the extreme eigenvalue of a
# dense symmetric matrix (certify's margin, the dense lambda', the smallest
# Gram eigenvalue) from Lanczos steps and one Cholesky factorization, in
# place of a full eigvalsh; at or below it, eigvalsh runs.
CERTIFIED_EIG_ORDER = 512

# Lanczos steps before that proof gives up and eigvalsh runs instead, and
# the relative accuracy (against the largest Ritz value in magnitude) at
# which its Ritz value counts as converged.
LANCZOS_STEPS = 200
LANCZOS_RTOL = 1e-10

# Probability mass must sum to one within this.
PROB_SUM_TOL = 1e-12

# Stepsize entries for empty columns are floored at this so v > 0 holds.
V_FLOOR = 1e-12

# Power-method defaults; the safeguarded estimate is rayleigh * safeguard.
POWER_ITERATIONS = 10
POWER_SAFEGUARD = 1.01

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def rng_for_stream(seed: int, stream_index: int = 0) -> np.random.Generator:
    """Deterministic PCG64 generator for (seed, stream_index).

    Streams are separated through the SeedSequence spawn key, so replicas
    with distinct stream indices are statistically independent while staying
    reproducible. A negative seed is taken modulo 2**64; a fractional or
    bool seed or stream index is refused, not truncated.
    """
    ss = np.random.SeedSequence(entropy=_seed_word(seed), spawn_key=(_stream_index(stream_index),))
    return np.random.default_rng(ss)


def _seed_word(seed) -> int:
    if not _is_int(seed):
        raise ValidationError("rng_seed", f"must be an integer, got {seed!r}")
    return int(seed) & _MASK64


def _stream_index(index) -> int:
    if not (_is_int(index) and index >= 0):
        raise ValidationError("stream_index", f"must be nonnegative and an integer, got {index!r}")
    return int(index)


def rngs_for_streams(seed: int, streams) -> list[np.random.Generator]:
    """A generator for each of ``streams``, built in one pass.

    Each generator's state, and so every draw, is bit-identical to that of
    ``rng_for_stream(seed, s)``. The SeedSequence pool of ``seed`` is mixed
    once; each stream's spawn words are mixed into it and its four PCG64
    seed words generated by uint64 array arithmetic over all streams at
    once, and each PCG64 is seeded from its precomputed words. Such
    generators match only in state: they hold no numpy SeedSequence, so
    they can be neither spawned nor pickled. A lone stream, and any batch
    holding an index of 2**32 or above (two or more spawn words), goes
    through :func:`rng_for_stream`.
    """
    word = _seed_word(seed)
    streams = [_stream_index(s) for s in streams]
    if not streams:
        return []
    if len(streams) == 1 or max(streams) > _MASK32:
        return [rng_for_stream(seed, s) for s in streams]
    pool = _seed_pool(word)
    spawned = _spawn(pool, np.array(streams, dtype=np.uint64))
    states = np.stack(_pcg64_words(spawned), axis=1)
    seeded = _seeded_words_class()
    return [np.random.Generator(np.random.PCG64(seeded(words))) for words in states]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool size 4),
# written so one code path runs on the seed's Python ints and on the
# streams' uint64 arrays of 32-bit values: a product of two 32-bit values
# fits in 64 bits, and every
# result is reduced mod 2**32 (a wrapped uint64 difference keeps its low
# 32 bits). The multiplier of the k-th hashmix call is fixed, so all are
# tabled up front: call k xors with _HASH_A[k] and multiplies by
# _HASH_A[k + 1]; state word k does the same with _HASH_B. A pool takes 16
# calls and the one spawn word 4; PCG64 takes 8 state words.
_HASH_A = [0x43B0D7E5]
for _ in range(20):
    _HASH_A.append(_HASH_A[-1] * 0x931E8875 & _MASK32)
_HASH_B = [0x8B51F9DD]
for _ in range(8):
    _HASH_B.append(_HASH_B[-1] * 0x58F38DED & _MASK32)
del _


def _hashmix(value, call: int):
    value = (value ^ _HASH_A[call]) * _HASH_A[call + 1] & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ (value >> 16)


def _seed_pool(entropy: int) -> list[int]:
    """The pool after SeedSequence has mixed in ``entropy`` (below 2**64),
    zero-padded to the pool size as it is whenever a spawn key is given."""
    pool = [_hashmix(word, call) for call, word in enumerate((entropy & _MASK32, entropy >> 32, 0, 0))]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    return pool


def _spawn(pool: list, word: np.ndarray) -> list:
    """Mix an array of one-word spawn keys (each below 2**32) into a copy
    of a seed pool."""
    return [_mix(pool[dst], _hashmix(word, 16 + dst)) for dst in range(4)]


def _pcg64_words(pool: list) -> list:
    """SeedSequence.generate_state(4, uint64) of a mixed pool."""
    state = []
    for k in range(8):
        value = (pool[k % 4] ^ _HASH_B[k]) * _HASH_B[k + 1] & _MASK32
        state.append(value ^ (value >> 16))
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


@functools.cache
def _seeded_words_class():
    """An ISeedSequence that hands PCG64 four precomputed seed words.

    Made on first use: subclassing ISeedSequence imports numpy.random,
    which ``import esokit`` does not otherwise pay for.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeededWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly generate_state(4, np.uint64); these
            # words answer nothing else.
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeededWords holds only PCG64's four uint64 seed words")
            return self.words

    return SeededWords
