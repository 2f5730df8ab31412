"""Project-wide numerical policy: caps, tolerances and the RNG scheme.

Every random draw in the library flows through :func:`rng_for_stream`, so a
(seed, stream_index) pair pins the full sequence of results bit-for-bit on
any platform. Parallel work (Monte-Carlo replicas, multi-seed solver runs)
uses disjoint stream indices and merges results in stream order.

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

import numpy as np

from .errors import ValidationError

# Version of the way draws consume a random stream (see the module docstring).
RNG_SCHEME = 2

# Kinds with exponential support enumerate only up to this ground-set size.
ENUMERATION_CAP = 16

# Hard ceiling on the number of support sets any enumeration may produce
# (guards product/intersection/convex-combination blowups).
MAX_ENUM_SUPPORT = 1 << 20

# Largest n for which dense eigenvalue work (and explicit A^T A) is allowed.
DENSE_EIG_CAP = 4096

# Probability mass must sum to one within this.
PROB_SUM_TOL = 1e-12

# Stepsize entries for empty columns are floored at this so v > 0 holds.
V_FLOOR = 1e-12

# Power-method defaults; the safeguarded estimate is rayleigh * safeguard.
POWER_ITERATIONS = 10
POWER_SAFEGUARD = 1.01

_MASK64 = (1 << 64) - 1


def rng_for_stream(seed: int, stream_index: int = 0) -> np.random.Generator:
    """Deterministic PCG64 generator for (seed, stream_index).

    Streams are separated through the SeedSequence spawn key, so replicas
    with distinct stream indices are statistically independent while staying
    reproducible.
    """
    if stream_index < 0:
        raise ValidationError("stream_index", "must be nonnegative")
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(stream_index,))
    return np.random.default_rng(ss)
