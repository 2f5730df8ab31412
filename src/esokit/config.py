"""Project-wide numerical policy: caps, tolerances and the RNG scheme.

Every random draw in the library flows through :func:`rng_for_stream`, so a
(seed, stream_index) pair pins the full sequence of results bit-for-bit on
any platform. Parallel work (Monte-Carlo replicas, multi-seed solver runs)
uses disjoint stream indices and merges results in stream order.
"""

from __future__ import annotations

import numpy as np

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
        raise ValueError("stream_index must be nonnegative")
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(stream_index,))
    return np.random.default_rng(ss)
