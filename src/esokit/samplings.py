"""Coordinate samplings: random subsets of {0, ..., n-1}.

A sampling is described declaratively by a :class:`SamplingSpec` (kind plus
parameters) and can be drawn from, enumerated exactly (small supports), or
combined with other samplings (mixtures, independent intersections,
restrictions to a fixed index set).

All indices are 0-based throughout the library. Probability vectors must sum
to one within ``config.PROB_SUM_TOL``; nothing is ever renormalized silently.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import config
from .csr import _csr, _filter, _ptr, _row_of, _scatter, _spans, _take
from .errors import CapacityError, ValidationError

KIND_ELEMENTARY = "elementary"
KIND_SERIAL = "serial"
KIND_TAU_NICE = "tau_nice"
KIND_CTAU = "ctau_distributed"
KIND_DOUBLY_UNIFORM = "doubly_uniform"
KIND_PRODUCT = "product"
KIND_GRAPH = "graph"
KIND_CONVEX = "convex_combination"
KIND_INTERSECTION = "intersection"
KIND_RESTRICTION = "restriction"
KIND_EXPLICIT = "explicit"

ALL_KINDS = (
    KIND_ELEMENTARY,
    KIND_SERIAL,
    KIND_TAU_NICE,
    KIND_CTAU,
    KIND_DOUBLY_UNIFORM,
    KIND_PRODUCT,
    KIND_GRAPH,
    KIND_CONVEX,
    KIND_INTERSECTION,
    KIND_RESTRICTION,
    KIND_EXPLICIT,
)


def _as_index_tuple(items: Iterable[int], n: int, field_name: str) -> tuple[int, ...]:
    out = tuple(sorted(int(i) for i in items))
    if len(set(out)) != len(out):
        raise ValidationError(field_name, "duplicate indices")
    if out and (out[0] < 0 or out[-1] >= n):
        raise ValidationError(field_name, f"indices must lie in [0, {n})")
    return out


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected graph on n vertices; an edge joins coordinates that co-occur
    in some row support of a data matrix."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("n", "must be positive")
        normalized = set()
        for (a, b) in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValidationError("edges", f"self-loop at {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValidationError("edges", f"edge ({a},{b}) out of range")
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = set(subset)
        return not any(a in s and b in s for (a, b) in self.edges)


@dataclass(frozen=True)
class SamplingSpec:
    """Declarative description of a sampling distribution.

    Only the fields relevant to ``kind`` are set; see the factory functions
    (:func:`tau_nice`, :func:`serial`, ...) for the per-kind payloads.
    Construction runs :func:`validate_spec`.
    """

    n: int
    kind: str
    set: tuple[int, ...] | None = None
    q: tuple[float, ...] | None = None
    tau: int | None = None
    partition: tuple[tuple[int, ...], ...] | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    members: tuple[tuple[int, ...], ...] | None = None
    weights: tuple[float, ...] | None = None
    components: tuple["SamplingSpec", ...] | None = None
    graph: ConflictGraph | None = field(default=None, compare=False)

    def __post_init__(self):
        validate_spec(self)

    def to_dict(self) -> dict:
        return spec_to_dict(self)


# ---------------------------------------------------------------------------
# Factories


def elementary(n: int, s: Iterable[int]) -> SamplingSpec:
    """Deterministic sampling that always returns the set ``s``."""
    return SamplingSpec(n=n, kind=KIND_ELEMENTARY, set=_as_index_tuple(s, n, "set"))


def serial(q: Sequence[float]) -> SamplingSpec:
    """Singleton sampling: {i} is drawn with probability q[i]."""
    return SamplingSpec(n=len(q), kind=KIND_SERIAL, q=tuple(float(x) for x in q))


def tau_nice(n: int, tau: int) -> SamplingSpec:
    """Uniform law over all subsets of cardinality tau (tau = 0 is nil)."""
    return SamplingSpec(n=n, kind=KIND_TAU_NICE, tau=int(tau))


def ctau_distributed(partition: Sequence[Iterable[int]], tau: int) -> SamplingSpec:
    """Union of independent tau-nice draws on c equal-size blocks of a partition."""
    blocks = tuple(tuple(sorted(int(i) for i in b)) for b in partition)
    n = sum(len(b) for b in blocks)
    return SamplingSpec(n=n, kind=KIND_CTAU, partition=blocks, tau=int(tau))


def doubly_uniform(q: Sequence[float]) -> SamplingSpec:
    """Cardinality-distribution sampling: draw tau ~ q then a uniform tau-subset."""
    return SamplingSpec(n=len(q) - 1, kind=KIND_DOUBLY_UNIFORM, q=tuple(float(x) for x in q))


def product_sampling(blocks: Sequence[Iterable[int]]) -> SamplingSpec:
    """One uniformly chosen element per block of a partition (blocks may differ in size)."""
    blk = tuple(tuple(sorted(int(i) for i in b)) for b in blocks)
    n = sum(len(b) for b in blk)
    return SamplingSpec(n=n, kind=KIND_PRODUCT, blocks=blk)


def graph_sampling(
    n: int,
    members: Sequence[Iterable[int]],
    weights: Sequence[float],
    graph: ConflictGraph,
) -> SamplingSpec:
    """Weighted support over independent sets of a conflict graph.

    The distribution is supplied, never synthesized; validation checks that
    every member set is independent in ``graph``.
    """
    mem = tuple(_as_index_tuple(s, n, "members") for s in members)
    return SamplingSpec(
        n=n,
        kind=KIND_GRAPH,
        members=mem,
        weights=tuple(float(w) for w in weights),
        graph=graph,
    )


def convex_combination(
    weights: Sequence[float], components: Sequence[SamplingSpec]
) -> SamplingSpec:
    """Mixture sampling: pick component t with probability weights[t], then draw from it."""
    comps = tuple(components)
    n = comps[0].n if comps else 0
    return SamplingSpec(
        n=n,
        kind=KIND_CONVEX,
        weights=tuple(float(w) for w in weights),
        components=comps,
    )


def intersection(first: SamplingSpec, second: SamplingSpec) -> SamplingSpec:
    """Intersection of two samplings drawn independently."""
    return SamplingSpec(n=first.n, kind=KIND_INTERSECTION, components=(first, second))


def restriction(spec: SamplingSpec, j: Iterable[int]) -> SamplingSpec:
    """Sampling whose draws are intersections of ``spec`` draws with the fixed set ``j``."""
    return SamplingSpec(
        n=spec.n,
        kind=KIND_RESTRICTION,
        components=(spec,),
        set=_as_index_tuple(j, spec.n, "set"),
    )


def explicit(n: int, members: Sequence[Iterable[int]], weights: Sequence[float]) -> SamplingSpec:
    """Fully explicit distribution: list of (set, probability) pairs."""
    mem = tuple(_as_index_tuple(s, n, "members") for s in members)
    return SamplingSpec(
        n=n, kind=KIND_EXPLICIT, members=mem, weights=tuple(float(w) for w in weights)
    )


# ---------------------------------------------------------------------------
# Validation


def _check_prob_vector(q: Sequence[float], field_name: str) -> None:
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(field_name, "must be a vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(field_name, "contains non-finite entries")
    if np.any(arr < 0):
        raise ValidationError(field_name, "negative probability")
    if abs(float(arr.sum()) - 1.0) > config.PROB_SUM_TOL:
        raise ValidationError(field_name, f"probabilities sum to {arr.sum()!r}, not 1")


def _check_partition(blocks: Sequence[tuple[int, ...]], n: int, field_name: str) -> None:
    seen: set[int] = set()
    for b in blocks:
        if len(b) == 0:
            raise ValidationError(field_name, "empty block")
        for i in b:
            if not (0 <= i < n):
                raise ValidationError(field_name, f"index {i} out of range")
            if i in seen:
                raise ValidationError(field_name, f"index {i} appears in two blocks")
            seen.add(i)
    if len(seen) != n:
        raise ValidationError(field_name, "blocks do not cover the ground set")


def validate_spec(spec: SamplingSpec) -> None:
    """Check all invariants of ``spec``, raising ValidationError with the field name.

    Runs when a SamplingSpec is built, so every spec in hand is valid; the
    components of a composite were checked when they were built."""
    if spec.n <= 0:
        raise ValidationError("n", "must be positive")
    if spec.kind not in ALL_KINDS:
        raise ValidationError("kind", f"unknown kind {spec.kind!r}")

    k = spec.kind
    if k == KIND_ELEMENTARY:
        if spec.set is None:
            raise ValidationError("set", "required for elementary sampling")
        _as_index_tuple(spec.set, spec.n, "set")
    elif k == KIND_SERIAL:
        if spec.q is None or len(spec.q) != spec.n:
            raise ValidationError("q", "must have length n")
        _check_prob_vector(spec.q, "q")
    elif k == KIND_TAU_NICE:
        if spec.tau is None or not (0 <= spec.tau <= spec.n):
            raise ValidationError("tau", "must lie in {0, ..., n}")
    elif k == KIND_CTAU:
        if spec.partition is None or not spec.partition:
            raise ValidationError("partition", "required")
        _check_partition(spec.partition, spec.n, "partition")
        sizes = {len(b) for b in spec.partition}
        if len(sizes) != 1:
            raise ValidationError("partition", "blocks must all have equal size")
        s = sizes.pop()
        if spec.tau is None or not (0 <= spec.tau <= s):
            raise ValidationError("tau", f"must lie in {{0, ..., {s}}}")
    elif k == KIND_DOUBLY_UNIFORM:
        if spec.q is None or len(spec.q) != spec.n + 1:
            raise ValidationError("q", "must have length n + 1 (one weight per cardinality)")
        _check_prob_vector(spec.q, "q")
    elif k == KIND_PRODUCT:
        if spec.blocks is None or not spec.blocks:
            raise ValidationError("blocks", "required")
        _check_partition(spec.blocks, spec.n, "blocks")
    elif k in (KIND_GRAPH, KIND_EXPLICIT):
        if spec.members is None or spec.weights is None:
            raise ValidationError("members", "members and weights required")
        if len(spec.members) != len(spec.weights):
            raise ValidationError("weights", "length mismatch with members")
        for s in spec.members:
            _as_index_tuple(s, spec.n, "members")
        _check_prob_vector(spec.weights, "weights")
        if k == KIND_GRAPH:
            if spec.graph is None:
                raise ValidationError("graph", "conflict graph required")
            if spec.graph.n != spec.n:
                raise ValidationError("graph", "graph size differs from n")
            for s in spec.members:
                if not spec.graph.is_independent(s):
                    raise ValidationError("members", f"set {s} is not independent in the conflict graph")
    elif k == KIND_CONVEX:
        if spec.components is None or spec.weights is None or not spec.components:
            raise ValidationError("components", "components and weights required")
        if len(spec.components) != len(spec.weights):
            raise ValidationError("weights", "length mismatch with components")
        _check_prob_vector(spec.weights, "weights")
        for c in spec.components:
            if c.n != spec.n:
                raise ValidationError("components", "all components must share n")
    elif k == KIND_INTERSECTION:
        if spec.components is None or len(spec.components) != 2:
            raise ValidationError("components", "exactly two components required")
        for c in spec.components:
            if c.n != spec.n:
                raise ValidationError("components", "components must share n")
    elif k == KIND_RESTRICTION:
        if spec.components is None or len(spec.components) != 1:
            raise ValidationError("components", "exactly one component required")
        if spec.set is None:
            raise ValidationError("set", "restriction set required")
        _as_index_tuple(spec.set, spec.n, "set")
        if spec.components[0].n != spec.n:
            raise ValidationError("components", "component must share n")


# ---------------------------------------------------------------------------
# JSON round trip


def spec_to_dict(spec: SamplingSpec) -> dict:
    out: dict = {"n": spec.n, "kind": spec.kind}
    if spec.set is not None:
        out["set"] = list(spec.set)
    if spec.q is not None:
        out["q"] = list(spec.q)
    if spec.tau is not None:
        out["tau"] = spec.tau
    if spec.partition is not None:
        out["partition"] = [list(b) for b in spec.partition]
    if spec.blocks is not None:
        out["blocks"] = [list(b) for b in spec.blocks]
    if spec.members is not None:
        out["members"] = [list(s) for s in spec.members]
    if spec.weights is not None:
        out["weights"] = list(spec.weights)
    if spec.components is not None:
        out["components"] = [spec_to_dict(c) for c in spec.components]
    if spec.graph is not None:
        out["graph_edges"] = [list(e) for e in spec.graph.edges]
    return out


def _parsed(payload: dict, key: str, convert):
    """convert(payload[key]), or None when absent; malformed values name the key."""
    if key not in payload:
        return None
    try:
        return convert(payload[key])
    except (TypeError, ValueError) as e:
        raise ValidationError(key, f"malformed value {payload[key]!r}") from e


def _integer(raw) -> int:
    """An integral number such as 4 or 4.0. A bool, a string or a fraction
    is malformed, not truncated."""
    if isinstance(raw, bool) or not (
        isinstance(raw, numbers.Integral) or isinstance(raw, float) and raw.is_integer()
    ):
        raise ValueError(f"{raw!r} is not an integer")
    return int(raw)


def _index_set(raw) -> tuple[int, ...]:
    return tuple(sorted(_integer(i) for i in raw))


def _index_sets(raw) -> tuple[tuple[int, ...], ...]:
    return tuple(_index_set(s) for s in raw)


def _floats(raw) -> tuple[float, ...]:
    if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in raw):
        raise ValueError(f"{raw!r} holds a bool, a string or another non-number")
    return tuple(float(x) for x in raw)


def spec_from_dict(payload: dict) -> SamplingSpec:
    if not isinstance(payload, dict):
        raise TypeError(f"a sampling spec is a dict, not a {type(payload).__name__}")
    for key in ("n", "kind"):
        if key not in payload:
            raise ValidationError(key, "missing required key")
    n = _parsed(payload, "n", _integer)
    return SamplingSpec(
        n=n,
        kind=_parsed(payload, "kind", str),
        set=_parsed(payload, "set", _index_set),
        q=_parsed(payload, "q", _floats),
        tau=_parsed(payload, "tau", _integer),
        partition=_parsed(payload, "partition", _index_sets),
        blocks=_parsed(payload, "blocks", _index_sets),
        members=_parsed(payload, "members", _index_sets),
        weights=_parsed(payload, "weights", _floats),
        components=_parsed(payload, "components", lambda cs: tuple(spec_from_dict(c) for c in cs)),
        graph=_parsed(payload, "graph_edges", lambda e: ConflictGraph(n, tuple((_integer(a), _integer(b)) for a, b in e))),
    )


# ---------------------------------------------------------------------------
# Drawing
#
# A block of drawn sets is held as CSR ``(ptr, indices)``: set k is
# ``indices[ptr[k]:ptr[k + 1]]``, ascending, the layout of ``DataMatrix``
# rows, with the helpers of :mod:`esokit.csr`. No draw path builds a
# sets x n array; ``draw_masks`` scatters the sets into bool rows for its
# callers.


# Entries of one Fisher-Yates permutation chunk (rows x size), and of one
# row chunk of product-sampling integers.
_CHUNK_ENTRIES = 1 << 16

# A Fisher-Yates chunk of at most this many rows draws all its rounds in one
# array-bound rng.integers call, which yields the same integers and leaves
# the same generator state as one scalar-bound call per round. The merged
# call saves the fixed cost of a call per round (about 10 us) but costs
# about 2.5 times as much per integer, so longer chunks draw round by round.
_MERGED_ROWS = 512


def _groups(counts: Sequence[int], width: int):
    """Chunks of the rows of a block, packed into groups.

    Generator g owns counts[g] consecutive rows of the block, in generator
    order. Its rows are cut into chunks of at most ``step = max(1,
    _CHUNK_ENTRIES // width)`` rows, as they would be cut were they the only
    rows. Consecutive whole chunks are packed into groups of at most
    ``step`` rows. Yields (start, stop, chunks) per group, with each chunk
    a (g, lo, hi) range of rows of the block.
    """
    step = max(1, _CHUNK_ENTRIES // max(width, 1))
    group, start, row = [], 0, 0
    for g, count in enumerate(counts):
        for lo in range(row, row + count, step):
            hi = min(lo + step, row + count)
            if hi - start > step:
                yield start, lo, group
                group, start = [], lo
            group.append((g, lo, hi))
        row += count
    if group:
        yield start, row, group


def _uniform_subsets(
    sizes: np.ndarray, size: int, rngs: Sequence[np.random.Generator], counts: Sequence[int]
) -> np.ndarray:
    """Exact uniform sizes[r]-subsets of range(size), one per row r, with
    counts[g] consecutive rows drawn from rngs[g]; returned as the indices
    of CSR rows of those sizes, each row ascending.

    A partial Fisher-Yates shuffle of a (rows, size) identity block keeps
    row r's first sizes[r] positions. Each chunk of a generator's rows (see
    :func:`_groups`) draws ``rng.integers(k, size)`` per row for every round
    k up to the chunk's largest size, round by round (merged into one call
    for chunks of at most ``_MERGED_ROWS`` rows), so the draws are a pure
    function of the generator and its rows' sizes. The swaps then run once
    per round over a whole group of chunks; a row whose chunk has fewer
    rounds than the group swaps with itself in the rest.
    """
    ends = np.cumsum(sizes, dtype=np.intp)
    out = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.intp)
    buffer = np.empty((min(max(1, _CHUNK_ENTRIES // size), len(sizes)), size), dtype=np.intp)
    lows: dict[tuple[int, int], np.ndarray] = {}
    for start, stop, chunks in _groups(counts, size):
        tops = np.maximum.reduceat(sizes[start:stop], [lo - start for _, lo, _ in chunks]).tolist()
        rounds = max(tops)
        swaps = np.empty((rounds, stop - start), dtype=np.intp)
        swaps[:] = np.arange(rounds)[:, None]
        for (g, lo, hi), top in zip(chunks, tops):
            if top > 1 and hi - lo <= _MERGED_ROWS:
                low = lows.get((top, hi - lo))
                if low is None:
                    low = lows[top, hi - lo] = np.repeat(np.arange(top), hi - lo)
                swaps[:top, lo - start : hi - start] = rngs[g].integers(low, size).reshape(top, hi - lo)
            else:
                for k in range(top):
                    swaps[k, lo - start : hi - start] = rngs[g].integers(k, size, size=hi - lo)
        rows = np.arange(stop - start)
        perm = buffer[: len(rows)]
        perm[:] = np.arange(size)
        flat = perm.reshape(-1)
        swaps += rows * size  # flat positions of the swap partners
        for k in range(rounds):
            j = swaps[k]
            held = perm[:, k].copy()
            perm[:, k] = flat[j]
            flat[j] = held
        picked, first, last = perm[:, :rounds], ends[start] - sizes[start], ends[stop - 1]
        if sizes[start:stop].min() == rounds:
            out[first:last] = np.sort(picked, axis=1).reshape(-1)
        else:
            # A row keeps its first sizes[r] picks: the rest sort past them.
            keep = np.arange(rounds) < sizes[start:stop, None]
            picked = np.where(keep, picked, size)
            picked.sort(axis=1)
            out[first:last] = picked[keep]
    return out


def _choices(rngs, counts, options: int, p) -> np.ndarray:
    """``rng.choice(options, size=count, p=p)`` of every generator with rows,
    concatenated in generator order."""
    p = np.asarray(p)
    return np.concatenate([rng.choice(options, size=count, p=p) for rng, count in zip(rngs, counts) if count])


def _draw_blocks(
    spec: SamplingSpec, rngs: Sequence[np.random.Generator], rows_per_rng: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Independent draws of the sampling as CSR ``(ptr, indices)``, each
    set ascending: rows_per_rng[g] consecutive sets, in generator order,
    drawn from rngs[g].

    Each generator makes the calls it would make drawing its sets alone, in
    the same order, and one with no sets makes none (RNG scheme 2, see
    ``config.RNG_SCHEME``). The arithmetic on the draws runs once over the
    sets of every generator: tau-nice, (c,tau) and doubly-uniform sets sort
    their Fisher-Yates picks, serial, product, graph and explicit sets
    gather theirs, a mixture merges its components' sets back into set
    order, an intersection keeps the indices found in both of a set's
    draws and a restriction those in its set. Permutation chunks and
    product-sampling integers hold at most ``_CHUNK_ENTRIES`` entries (or
    one row of n), so no kind builds a sets x n temporary.
    """
    counts = [int(c) for c in rows_per_rng]
    total, k, n = sum(counts), spec.kind, spec.n
    if total == 0:
        return np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp)
    if k == KIND_ELEMENTARY:
        return np.arange(total + 1) * len(spec.set), np.tile(np.array(spec.set, dtype=np.intp), total)
    if k == KIND_SERIAL:
        return np.arange(total + 1), _choices(rngs, counts, n, spec.q)
    if k in (KIND_TAU_NICE, KIND_DOUBLY_UNIFORM):
        if k == KIND_TAU_NICE:
            sizes = np.full(total, spec.tau)
        else:
            sizes = _choices(rngs, counts, n + 1, spec.q)
        return _ptr(sizes), _uniform_subsets(sizes, n, rngs, counts)
    if k == KIND_CTAU:
        # Every (set, block) pair is one tau-subset of the block's positions.
        part = np.asarray(spec.partition)
        blocks, width = len(part), spec.tau * len(part)
        sizes = np.full(total * blocks, spec.tau)
        positions = _uniform_subsets(sizes, part.shape[1], rngs, [c * blocks for c in counts])
        picks = part[np.arange(blocks).repeat(spec.tau), positions.reshape(total, width)]
        picks.sort(axis=1)
        return np.arange(total + 1) * width, picks.reshape(-1)
    if k == KIND_PRODUCT:
        lengths = np.array([len(b) for b in spec.blocks])
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        flat = np.concatenate(spec.blocks)
        picks = np.empty((total, len(lengths)), dtype=np.intp)
        for start, stop, chunks in _groups(counts, len(lengths)):
            drawn = np.concatenate(
                [rngs[g].integers(0, lengths, size=(hi - lo, len(lengths))) for g, lo, hi in chunks]
            )
            picks[start:stop] = flat[offsets + drawn]
        picks.sort(axis=1)
        return np.arange(total + 1) * len(lengths), picks.reshape(-1)
    if k in (KIND_GRAPH, KIND_EXPLICIT):
        picks = _choices(rngs, counts, len(spec.members), spec.weights)
        return _take(*_csr(spec.members), picks)
    if k == KIND_CONVEX:
        picks = _choices(rngs, counts, len(spec.components), spec.weights)
        owner = np.repeat(np.arange(len(counts)), counts)
        sizes, parts = np.zeros(total, dtype=np.intp), []
        for t, comp in enumerate(spec.components):
            rows = np.flatnonzero(picks == t)
            if rows.size:
                part_ptr, part_indices = _draw_blocks(comp, rngs, np.bincount(owner[rows], minlength=len(counts)))
                sizes[rows] = np.diff(part_ptr)
                parts.append((rows, part_indices))
        ptr = _ptr(sizes)
        indices = np.empty(ptr[-1], dtype=np.intp)
        for rows, part_indices in parts:
            indices[_spans(ptr[rows], sizes[rows])] = part_indices
        return ptr, indices
    if k == KIND_INTERSECTION:
        ptr, indices = _draw_blocks(spec.components[0], rngs, counts)
        other_ptr, other = _draw_blocks(spec.components[1], rngs, counts)
        # Both key arrays ascend: set number first, then index.
        keys = _row_of(ptr) * n + indices
        return _filter(ptr, indices, np.isin(keys, _row_of(other_ptr) * n + other, assume_unique=True))
    if k == KIND_RESTRICTION:
        ptr, indices = _draw_blocks(spec.components[0], rngs, counts)
        member = np.zeros(n, dtype=bool)
        member[list(spec.set)] = True
        return _filter(ptr, indices, member[indices])
    raise ValidationError("kind", f"unknown kind {k!r}")


def _draw_block(spec: SamplingSpec, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_draw_blocks` of ``count`` sets, all drawn from ``rng``."""
    return _draw_blocks(spec, [rng], [count])


def draw(spec: SamplingSpec, rng_seed: int, stream_index: int = 0) -> frozenset[int]:
    """Draw one realization of the sampling: the one-set case of the block
    draw on ``config.rng_for_stream(rng_seed, stream_index)``, so it equals
    the first row of ``draw_masks(spec, 1, rng_seed)`` for stream 0.

    The result is a pure function of (spec, rng_seed, stream_index); replicas
    running in parallel use distinct stream indices.
    """
    _, indices = _draw_block(spec, 1, config.rng_for_stream(rng_seed, stream_index))
    return frozenset(indices.tolist())


def draw_sets(
    spec: SamplingSpec, count: int, rng_seed: int = 0, streams: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` realizations of the sampling as CSR ``(ptr, indices)``,
    each set ascending.

    Sets come stream by stream: stream s draws its sets from
    ``config.rng_for_stream(rng_seed, s)`` (RNG scheme ``config.RNG_SCHEME``),
    and the first ``count % streams`` streams take one draw more than the
    rest; one :func:`_draw_blocks` call draws them all. The result is a pure
    function of (spec, count, rng_seed, streams), and its memory is
    O(count + sum of the set sizes). Every Monte-Carlo estimate in the
    package reads its draws from here.
    """
    if count < 0:
        raise ValidationError("count", "must be nonnegative")
    streams = max(1, int(streams))
    rngs = [config.rng_for_stream(rng_seed, s) for s in range(streams)]
    return _draw_blocks(spec, rngs, [count // streams + (s < count % streams) for s in range(streams)])


def draw_masks(spec: SamplingSpec, count: int, rng_seed: int = 0, streams: int = 1) -> np.ndarray:
    """The sets of :func:`draw_sets` as the rows of a (count, n) bool array."""
    return _scatter(spec.n, *draw_sets(spec, count, rng_seed, streams))


# ---------------------------------------------------------------------------
# Exact enumeration


def _merge(into: dict[tuple[int, ...], float], key: tuple[int, ...], prob: float) -> None:
    if prob != 0.0:
        into[key] = into.get(key, 0.0) + prob


def enumerate_support(spec: SamplingSpec) -> list[tuple[tuple[int, ...], float]]:
    """Exact distribution of the sampling as a sorted list of (set, probability).

    Kinds with exponential support require n <= ``config.ENUMERATION_CAP``; kinds whose support is
    explicit in the parameters enumerate at any n (subject to the global
    support-size guard). Raises CapacityError when enumeration is infeasible.
    Neither the exact probability matrix (``prob_matrix(spec, "auto")``) nor
    :func:`cardinality_moments` needs enumeration, and no caller falls back
    to Monte-Carlo.
    """
    dist = _enumerate(spec)
    total = math.fsum(dist.values())
    if abs(total - 1.0) > 10 * config.PROB_SUM_TOL:
        raise ValidationError("weights", f"enumerated mass {total!r} differs from 1")
    return sorted(dist.items(), key=lambda kv: (len(kv[0]), kv[0]))


# Bit of index i in a big-endian 64-bit key, and of index i % 8 in its byte.
_BIT64 = np.left_shift(np.uint64(1), np.arange(63, -1, -1, dtype=np.uint64))
_BIT8 = np.right_shift(128, np.arange(8)).astype(np.uint8)


def weighted_sets(
    spec: SamplingSpec, trials: int = 0, rng_seed: int = 0, streams: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct sets as CSR ``(ptr, indices)`` and weights w with
    E[g(S-hat)] = sum_k w[k] g(set k): the support of
    :func:`enumerate_support` with its probabilities when ``trials == 0``,
    else the distinct sets of ``draw_sets(spec, trials, rng_seed, streams)``
    weighted count / trials.

    Monte-Carlo sets come sorted by their packed bits (the bytes of
    ``np.packbits`` of their bool rows) and their weights sum to 1 up to
    rounding; an expectation costs one evaluation per distinct set, not per
    draw. The keys are packed from the indices: no trials x n array.
    """
    if trials < 0:
        raise ValidationError("trials", "must be nonnegative")
    if not trials:
        sets, probs = zip(*enumerate_support(spec))
        return *_csr(sets), np.array(probs)
    ptr, indices = draw_sets(spec, trials, rng_seed, streams)
    rows = _row_of(ptr)
    if spec.n <= 64:
        # The packed bytes as one big-endian integer per set (index i is
        # bit 63 - i): it sorts as the bytes compare, and faster than a bytes key.
        keys = np.zeros(trials, dtype=np.uint64)
        np.add.at(keys, rows, _BIT64[indices])
    else:
        # One opaque bytes key per set (index i is bit 7 - i % 8 of byte
        # i // 8): sorting it is a memcmp, far faster than np.unique(axis=0)'s
        # one field per column.
        width = (spec.n + 7) // 8
        packed = np.zeros(trials * width, dtype=np.uint8)
        np.add.at(packed, rows * width + indices // 8, _BIT8[indices % 8])
        keys = packed.view(np.dtype((np.void, width)))
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return *_take(ptr, indices, first), counts / trials


_WITHOUT_ENUMERATION = (
    'prob_matrix(spec, "auto") (probmatrix --method auto) gives the exact probability matrix '
    "without enumeration; support-wide checks have a Monte-Carlo mode"
)


def _require_cap(spec: SamplingSpec) -> None:
    if spec.n > config.ENUMERATION_CAP:
        raise CapacityError(
            f"{spec.kind} with n={spec.n} exceeds the enumeration cap {config.ENUMERATION_CAP}; "
            + _WITHOUT_ENUMERATION
        )


def _guard_support(size: int) -> None:
    if size > config.MAX_ENUM_SUPPORT:
        raise CapacityError(
            f"support of {size} sets exceeds the {config.MAX_ENUM_SUPPORT} ceiling; "
            + _WITHOUT_ENUMERATION
        )


def _enumerate(spec: SamplingSpec) -> dict[tuple[int, ...], float]:
    k = spec.kind
    out: dict[tuple[int, ...], float] = {}
    if k == KIND_ELEMENTARY:
        out[spec.set] = 1.0
    elif k == KIND_SERIAL:
        for i, qi in enumerate(spec.q):
            _merge(out, (i,), qi)
    elif k == KIND_TAU_NICE:
        _require_cap(spec)
        count = math.comb(spec.n, spec.tau)
        _guard_support(count)
        prob = 1.0 / count
        for s in itertools.combinations(range(spec.n), spec.tau):
            out[s] = prob
    elif k == KIND_CTAU:
        _require_cap(spec)
        per_block = [list(itertools.combinations(b, spec.tau)) for b in spec.partition]
        size = math.prod(len(ch) for ch in per_block)
        _guard_support(size)
        prob = 1.0 / size
        for combo in itertools.product(*per_block):
            s = tuple(sorted(i for part in combo for i in part))
            out[s] = prob
    elif k == KIND_DOUBLY_UNIFORM:
        _require_cap(spec)
        _guard_support(sum(math.comb(spec.n, t) for t, qt in enumerate(spec.q) if qt > 0))
        for t, qt in enumerate(spec.q):
            if qt == 0.0:
                continue
            prob = qt / math.comb(spec.n, t)
            for s in itertools.combinations(range(spec.n), t):
                _merge(out, s, prob)
    elif k == KIND_PRODUCT:
        size = math.prod(len(b) for b in spec.blocks)
        _guard_support(size)
        prob = 1.0 / size
        for combo in itertools.product(*spec.blocks):
            out[tuple(sorted(combo))] = prob
    elif k in (KIND_GRAPH, KIND_EXPLICIT):
        for s, w in zip(spec.members, spec.weights):
            _merge(out, s, w)
    elif k == KIND_CONVEX:
        for w, comp in zip(spec.weights, spec.components):
            if w == 0.0:
                continue
            for s, p in _enumerate(comp).items():
                _merge(out, s, w * p)
            _guard_support(len(out))
    elif k == KIND_INTERSECTION:
        first = _enumerate(spec.components[0])
        second = _enumerate(spec.components[1])
        _guard_support(len(first) * len(second))
        for s1, p1 in first.items():
            set1 = set(s1)
            for s2, p2 in second.items():
                _merge(out, tuple(sorted(set1.intersection(s2))), p1 * p2)
    elif k == KIND_RESTRICTION:
        j = set(spec.set)
        for s, p in _enumerate(spec.components[0]).items():
            _merge(out, tuple(sorted(j.intersection(s))), p)
    else:
        raise ValidationError("kind", f"unknown kind {k!r}")
    return out


# ---------------------------------------------------------------------------
# Marginals, predicates, moments


def marginals(spec: SamplingSpec) -> np.ndarray:
    """Inclusion probabilities p_i = Prob(i in S-hat), exact for every kind:
    a read-only array, computed once and kept with the (frozen) spec."""
    p = spec.__dict__.get("_marginals")
    if p is None:
        p = _marginals(spec)
        p.flags.writeable = False
        object.__setattr__(spec, "_marginals", p)
    return p


def _marginals(spec: SamplingSpec) -> np.ndarray:
    k = spec.kind
    n = spec.n
    if k == KIND_ELEMENTARY:
        p = np.zeros(n)
        p[list(spec.set)] = 1.0
        return p
    if k == KIND_SERIAL:
        return np.array(spec.q, dtype=float)
    if k == KIND_TAU_NICE:
        return np.full(n, spec.tau / n)
    if k == KIND_CTAU:
        s = len(spec.partition[0])
        return np.full(n, spec.tau / s)
    if k == KIND_DOUBLY_UNIFORM:
        mean_card = float(np.dot(spec.q, np.arange(n + 1)))
        return np.full(n, mean_card / n)
    if k == KIND_PRODUCT:
        p = np.zeros(n)
        for b in spec.blocks:
            p[list(b)] = 1.0 / len(b)
        return p
    if k in (KIND_GRAPH, KIND_EXPLICIT):
        p = np.zeros(n)
        for s, w in zip(spec.members, spec.weights):
            p[list(s)] += w
        return p
    if k == KIND_CONVEX:
        p = np.zeros(n)
        for w, comp in zip(spec.weights, spec.components):
            p += w * marginals(comp)
        return p
    if k == KIND_INTERSECTION:
        return marginals(spec.components[0]) * marginals(spec.components[1])
    if k == KIND_RESTRICTION:
        p = marginals(spec.components[0]).copy()
        mask = np.zeros(n, dtype=bool)
        mask[list(spec.set)] = True
        p[~mask] = 0.0
        return p
    raise ValidationError("kind", f"unknown kind {k!r}")


def is_proper(spec: SamplingSpec) -> bool:
    """True when every coordinate has positive inclusion probability."""
    return bool(np.all(marginals(spec) > 0.0))


def is_nil(spec: SamplingSpec) -> bool:
    """True when the sampling draws the empty set with probability one."""
    # All marginals zero forces |S-hat| = 0 almost surely, and conversely.
    return bool(np.all(marginals(spec) == 0.0))


@dataclass(frozen=True)
class Moments:
    """First and second moment of the sampling cardinality |S-hat|."""

    first: float
    second: float
    method: str  # closed_form | enumerated: the provenance of the exact value

    def __iter__(self):
        return iter((self.first, self.second))


def cardinality_moments(spec: SamplingSpec) -> Moments:
    """(E|S-hat|, E|S-hat|^2), exact for every kind.

    Kinds with a closed form use it. The rest (intersections, restrictions
    and mixtures containing them) read E|S-hat| = tr P and E|S-hat|^2 = 1'P1
    off the exact probability matrix (``probability.exact_grid``): no
    enumeration and no draws, at any n.
    """
    closed = closed_form_moments(spec)
    if closed is not None:
        return closed
    from . import probability  # deferred: probability imports this module

    return matrix_moments(*probability.exact_grid(spec))


def matrix_moments(entries: np.ndarray, provenance: str) -> Moments:
    """(E|S-hat|, E|S-hat|^2) = (tr P, 1'P1) of the entries of a probability
    matrix, with its provenance as the method."""
    return Moments(float(np.trace(entries)), float(entries.sum()), provenance)


def closed_form_moments(spec: SamplingSpec) -> Moments | None:
    """The closed-form cardinality moments, or None for the kinds that read
    them off P (intersections, restrictions and mixtures containing them)."""
    k = spec.kind
    if k == KIND_ELEMENTARY:
        c = float(len(spec.set))
        return Moments(c, c * c, "closed_form")
    if k == KIND_SERIAL:
        return Moments(1.0, 1.0, "closed_form")
    if k == KIND_TAU_NICE:
        return Moments(float(spec.tau), float(spec.tau) ** 2, "closed_form")
    if k == KIND_CTAU:
        c = float(spec.tau * len(spec.partition))
        return Moments(c, c * c, "closed_form")
    if k == KIND_DOUBLY_UNIFORM:
        taus = np.arange(spec.n + 1, dtype=float)
        q = np.asarray(spec.q)
        return Moments(float(q @ taus), float(q @ taus**2), "closed_form")
    if k == KIND_PRODUCT:
        c = float(len(spec.blocks))
        return Moments(c, c * c, "closed_form")
    if k in (KIND_GRAPH, KIND_EXPLICIT):
        sizes = np.array([len(s) for s in spec.members], dtype=float)
        w = np.asarray(spec.weights)
        return Moments(float(w @ sizes), float(w @ sizes**2), "closed_form")
    if k == KIND_CONVEX:
        parts = [closed_form_moments(c) for c in spec.components]
        if any(p is None for p in parts):
            return None
        first = sum(w * p.first for w, p in zip(spec.weights, parts))
        second = sum(w * p.second for w, p in zip(spec.weights, parts))
        return Moments(float(first), float(second), "closed_form")
    # Intersections and restrictions need the joint pairwise law: read off P
    # in cardinality_moments.
    return None


def cardinality_cap(spec: SamplingSpec) -> int:
    """Smallest structural tau with |S-hat| <= tau surely (certified, exact)."""
    k = spec.kind
    if k == KIND_ELEMENTARY:
        return len(spec.set)
    if k == KIND_SERIAL:
        return 1
    if k == KIND_TAU_NICE:
        return spec.tau
    if k == KIND_CTAU:
        return spec.tau * len(spec.partition)
    if k == KIND_DOUBLY_UNIFORM:
        positive = [t for t, qt in enumerate(spec.q) if qt > 0]
        return max(positive) if positive else 0
    if k == KIND_PRODUCT:
        return len(spec.blocks)
    if k in (KIND_GRAPH, KIND_EXPLICIT):
        sizes = [len(s) for s, w in zip(spec.members, spec.weights) if w > 0]
        return max(sizes) if sizes else 0
    if k == KIND_CONVEX:
        caps = [cardinality_cap(c) for c, w in zip(spec.components, spec.weights) if w > 0]
        return max(caps) if caps else 0
    if k == KIND_INTERSECTION:
        return min(cardinality_cap(spec.components[0]), cardinality_cap(spec.components[1]))
    if k == KIND_RESTRICTION:
        return min(cardinality_cap(spec.components[0]), len(spec.set))
    raise ValidationError("kind", f"unknown kind {k!r}")


def is_certified_uniform(spec: SamplingSpec) -> bool:
    """Kinds whose marginals are structurally constant (tau-nice, doubly
    uniform, equal-block (c,tau)-distributed)."""
    return spec.kind in (KIND_TAU_NICE, KIND_DOUBLY_UNIFORM, KIND_CTAU)


# ---------------------------------------------------------------------------
# Conflict graph from data


def build_conflict_graph(data) -> ConflictGraph:
    """Graph joining coordinate pairs that co-occur in some row support of
    the :class:`~esokit.datamatrix.DataMatrix` ``data``, read from its
    sorted CSR slices ``cols[row_ptr[j]:row_ptr[j + 1]]``."""
    cols, cuts = data.cols.tolist(), data.row_ptr.tolist()
    pairs = (itertools.combinations(cols[a:b], 2) for a, b in zip(cuts, cuts[1:]))
    return ConflictGraph(n=data.n, edges=tuple(sorted(set(itertools.chain.from_iterable(pairs)))))


# ---------------------------------------------------------------------------
# Random spec generation (verification batteries and tests)


def random_spec(
    rng: np.random.Generator,
    n: int,
    max_depth: int = 2,
    require_nonnil: bool = False,
) -> SamplingSpec:
    """Random enumerable spec over [n], mixing every kind; used by the
    identity battery and the property-test corpora."""
    for _ in range(200):
        spec = _random_spec(rng, n, max_depth)
        if require_nonnil and is_nil(spec):
            continue
        return spec
    raise RuntimeError("failed to generate a non-nil spec")


def _random_partition(rng: np.random.Generator, n: int, parts: int) -> list[list[int]]:
    order = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=parts - 1, replace=False)) if parts > 1 else []
    blocks, start = [], 0
    for c in list(cuts) + [n]:
        blocks.append(sorted(int(i) for i in order[start:c]))
        start = c
    return blocks


def _random_spec(rng: np.random.Generator, n: int, depth: int) -> SamplingSpec:
    leaf_kinds = ["elementary", "serial", "tau_nice", "doubly_uniform", "explicit", "product"]
    if n >= 2:
        leaf_kinds.append("ctau")
    kinds = leaf_kinds + (["convex", "intersection", "restriction"] if depth > 0 else [])
    k = kinds[int(rng.integers(len(kinds)))]
    if k == "elementary":
        mask = rng.random(n) < 0.5
        return elementary(n, np.flatnonzero(mask))
    if k == "serial":
        q = rng.dirichlet(np.ones(n))
        return serial(q / q.sum())
    if k == "tau_nice":
        return tau_nice(n, int(rng.integers(0, n + 1)))
    if k == "doubly_uniform":
        q = rng.dirichlet(np.ones(n + 1))
        return doubly_uniform(q / q.sum())
    if k == "explicit":
        count = int(rng.integers(1, 6))
        members = []
        for _ in range(count):
            mask = rng.random(n) < 0.5
            members.append(tuple(int(i) for i in np.flatnonzero(mask)))
        w = rng.dirichlet(np.ones(count))
        return explicit(n, members, w / w.sum())
    if k == "product":
        parts = int(rng.integers(1, n + 1))
        return product_sampling(_random_partition(rng, n, parts))
    if k == "ctau":
        divisors = [c for c in range(1, n + 1) if n % c == 0]
        c = divisors[int(rng.integers(len(divisors)))]
        s = n // c
        return ctau_distributed(_random_partition_equal(rng, n, c), int(rng.integers(0, s + 1)))
    if k == "convex":
        count = int(rng.integers(2, 4))
        comps = [_random_spec(rng, n, depth - 1) for _ in range(count)]
        w = rng.dirichlet(np.ones(count))
        return convex_combination(w / w.sum(), comps)
    if k == "intersection":
        return intersection(_random_spec(rng, n, depth - 1), _random_spec(rng, n, depth - 1))
    if k == "restriction":
        mask = rng.random(n) < 0.7
        j = np.flatnonzero(mask)
        if len(j) == 0:
            j = np.array([int(rng.integers(n))])
        return restriction(_random_spec(rng, n, depth - 1), j)
    raise AssertionError(k)


def _random_partition_equal(rng: np.random.Generator, n: int, c: int) -> list[list[int]]:
    order = rng.permutation(n)
    s = n // c
    return [sorted(int(i) for i in order[l * s : (l + 1) * s]) for l in range(c)]
