"""Coordinate samplings: random subsets of {0, ..., n-1}.

A sampling is described declaratively by a :class:`SamplingSpec` (kind plus
parameters) and can be drawn from, enumerated exactly (small supports), or
combined with other samplings (mixtures, independent intersections,
restrictions to a fixed index set). A kind is one record of :data:`KINDS`,
which every function that depends on the kind looks up; adding a kind adds
one record.

All indices are 0-based throughout the library. Probability vectors must sum
to one within ``config.PROB_SUM_TOL``; nothing is ever renormalized silently.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np

from . import config, csr
from .csr import _block_ids, _csr, _filter, _ptr, _row_of, _scatter, _spans, _take
from .errors import CapacityError, ValidationError, _is_int

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

PROVENANCE_CLOSED = "closed_form"
PROVENANCE_ENUM = "enumerated"
PROVENANCE_MC = "monte_carlo"

_PROVENANCE_RANK = {PROVENANCE_CLOSED: 0, PROVENANCE_ENUM: 1, PROVENANCE_MC: 2}


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected graph on n vertices; an edge joins coordinates that co-occur
    in some row support of a data matrix."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _read("n", self.n))
        if self.n <= 0:
            raise ValidationError("n", "must be positive")
        normalized = set()
        for edge in self.edges:
            try:
                a, b = map(_integer, edge)
            except (TypeError, ValueError) as e:
                raise ValidationError("edges", f"malformed edge {edge!r}: {e}") from e
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
        # A list or array payload is kept as the tuple a factory passes, so
        # the spec stays hashable and equal to its factory-built twin.
        for name, depth in _SEQUENCE_FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_tuples(value, depth))
        validate_spec(self)

    def to_dict(self) -> dict:
        """Not a :class:`_Report` form: unset payload fields are omitted, and
        ``graph`` is written as ``graph_edges``."""
        return spec_to_dict(self)


# Payload fields held as tuples, with their nesting depth.
_SEQUENCE_FIELDS = {
    "set": 1, "q": 1, "weights": 1, "components": 1, "partition": 2, "blocks": 2, "members": 2,
}


def _as_tuples(value, depth: int):
    """``value`` with each list or array, down to ``depth`` levels, made a
    tuple; anything else is left for validation to refuse."""
    if isinstance(value, (list, np.ndarray)):
        value = tuple(value)
    if depth > 1 and isinstance(value, tuple):
        value = tuple(_as_tuples(item, depth - 1) for item in value)
    return value


# ---------------------------------------------------------------------------
# Factories


def elementary(n: int, s: Iterable[int]) -> SamplingSpec:
    """Deterministic sampling that always returns the set ``s``."""
    return SamplingSpec(n=n, kind=KIND_ELEMENTARY, set=_read("set", s))


def serial(q: Sequence[float]) -> SamplingSpec:
    """Singleton sampling: {i} is drawn with probability q[i]."""
    q = _read("q", q)
    return SamplingSpec(n=len(q), kind=KIND_SERIAL, q=q)


def tau_nice(n: int, tau: int) -> SamplingSpec:
    """Uniform law over all subsets of cardinality tau (tau = 0 is nil)."""
    return SamplingSpec(n=n, kind=KIND_TAU_NICE, tau=_read("tau", tau))


def ctau_distributed(partition: Sequence[Iterable[int]], tau: int) -> SamplingSpec:
    """Union of independent tau-nice draws on c equal-size blocks of a partition."""
    blocks = _read("partition", partition)
    return SamplingSpec(n=sum(map(len, blocks)), kind=KIND_CTAU, partition=blocks, tau=_read("tau", tau))


def doubly_uniform(q: Sequence[float]) -> SamplingSpec:
    """Cardinality-distribution sampling: draw tau ~ q then a uniform tau-subset."""
    q = _read("q", q)
    return SamplingSpec(n=len(q) - 1, kind=KIND_DOUBLY_UNIFORM, q=q)


def product_sampling(blocks: Sequence[Iterable[int]]) -> SamplingSpec:
    """One uniformly chosen element per block of a partition (blocks may differ in size)."""
    blocks = _read("blocks", blocks)
    return SamplingSpec(n=sum(map(len, blocks)), kind=KIND_PRODUCT, blocks=blocks)


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
    return SamplingSpec(
        n=n, kind=KIND_GRAPH, members=_read("members", members), weights=_read("weights", weights), graph=graph
    )


def convex_combination(
    weights: Sequence[float], components: Sequence[SamplingSpec]
) -> SamplingSpec:
    """Mixture sampling: pick component t with probability weights[t], then draw from it."""
    comps = tuple(components)
    return SamplingSpec(n=_component_n(comps), kind=KIND_CONVEX, weights=_read("weights", weights), components=comps)


def intersection(first: SamplingSpec, second: SamplingSpec) -> SamplingSpec:
    """Intersection of two samplings drawn independently."""
    return SamplingSpec(n=_component_n((first, second)), kind=KIND_INTERSECTION, components=(first, second))


def restriction(spec: SamplingSpec, j: Iterable[int]) -> SamplingSpec:
    """Sampling whose draws are intersections of ``spec`` draws with the fixed set ``j``."""
    return SamplingSpec(n=_component_n((spec,)), kind=KIND_RESTRICTION, components=(spec,), set=_read("set", j))


def _component_n(components: tuple) -> int:
    """The n the components of a composite share; none, or a non-SamplingSpec, is refused by name."""
    if not components or not all(isinstance(c, SamplingSpec) for c in components):
        types = [type(c).__name__ for c in components]
        raise ValidationError("components", f"must be one or more SamplingSpecs, got {types}")
    if any(c.n != components[0].n for c in components):
        raise ValidationError("components", "components must share n")
    return components[0].n


def explicit(n: int, members: Sequence[Iterable[int]], weights: Sequence[float]) -> SamplingSpec:
    """Fully explicit distribution: list of (set, probability) pairs."""
    return SamplingSpec(n=n, kind=KIND_EXPLICIT, members=_read("members", members), weights=_read("weights", weights))


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


def _check_partition(blocks: Sequence[tuple[int, ...]] | None, n: int, field_name: str) -> None:
    if not blocks:
        raise ValidationError(field_name, "required")
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


def _check_index_set(items: Sequence[int] | None, n: int, field_name: str) -> None:
    """A payload set: given, of distinct integers in [0, n), ascending, as draws and enumeration hand sets on."""
    if items is None:
        raise ValidationError(field_name, "required")
    if not all(map(_is_int, items)):
        raise ValidationError(field_name, f"indices must be integers, not {items!r}")
    ordered = sorted(set(items))
    if len(ordered) != len(items):
        raise ValidationError(field_name, "duplicate indices")
    if ordered and (ordered[0] < 0 or ordered[-1] >= n):
        raise ValidationError(field_name, f"indices must lie in [0, {n})")
    if tuple(ordered) != tuple(items):
        raise ValidationError(field_name, "indices must be ascending")


# The payload fields of a spec; a kind reads the ones its record lists.
_PAYLOAD = tuple(f.name for f in fields(SamplingSpec))[2:]


def validate_spec(spec: SamplingSpec) -> None:
    """Check all invariants of ``spec``, raising ValidationError with the field name.

    Runs when a SamplingSpec is built, so every spec in hand is valid; the
    components of a composite were checked when they were built."""
    if not _is_int(spec.n):
        raise ValidationError("n", f"must be an integer, not {spec.n!r}")
    if spec.n <= 0:
        raise ValidationError("n", "must be positive")
    kind = KINDS.get(spec.kind) if isinstance(spec.kind, str) else None
    if kind is None:
        raise ValidationError("kind", f"unknown kind {spec.kind!r}")
    for name in _PAYLOAD:
        if getattr(spec, name) is not None and name not in kind.fields:
            raise ValidationError(name, f"not a field of {spec.kind} samplings")
    kind.check(spec)
    if spec.components is not None and _component_n(spec.components) != spec.n:
        raise ValidationError("components", "components must share n")


def _check_q(spec: SamplingSpec, length: int, message: str) -> None:
    if spec.q is None or len(spec.q) != length:
        raise ValidationError("q", message)
    _check_prob_vector(spec.q, "q")


def _check_tau(spec: SamplingSpec, top: int, shown) -> None:
    if not (_is_int(spec.tau) and 0 <= spec.tau <= top):
        raise ValidationError("tau", f"must lie in {{0, ..., {shown}}}")


def _check_ctau(spec: SamplingSpec) -> None:
    _check_partition(spec.partition, spec.n, "partition")
    if len({len(b) for b in spec.partition}) != 1:
        raise ValidationError("partition", "blocks must all have equal size")
    _check_tau(spec, len(spec.partition[0]), len(spec.partition[0]))


def _check_weighted(spec: SamplingSpec, name: str) -> None:
    """At least one item in the field ``name``, and ``weights`` a probability vector with one entry per item."""
    items = getattr(spec, name)
    if not items or spec.weights is None:
        raise ValidationError(name, f"{name} and weights required")
    if len(items) != len(spec.weights):
        raise ValidationError("weights", f"length mismatch with {name}")
    _check_prob_vector(spec.weights, "weights")


def _check_explicit(spec: SamplingSpec) -> None:
    _check_weighted(spec, "members")
    for s in spec.members:
        _check_index_set(s, spec.n, "members")


def _check_graph(spec: SamplingSpec) -> None:
    _check_explicit(spec)
    if spec.graph is None:
        raise ValidationError("graph", "conflict graph required")
    if spec.graph.n != spec.n:
        raise ValidationError("graph", "graph size differs from n")
    for s in spec.members:
        if not spec.graph.is_independent(s):
            raise ValidationError("members", f"set {s} is not independent in the conflict graph")


def _check_components(spec: SamplingSpec, count: int, message: str) -> None:
    if spec.components is None or len(spec.components) != count:
        raise ValidationError("components", message)


def _check_restriction(spec: SamplingSpec) -> None:
    _check_components(spec, 1, "exactly one component required")
    _check_index_set(spec.set, spec.n, "set")


# ---------------------------------------------------------------------------
# JSON round trip


def spec_to_dict(spec: SamplingSpec) -> dict:
    out: dict = {"n": spec.n, "kind": spec.kind}
    for name in _PAYLOAD:
        value = getattr(spec, name)
        if value is not None:
            out["graph_edges" if name == "graph" else name] = _plain(value)
    return out


def _plain(value):
    """A value in JSON types: arrays, tuples and lists as lists, dicts rebuilt
    value by value, a graph as its edges, and anything with a ``to_dict`` (a
    spec, a nested report) through it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, ConflictGraph):
        return _plain(value.edges)
    return value.to_dict() if hasattr(value, "to_dict") else value


class _Report:
    """The JSON form of a result dataclass: every field by name through
    :func:`_plain`, with the verdict ``passed``, a field or a property,
    written as ``"pass"``."""

    def to_dict(self) -> dict:
        out = {"pass" if f.name == "passed" else f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        if hasattr(self, "passed"):
            out["pass"] = self.passed
        return out


def _integer(raw) -> int:
    """An integral number such as 4 or 4.0. A bool, a string or a fraction
    is malformed, not truncated."""
    if not (_is_int(raw) or isinstance(raw, float) and raw.is_integer()):
        raise ValueError(f"must be an integer, not {raw!r}")
    return int(raw)


def _real(raw) -> float:
    """A real number as a float; a bool or a string is malformed, not converted."""
    if not (isinstance(raw, float) or isinstance(raw, numbers.Real) and not isinstance(raw, bool)):
        raise ValueError(f"must be a number, not {raw!r}")
    return float(raw)


def _index_set(raw) -> tuple[int, ...]:
    return tuple(sorted(map(_integer, raw)))


def _index_sets(raw) -> tuple[tuple[int, ...], ...]:
    return tuple(map(_index_set, raw))


def _floats(raw) -> tuple[float, ...]:
    return tuple(map(_real, raw))


# The one reader of raw sampling values, for the factories and spec_from_dict
# alike: the parser of each key of a spec payload but graph_edges. A malformed
# value raises TypeError or ValueError, which _read turns into ValidationError.
_PARSERS = {
    "n": _integer, "kind": str, "set": _index_set, "q": _floats, "tau": _integer, "partition": _index_sets,
    "blocks": _index_sets, "members": _index_sets, "weights": _floats,
    "components": lambda cs: tuple(spec_from_dict(c) for c in cs),
}


def _read(key: str, raw, parse=None):
    """parse(raw), by default ``_PARSERS[key](raw)``; a malformed value raises
    ValidationError naming the key and saying why."""
    try:
        return (parse or _PARSERS[key])(raw)
    except (TypeError, ValueError) as e:
        raise ValidationError(key, f"malformed value {raw!r}: {e}") from e


def _index_array(key: str, raw) -> np.ndarray:
    """Indices as an int64 array: an integer array is taken as it is, any
    other value is read entry by entry with :func:`_integer`, so a
    fractional, bool or string index raises ValidationError naming ``key``
    rather than being truncated."""
    if isinstance(raw, np.ndarray) and np.issubdtype(raw.dtype, np.integer):
        return raw.astype(np.int64, copy=False)
    return np.array(_read(key, raw, lambda r: [_integer(x) for x in r]), dtype=np.int64)


def spec_from_dict(payload: dict) -> SamplingSpec:
    """The spec of a :func:`spec_to_dict` payload. A missing, unknown or malformed key, or one the
    kind does not read, raises ValidationError naming it (``graph_edges`` by its field, ``graph``)."""
    if not isinstance(payload, dict):
        raise TypeError(f"a sampling spec is a dict, not a {type(payload).__name__}")
    for key in ("n", "kind"):
        if key not in payload:
            raise ValidationError(key, "missing required key")
    for key in payload:
        if key not in _PARSERS and key != "graph_edges":
            raise ValidationError(str(key), "unknown key")
    parsed = {key: _read(key, payload[key]) for key in _PARSERS if key in payload}
    if "graph_edges" in payload:
        parsed["graph"] = _read("graph_edges", payload["graph_edges"], lambda e: ConflictGraph(parsed["n"], tuple(e)))
    return SamplingSpec(**parsed)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Exact uniform sizes[r]-subsets of range(size), one per row r, with
    counts[g] consecutive rows drawn from rngs[g]; returned as CSR
    ``(ptr, indices)``, each row ascending.

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
    return _ptr(sizes), out


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
    total = sum(counts)
    if total == 0:
        return np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp)
    return KINDS[spec.kind].draw(spec, rngs, counts, total)


def _draw_ctau(spec: SamplingSpec, rngs, counts, total: int) -> tuple[np.ndarray, np.ndarray]:
    # Every (set, block) pair is one tau-subset of the block's positions.
    part = np.asarray(spec.partition)
    blocks, width = len(part), spec.tau * len(part)
    sizes = np.full(total * blocks, spec.tau)
    _, positions = _uniform_subsets(sizes, part.shape[1], rngs, [c * blocks for c in counts])
    picks = part[np.arange(blocks).repeat(spec.tau), positions.reshape(total, width)]
    picks.sort(axis=1)
    return np.arange(total + 1) * width, picks.reshape(-1)


def _draw_product(spec: SamplingSpec, rngs, counts, total: int) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([len(b) for b in spec.blocks])
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat = np.concatenate(spec.blocks)
    picks = np.empty((total, len(lengths)), dtype=np.intp)
    for start, stop, chunks in _groups(counts, len(lengths)):
        drawn = np.concatenate([rngs[g].integers(0, lengths, size=(hi - lo, len(lengths))) for g, lo, hi in chunks])
        picks[start:stop] = flat[offsets + drawn]
    picks.sort(axis=1)
    return np.arange(total + 1) * len(lengths), picks.reshape(-1)


def _draw_mixture(spec: SamplingSpec, rngs, counts, total: int) -> tuple[np.ndarray, np.ndarray]:
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


def _draw_intersection(spec: SamplingSpec, rngs, counts, total: int) -> tuple[np.ndarray, np.ndarray]:
    (ptr, indices), (other_ptr, other) = (_draw_blocks(c, rngs, counts) for c in spec.components)
    # Both key arrays ascend: set number first, then index.
    keys = _row_of(ptr) * spec.n + indices
    return _filter(ptr, indices, np.isin(keys, _row_of(other_ptr) * spec.n + other, assume_unique=True))


def _draw_restriction(spec: SamplingSpec, rngs, counts, total: int) -> tuple[np.ndarray, np.ndarray]:
    ptr, indices = _draw_blocks(spec.components[0], rngs, counts)
    return _filter(ptr, indices, _set_indicator(spec)[indices] > 0.0)


def draw(spec: SamplingSpec, rng_seed: int, stream_index: int = 0) -> frozenset[int]:
    """Draw one realization of the sampling: the one-set case of the block
    draw on ``config.rng_for_stream(rng_seed, stream_index)``, so it equals
    the first row of ``draw_masks(spec, 1, rng_seed)`` for stream 0.

    The result is a pure function of (spec, rng_seed, stream_index); replicas
    running in parallel use distinct stream indices.
    """
    _, indices = _draw_blocks(spec, [config.rng_for_stream(rng_seed, stream_index)], [1])
    return frozenset(indices.tolist())


def draw_sets(
    spec: SamplingSpec, count: int, rng_seed: int = 0, streams: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` realizations of the sampling as CSR ``(ptr, indices)``,
    each set ascending.

    Sets come stream by stream: stream s draws its sets from
    ``config.rng_for_stream(rng_seed, s)`` (RNG scheme ``config.RNG_SCHEME``;
    ``config.rngs_for_streams`` builds them all in one pass), and the first
    ``count % streams`` streams take one draw more than the rest; one
    :func:`_draw_blocks` call draws them all. The result is a pure
    function of (spec, count, rng_seed, streams), and its memory is
    O(count + sum of the set sizes). Every Monte-Carlo estimate in the
    package reads its draws from here.
    """
    if not (_is_int(count) and count >= 0):
        raise ValidationError("count", f"must be nonnegative and an integer, got {count!r}")
    if not (_is_int(streams) and streams >= 1):
        raise ValidationError("streams", f"must be positive and an integer, got {streams!r}")
    rngs = config.rngs_for_streams(rng_seed, range(streams))
    return _draw_blocks(spec, rngs, [count // streams + (s < count % streams) for s in range(streams)])


def draw_masks(spec: SamplingSpec, count: int, rng_seed: int = 0, streams: int = 1) -> np.ndarray:
    """The sets of :func:`draw_sets` as the rows of a (count, n) bool array."""
    return _scatter(spec.n, *draw_sets(spec, count, rng_seed, streams))


# ---------------------------------------------------------------------------
# Exact enumeration


def _merge(into: dict[tuple[int, ...], float], pairs) -> dict[tuple[int, ...], float]:
    for key, prob in pairs:
        if prob != 0.0:
            into[key] = into.get(key, 0.0) + prob
    return into


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
    if not (_is_int(trials) and trials >= 0):
        raise ValidationError("trials", f"must be nonnegative and an integer, got {trials!r}")
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
    kind = KINDS[spec.kind]
    if kind.capped:
        _require_cap(spec)
    return kind.enumerate(spec)


def _equally_likely(size: int, sets: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], float]:
    """``size`` equally likely distinct ``sets``, generated once the support guard passes."""
    _guard_support(size)
    return dict.fromkeys(sets, 1.0 / size)


def _enumerate_ctau(spec: SamplingSpec) -> dict[tuple[int, ...], float]:
    combos = itertools.product(*(itertools.combinations(b, spec.tau) for b in spec.partition))
    size = math.comb(len(spec.partition[0]), spec.tau) ** len(spec.partition)
    return _equally_likely(size, (tuple(sorted(i for part in c for i in part)) for c in combos))


def _enumerate_doubly_uniform(spec: SamplingSpec) -> dict[tuple[int, ...], float]:
    _guard_support(sum(math.comb(spec.n, t) for t, qt in enumerate(spec.q) if qt > 0))
    probs = [qt / math.comb(spec.n, t) for t, qt in enumerate(spec.q)]
    return {s: p for t, p in enumerate(probs) if p for s in itertools.combinations(range(spec.n), t)}


def _enumerate_mixture(spec: SamplingSpec) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for w, comp in zip(spec.weights, spec.components):
        if w != 0.0:
            _merge(out, [(s, w * p) for s, p in _enumerate(comp).items()])
            _guard_support(len(out))
    return out


def _enumerate_intersection(spec: SamplingSpec) -> dict[tuple[int, ...], float]:
    first, second = (_enumerate(c) for c in spec.components)
    _guard_support(len(first) * len(second))
    out: dict[tuple[int, ...], float] = {}
    for s1, p1 in first.items():
        set1 = set(s1)
        _merge(out, [(tuple(sorted(set1.intersection(s2))), p1 * p2) for s2, p2 in second.items()])
    return out


def _enumerate_restriction(spec: SamplingSpec) -> dict[tuple[int, ...], float]:
    j = set(spec.set)
    return _merge({}, [(tuple(sorted(j.intersection(s))), p) for s, p in _enumerate(spec.components[0]).items()])


# ---------------------------------------------------------------------------
# Marginals, predicates, moments


def marginals(spec: SamplingSpec) -> np.ndarray:
    """Inclusion probabilities p_i = Prob(i in S-hat), exact for every kind
    and equal, bit for bit, to the diagonal of the exact P
    (``probability.exact_grid``): a read-only array, computed once and kept
    with the (frozen) spec, as is the verdict :func:`never_selected` reads."""
    p = spec.__dict__.get("_marginals")
    if p is None:
        p = KINDS[spec.kind].marginals(spec)
        p.flags.writeable = False
        object.__setattr__(spec, "_marginals", p)
        object.__setattr__(spec, "_never_selected", None if p.min() > 0.0 else int(np.argmin(p)))
    return p


def never_selected(spec: SamplingSpec) -> int | None:
    """The first coordinate with the smallest p_i when that p_i is not
    positive, or None for a proper sampling; decided once per spec."""
    marginals(spec)
    return spec.__dict__["_never_selected"]


def _set_indicator(spec: SamplingSpec) -> np.ndarray:
    out = np.zeros(spec.n)
    out[list(spec.set)] = 1.0
    return out


def _listed_marginals(spec: SamplingSpec) -> np.ndarray:
    # The support and weights, in the order, that the enumerated P sums.
    ptr, indices, w = weighted_sets(spec)
    return np.bincount(indices, weights=np.repeat(w, np.diff(ptr)), minlength=spec.n)


def is_proper(spec: SamplingSpec) -> bool:
    """True when every coordinate has positive inclusion probability."""
    return never_selected(spec) is None


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
    return KINDS[spec.kind].moments(spec)


def _fixed_moments(spec: SamplingSpec) -> Moments:
    # |S-hat| is fixed at its cap.
    c = float(cardinality_cap(spec))
    return Moments(c, c * c, PROVENANCE_CLOSED)


def _size_moments(weights, sizes) -> Moments:
    """(E|S-hat|, E|S-hat|^2) when |S-hat| is sizes[k] with probability weights[k]."""
    w, x = np.asarray(weights), np.asarray(sizes, dtype=float)
    return Moments(float(w @ x), float(w @ x**2), PROVENANCE_CLOSED)


def _mixture_moments(spec: SamplingSpec) -> Moments | None:
    parts = [closed_form_moments(c) for c in spec.components]
    if any(p is None for p in parts):
        return None
    first = sum(w * p.first for w, p in zip(spec.weights, parts))
    second = sum(w * p.second for w, p in zip(spec.weights, parts))
    return Moments(float(first), float(second), PROVENANCE_CLOSED)


def cardinality_cap(spec: SamplingSpec) -> int:
    """Smallest structural tau with |S-hat| <= tau surely (certified, exact)."""
    return KINDS[spec.kind].cap(spec)


# ---------------------------------------------------------------------------
# Exact P rules (see probability.exact_rule), restricted lambda' closed forms
# and the kind table

Entry = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _zeros(i, j) -> np.ndarray:
    return np.zeros(np.broadcast(i, j).shape)


def _uniform(c: float, beta: float) -> Entry:
    """Entries of c * ((1 - beta) I + beta 11'): its two values, each by
    the scalar form of c * ((1 - beta) * [i == j] + beta), in one np.where."""
    on, off = (c * ((1.0 - beta) * same + beta) for same in (1.0, 0.0))
    return lambda i, j: np.where(i == j, on, off)


def _outer(p: np.ndarray) -> tuple[Entry, str]:
    """P = pp' of a sampling that draws one set surely: an elementary one, or the set a restriction keeps."""
    return (lambda i, j: p[i] * p[j]), PROVENANCE_CLOSED


def _block_rule(p: np.ndarray, block: np.ndarray) -> tuple[Entry, str]:
    """P of a sampling that picks at most one index per block, independently across blocks: p_i on the
    diagonal, 0 within a block, p_i p_j across blocks (a serial sampling is one block)."""
    return (lambda i, j: np.where(i == j, p[i], np.where(block[i] == block[j], 0.0, p[i] * p[j]))), PROVENANCE_CLOSED


def _ctau_rule(spec: SamplingSpec) -> tuple[Entry, str]:
    tau, s = spec.tau, len(spec.partition[0])
    if tau == 0:
        return _zeros, PROVENANCE_CLOSED
    diagonal, inner, outer = tau / s, tau * (tau - 1) / (s * max(s - 1, 1)), (tau / s) ** 2
    block = _block_ids(spec.n, spec.partition)
    return (lambda i, j: np.where(i == j, diagonal, np.where(block[i] == block[j], inner, outer))), PROVENANCE_CLOSED


def _doubly_uniform_rule(spec: SamplingSpec) -> tuple[Entry, str]:
    first, second = cardinality_moments(spec)
    entry = _uniform(first / spec.n, (second / first - 1.0) / max(spec.n - 1, 1)) if first else _zeros
    return entry, PROVENANCE_CLOSED


def _listed_rule(spec: SamplingSpec) -> tuple[Entry, str]:
    # The support is explicit in the parameters: its P is enumerated once.
    entries = csr._pair_sum(spec.n, *weighted_sets(spec))
    return (lambda i, j: entries[i, j]), PROVENANCE_ENUM


def _mixture_rule(spec: SamplingSpec) -> tuple[Entry, str]:
    parts = [(w, KINDS[c.kind].rule(c)) for w, c in zip(spec.weights, spec.components) if w != 0.0]

    def mixture(i, j):
        total = _zeros(i, j)
        for w, (entry, _) in parts:
            total += w * entry(i, j)
        return total

    return mixture, max([PROVENANCE_CLOSED] + [tag for _, (_, tag) in parts], key=_PROVENANCE_RANK.get)


def _both(first: tuple[Entry, str], second: tuple[Entry, str]) -> tuple[Entry, str]:
    """The rule of the intersection of two independent samplings: the entries' product."""
    (one, t1), (other, t2) = first, second
    return (lambda i, j: one(i, j) * other(i, j)), max(t1, t2, key=_PROVENANCE_RANK.get)


def tau_nice_restricted_value(n: int, tau: int, j_size):
    """Exact lambda'(J intersect S-hat) for the tau-nice sampling; ``j_size``
    = |J| may be an array of sizes."""
    if tau == 0:
        return 0.0 * j_size
    return 1.0 + (j_size - 1) * (tau - 1) / max(n - 1, 1)


def _ctau_restricted(spec: SamplingSpec, ptr, indices, sizes) -> tuple[np.ndarray, str]:
    # ctau_restricted_bound's arithmetic on every set at once, in O(nnz):
    # omega counts the distinct (set, block) keys; empty sets and tau = 0 give 0.
    tau, s, c = spec.tau, len(spec.partition[0]), len(spec.partition)
    s1 = max(s - 1, 1)
    keys = np.unique(_row_of(ptr) * c + _block_ids(spec.n, spec.partition)[indices])
    omega = np.maximum(np.bincount(keys // c, minlength=sizes.size), 1)
    bound = 1.0 + (sizes - 1) * (tau - 1) / s1 + sizes * (tau / s - (tau - 1) / s1) * (omega - 1) / omega
    return np.where((sizes > 0) & (tau > 0), bound, 0.0), "ctau_restriction"


def _doubly_uniform_restricted(spec: SamplingSpec, ptr, indices, sizes) -> tuple[np.ndarray, str] | None:
    first, second = cardinality_moments(spec)
    if first == 0.0:
        return None
    return 1.0 + (sizes - 1.0) * ((second / first - 1.0) / max(spec.n - 1, 1)), "doubly_uniform_restriction"


@dataclass(frozen=True)
class _Kind:
    """Everything the package knows of one sampling kind; each callable takes the spec first."""

    fields: tuple[str, ...]  # the payload fields it reads; validate_spec refuses the rest
    check: Callable[[SamplingSpec], None]  # validates those fields
    draw: Callable  # (spec, rngs, counts, total): the total = sum(counts) > 0 sets of _draw_blocks
    enumerate: Callable[[SamplingSpec], dict]  # _enumerate
    marginals: Callable[[SamplingSpec], np.ndarray]  # marginals
    cap: Callable[[SamplingSpec], int]  # cardinality_cap
    rule: Callable[[SamplingSpec], tuple[Entry, str]]  # probability.exact_rule
    moments: Callable[[SamplingSpec], Moments | None] = lambda s: None  # closed_form_moments
    restricted: Callable | None = None  # (spec, ptr, indices, sizes): spectral.restricted_closed_form
    restricted_exact: bool = False  # restricted is an equality (lambda_prime_restricted's "formula")
    closed_p: bool = False  # rule is a closed form (prob_matrix's "closed_form")
    uniform: bool = False  # the marginals are structurally constant (lambda_bounds)
    capped: bool = False  # the support grows exponentially: enumerated only up to config.ENUMERATION_CAP


KINDS: dict[str, _Kind] = {
    KIND_ELEMENTARY: _Kind(
        ("set",), check=lambda s: _check_index_set(s.set, s.n, "set"),
        draw=lambda s, rngs, counts, total: (
            np.arange(total + 1) * len(s.set), np.tile(np.array(s.set, dtype=np.intp), total)
        ),
        enumerate=lambda s: {s.set: 1.0}, marginals=_set_indicator, cap=lambda s: len(s.set),
        rule=lambda s: _outer(marginals(s)), moments=_fixed_moments, closed_p=True,
    ),
    KIND_SERIAL: _Kind(
        ("q",), check=lambda s: _check_q(s, s.n, "must have length n"),
        draw=lambda s, rngs, counts, total: (np.arange(total + 1), _choices(rngs, counts, s.n, s.q)),
        enumerate=lambda s: {(i,): qi for i, qi in enumerate(s.q) if qi},
        marginals=lambda s: np.array(s.q, dtype=float), cap=lambda s: 1,
        rule=lambda s: _block_rule(marginals(s), np.zeros(s.n, dtype=np.intp)), moments=_fixed_moments, closed_p=True,
    ),
    KIND_TAU_NICE: _Kind(
        ("tau",), check=lambda s: _check_tau(s, s.n, "n"),
        draw=lambda s, rngs, counts, total: _uniform_subsets(np.full(total, s.tau), s.n, rngs, counts),
        enumerate=lambda s: _equally_likely(math.comb(s.n, s.tau), itertools.combinations(range(s.n), s.tau)),
        marginals=lambda s: np.full(s.n, s.tau / s.n), cap=lambda s: s.tau, moments=_fixed_moments,
        rule=lambda s: (_uniform(s.tau / s.n, (s.tau - 1) / max(s.n - 1, 1)) if s.tau else _zeros, PROVENANCE_CLOSED),
        restricted=lambda s, ptr, idx, sizes: (tau_nice_restricted_value(s.n, s.tau, sizes), "tau_nice_restriction"),
        restricted_exact=True, closed_p=True, uniform=True, capped=True,
    ),
    KIND_CTAU: _Kind(
        ("partition", "tau"), check=_check_ctau, draw=_draw_ctau, enumerate=_enumerate_ctau,
        marginals=lambda s: np.full(s.n, s.tau / len(s.partition[0])), cap=lambda s: s.tau * len(s.partition),
        rule=_ctau_rule, moments=_fixed_moments, restricted=_ctau_restricted, closed_p=True, uniform=True, capped=True,
    ),
    KIND_DOUBLY_UNIFORM: _Kind(
        ("q",), check=lambda s: _check_q(s, s.n + 1, "must have length n + 1 (one weight per cardinality)"),
        draw=lambda s, rngs, counts, total: _uniform_subsets(_choices(rngs, counts, s.n + 1, s.q), s.n, rngs, counts),
        enumerate=_enumerate_doubly_uniform,
        marginals=lambda s: np.full(s.n, float(np.dot(s.q, np.arange(s.n + 1))) / s.n),
        cap=lambda s: max((t for t, qt in enumerate(s.q) if qt > 0), default=0),
        rule=_doubly_uniform_rule, moments=lambda s: _size_moments(s.q, np.arange(s.n + 1)),
        restricted=_doubly_uniform_restricted, closed_p=True, uniform=True, capped=True,
    ),
    KIND_PRODUCT: _Kind(
        ("blocks",), check=lambda s: _check_partition(s.blocks, s.n, "blocks"), draw=_draw_product,
        enumerate=lambda s: _equally_likely(
            math.prod(map(len, s.blocks)), (tuple(sorted(c)) for c in itertools.product(*s.blocks))
        ),
        marginals=lambda s: 1.0 / np.array([len(b) for b in s.blocks])[_block_ids(s.n, s.blocks)],
        cap=lambda s: len(s.blocks), rule=lambda s: _block_rule(marginals(s), _block_ids(s.n, s.blocks)),
        moments=_fixed_moments, closed_p=True,
    ),
    KIND_CONVEX: _Kind(
        ("weights", "components"), check=lambda s: _check_weighted(s, "components"),
        draw=_draw_mixture, enumerate=_enumerate_mixture,
        marginals=lambda s: sum(w * marginals(c) for w, c in zip(s.weights, s.components)),
        cap=lambda s: max((cardinality_cap(c) for c, w in zip(s.components, s.weights) if w > 0), default=0),
        rule=_mixture_rule, moments=_mixture_moments,
    ),
    KIND_INTERSECTION: _Kind(
        ("components",), check=lambda s: _check_components(s, 2, "exactly two components required"),
        draw=_draw_intersection, enumerate=_enumerate_intersection,
        marginals=lambda s: marginals(s.components[0]) * marginals(s.components[1]),
        cap=lambda s: min(cardinality_cap(s.components[0]), cardinality_cap(s.components[1])),
        rule=lambda s: _both(*(KINDS[c.kind].rule(c) for c in s.components)),
    ),
    KIND_RESTRICTION: _Kind(
        ("set", "components"), check=_check_restriction, draw=_draw_restriction, enumerate=_enumerate_restriction,
        marginals=lambda s: marginals(s.components[0]) * _set_indicator(s),
        cap=lambda s: min(cardinality_cap(s.components[0]), len(s.set)),
        rule=lambda s: _both(KINDS[s.components[0].kind].rule(s.components[0]), _outer(_set_indicator(s))),
    ),
    KIND_EXPLICIT: _Kind(
        ("members", "weights"), check=_check_explicit,
        draw=lambda s, rngs, counts, total: _take(*_csr(s.members), _choices(rngs, counts, len(s.members), s.weights)),
        enumerate=lambda s: _merge({}, zip(s.members, s.weights)), marginals=_listed_marginals,
        cap=lambda s: max((len(m) for m, w in zip(s.members, s.weights) if w > 0), default=0),
        rule=_listed_rule, moments=lambda s: _size_moments(s.weights, [len(m) for m in s.members]),
    ),
}
# A graph sampling is an explicit one whose sets are independent in its graph.
KINDS[KIND_GRAPH] = replace(KINDS[KIND_EXPLICIT], fields=("members", "weights", "graph"), check=_check_graph)


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
