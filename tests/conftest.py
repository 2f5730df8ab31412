"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

import esokit as ek


def random_sparse_matrix(rng: np.random.Generator, m: int, n: int, density: float) -> ek.DataMatrix:
    """Random sparse matrix with at least one entry per row and per column."""
    mask = rng.random((m, n)) < density
    # Guarantee no empty row/column so supports and norms are nontrivial.
    for j in range(m):
        if not mask[j].any():
            mask[j, rng.integers(n)] = True
    for i in range(n):
        if not mask[:, i].any():
            mask[rng.integers(m), i] = True
    a = np.where(mask, rng.standard_normal((m, n)), 0.0)
    return ek.DataMatrix.from_dense(a)


def csr(sets) -> tuple[np.ndarray, np.ndarray]:
    """Index sets in the ``(ptr, indices)`` form the spectral functions take:
    set k is ``indices[ptr[k]:ptr[k + 1]]``, in the order given."""
    ptr = np.concatenate(([0], np.cumsum([len(j) for j in sets]))).astype(np.int64)
    return ptr, np.array([int(i) for j in sets for i in j], dtype=np.int64)


def greedy_independent_partition(graph: ek.ConflictGraph) -> list[list[int]]:
    """Greedy coloring of the conflict graph: classes are independent sets
    covering every vertex."""
    adjacency: dict[int, set[int]] = {i: set() for i in range(graph.n)}
    for a, b in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    classes: list[list[int]] = []
    for vertex in range(graph.n):
        for cls in classes:
            if not adjacency[vertex].intersection(cls):
                cls.append(vertex)
                break
        else:
            classes.append([vertex])
    return classes


def graph_spec_for(data: ek.DataMatrix) -> ek.SamplingSpec:
    """Uniformly weighted graph sampling over a greedy independent-set cover
    of the data's conflict graph."""
    graph = ek.build_conflict_graph(data)
    classes = greedy_independent_partition(graph)
    weights = [1.0 / len(classes)] * len(classes)
    return ek.graph_sampling(data.n, classes, weights, graph)


def capped_partition_spec(rng: np.random.Generator, n: int, tau: int) -> ek.SamplingSpec:
    """Proper explicit sampling with |S| <= tau surely: a shuffled partition
    of [n] into blocks of size <= tau, drawn uniformly."""
    order = rng.permutation(n)
    members = [sorted(int(i) for i in order[k : k + tau]) for k in range(0, n, tau)]
    weights = [1.0 / len(members)] * len(members)
    return ek.explicit(n, members, weights)


def matching_stepsizes(rng: np.random.Generator, data: ek.DataMatrix):
    """(label, spec, EsoResult) triples covering every stepsize formula with a
    matching sampling kind."""
    n = data.n
    out = []
    tau = int(rng.integers(1, n + 1))
    nice = ek.tau_nice(n, tau)
    out.append(("uncoupled", nice, ek.eso_uncoupled(data, nice)))
    out.append(("coupled-exact", nice, ek.eso_coupled(data, nice, "exact")))
    out.append(("coupled-bound", nice, ek.eso_coupled(data, nice, "bound")))
    out.append(("case-iii tau-nice", nice, ek.eso_specialized(data, nice)))

    capped = capped_partition_spec(rng, n, max(1, int(rng.integers(1, n + 1))))
    out.append(("case-i generic", capped, ek.compute_v(data, capped, "generic")))
    out.append(("conservative", capped, ek.eso_conservative(data, capped)))

    c = 2 if n % 2 == 0 else 1
    s = n // c
    order = rng.permutation(n)
    partition = [sorted(int(i) for i in order[l * s : (l + 1) * s]) for l in range(c)]
    ctau = ek.ctau_distributed(partition, int(rng.integers(1, s + 1)))
    out.append(("case-ii ctau", ctau, ek.eso_specialized(data, ctau)))

    q = rng.dirichlet(np.ones(n + 1))
    q[0] = 0.0
    q = q / q.sum()
    du = ek.doubly_uniform(q)
    out.append(("case-iv doubly-uniform", du, ek.eso_specialized(data, du)))

    graph_spec = graph_spec_for(data)
    out.append(("case-v graph", graph_spec, ek.eso_specialized(data, graph_spec)))

    qs = rng.dirichlet(np.ones(n)) + 1e-3
    serial_spec = ek.serial(qs / qs.sum())
    out.append(("case-vi serial", serial_spec, ek.eso_specialized(data, serial_spec)))
    return out


def every_kind(n: int = 6) -> list[ek.SamplingSpec]:
    """One small spec of every sampling kind, in a fixed order."""
    graph = ek.ConflictGraph(n, ((0, 1), (2, 3)))
    return [
        ek.elementary(n, [1, 3]),
        ek.serial([0.1, 0.2, 0.3, 0.1, 0.2, 0.1]),
        ek.tau_nice(n, 3),
        ek.ctau_distributed([[0, 5, 2], [1, 3, 4]], 2),
        ek.doubly_uniform([0.2, 0.1, 0.1, 0.2, 0.1, 0.2, 0.1]),  # mass at size 0
        ek.product_sampling([[0, 2], [1], [3, 4, 5]]),
        ek.graph_sampling(n, [[0, 2], [1, 3], [4, 5]], [0.5, 0.3, 0.2], graph),
        # A zero-weight component is never drawn.
        ek.convex_combination([0.0, 0.4, 0.6], [ek.elementary(n, [0]), ek.tau_nice(n, 2), ek.serial([1 / n] * n)]),
        ek.intersection(ek.tau_nice(n, 4), ek.doubly_uniform([0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1])),
        ek.restriction(ek.product_sampling([[0, 1], [2, 3], [4, 5]]), [0, 2, 3]),
        ek.explicit(n, [[0], [1, 2], []], [0.3, 0.3, 0.4]),
    ]
