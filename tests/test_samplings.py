import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import esokit as ek
from conftest import every_kind, random_sparse_matrix
from esokit.errors import CapacityError, ValidationError
from esokit.samplings import draw_masks, spec_from_dict, spec_to_dict, weighted_sets


def test_elementary_draw_is_deterministic():
    spec = ek.elementary(4, [0, 2])
    for seed in (0, 1, 12345):
        assert ek.draw(spec, seed) == {0, 2}


def test_tau_nice_full_cardinality_is_whole_set():
    assert ek.draw(ek.tau_nice(3, 3), 7) == {0, 1, 2}


def test_tau_nice_draw_frequencies_match_uniform_law():
    # Oracle: the three 2-subsets of {0,1,2}, each with probability 1/3.
    spec = ek.tau_nice(3, 2)
    counts = {}
    n_draws = 30_000
    # The block draw of stream 0 of seed 42.
    for row in draw_masks(spec, n_draws, rng_seed=42):
        s = tuple(np.flatnonzero(row).tolist())
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    for subset, count in counts.items():
        assert count / n_draws == pytest.approx(1 / 3, abs=0.01)


def test_draws_are_reproducible_per_stream():
    spec = ek.doubly_uniform([0.1, 0.3, 0.2, 0.4])
    a = [ek.draw(spec, 9, k) for k in range(5)]
    b = [ek.draw(spec, 9, k) for k in range(5)]
    assert a == b
    assert any(ek.draw(spec, 9, 0) != ek.draw(spec, 10, 0) for _ in range(1))


def test_enumerate_tau_nice():
    support = ek.enumerate_support(ek.tau_nice(3, 2))
    assert support == [
        ((0, 1), pytest.approx(1 / 3)),
        ((0, 2), pytest.approx(1 / 3)),
        ((1, 2), pytest.approx(1 / 3)),
    ]


def test_enumerate_serial():
    support = ek.enumerate_support(ek.serial([0.2, 0.3, 0.5]))
    assert support == [((0,), 0.2), ((1,), 0.3), ((2,), 0.5)]


def test_enumerate_restriction_of_tau_nice():
    spec = ek.restriction(ek.tau_nice(4, 2), [0, 1, 2])
    support = dict(ek.enumerate_support(spec))
    sixth = pytest.approx(1 / 6)
    assert support == {
        (0, 1): sixth,
        (0, 2): sixth,
        (1, 2): sixth,
        (0,): sixth,
        (1,): sixth,
        (2,): sixth,
    }


def test_enumerate_probabilities_sum_to_one():
    rng = ek.rng_for_stream(3, 0)
    for _ in range(50):
        spec = ek.random_spec(rng, int(rng.integers(2, 7)))
        total = math.fsum(p for _, p in ek.enumerate_support(spec))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_enumeration_cap_enforced():
    with pytest.raises(CapacityError):
        ek.enumerate_support(ek.tau_nice(20, 3))


def test_marginals_closed_forms():
    assert ek.marginals(ek.tau_nice(5, 2)) == pytest.approx(np.full(5, 0.4))
    assert ek.marginals(ek.product_sampling([[0, 1], [2]])) == pytest.approx([0.5, 0.5, 1.0])
    assert ek.marginals(ek.elementary(3, [1])) == pytest.approx([0.0, 1.0, 0.0])


def test_marginals_are_one_read_only_array_kept_with_the_spec():
    data = random_sparse_matrix(np.random.default_rng(2), 8, 6, 0.5).with_ridge_rows(0.1)
    for spec in every_kind():
        p = ek.marginals(spec)
        assert ek.marginals(spec) is p and not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 0.5
    spec = ek.tau_nice(6, 2)
    result = ek.compute_v(data, spec, "taunice")
    assert result.p is ek.marginals(spec)
    assert result.to_dict()["p"] == [2 / 6] * 6
    problem = ek.QuadraticProblem(data, ridge=0.1)
    trace = ek.solve(problem, spec, result.v, x0=np.ones(6), max_iter=12)
    assert trace.to_dict()["p"] == [2 / 6] * 6


def test_marginals_match_enumeration_on_random_specs():
    rng = ek.rng_for_stream(4, 0)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        spec = ek.random_spec(rng, n)
        exact = np.zeros(n)
        for s, p in ek.enumerate_support(spec):
            exact[list(s)] += p
        assert ek.marginals(spec) == pytest.approx(exact, abs=1e-12)


def test_proper_nil_and_moments():
    spec = ek.tau_nice(4, 2)
    assert ek.is_proper(spec) and not ek.is_nil(spec)
    assert tuple(ek.cardinality_moments(spec)) == (2.0, 4.0)

    du = ek.doubly_uniform([0.0, 0.5, 0.0, 0.5])
    first, second = ek.cardinality_moments(du)
    assert (first, second) == (2.0, 5.0)

    empty = ek.elementary(3, [])
    assert ek.is_nil(empty) and not ek.is_proper(empty)


def test_moments_match_enumeration():
    rng = ek.rng_for_stream(5, 0)
    for _ in range(40):
        spec = ek.random_spec(rng, int(rng.integers(2, 6)))
        first, second = ek.cardinality_moments(spec)
        support = ek.enumerate_support(spec)
        assert first == pytest.approx(sum(len(s) * p for s, p in support), abs=1e-12)
        assert second == pytest.approx(sum(len(s) ** 2 * p for s, p in support), abs=1e-12)


def test_intersection_moments_are_exact():
    first_spec, second_spec = ek.tau_nice(30, 7), ek.tau_nice(30, 11)
    moments = ek.cardinality_moments(ek.intersection(first_spec, second_spec))
    assert moments.method != "monte_carlo"
    # E|S1 ^ S2| = sum_i p1_i p2_i and E|S1 ^ S2|^2 = 1'(P1 o P2)1.
    assert moments.first == pytest.approx(30 * (7 / 30) * (11 / 30), abs=1e-12)
    p1 = ek.prob_matrix(first_spec, "closed_form").entries
    p2 = ek.prob_matrix(second_spec, "closed_form").entries
    assert moments.second == pytest.approx((p1 * p2).sum(), abs=1e-12)


def test_draw_masks_match_per_stream_draws():
    composite = ek.convex_combination(
        [0.4, 0.6],
        [
            ek.intersection(ek.tau_nice(6, 4), ek.doubly_uniform([0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1])),
            ek.restriction(ek.serial([0.1, 0.2, 0.3, 0.1, 0.2, 0.1]), [0, 2, 3]),
        ],
    )
    count, seed = 11, 7
    for spec in (ek.tau_nice(6, 2), composite):
        for streams in (1, 4):
            # Reference: the first count % streams streams take one draw more.
            per_stream = [count // streams] * streams
            for r in range(count % streams):
                per_stream[r] += 1
            expected = []
            for stream_index, draws in enumerate(per_stream):
                block = ek.csr._scatter(spec.n, *ek.samplings._draw_block(spec, draws, ek.rng_for_stream(seed, stream_index)))
                expected += [np.flatnonzero(row).tolist() for row in block]
            masks = draw_masks(spec, count, rng_seed=seed, streams=streams)
            assert masks.dtype == bool and masks.shape == (count, spec.n)
            assert [np.flatnonzero(row).tolist() for row in masks] == expected
        assert np.array_equal(draw_masks(spec, count, seed, streams=0), draw_masks(spec, count, seed))
        # draw() is the one-row block of its stream.
        for stream_index in range(3):
            one = ek.csr._scatter(spec.n, *ek.samplings._draw_block(spec, 1, ek.rng_for_stream(seed, stream_index)))
            assert ek.draw(spec, seed, stream_index) == frozenset(np.flatnonzero(one[0]).tolist())
        assert ek.draw(spec, seed) == frozenset(np.flatnonzero(draw_masks(spec, 1, seed)[0]).tolist())


def _all_kinds(rng, n):
    """random_spec draws every kind but the graph one; a graph sampling over
    the independent singletons and pairs of a random conflict graph joins it."""
    specs = [ek.random_spec(rng, n) for _ in range(10)]
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    graph = ek.ConflictGraph(n, edges)
    members = [[i] for i in range(n)] + [[a, b] for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    specs.append(ek.graph_sampling(n, members, rng.dirichlet(np.ones(len(members))), graph))
    return specs


@pytest.mark.parametrize("streams", [1, 3])
def test_drawn_sets_are_sorted_distinct_in_range_and_scatter_to_the_masks(streams):
    rng = ek.rng_for_stream(62, streams)
    kinds = set()
    for _ in range(12):
        for spec in _all_kinds(rng, int(rng.integers(1, 9))):
            kinds.add(spec.kind)
            count = int(rng.integers(0, 300))
            ptr, indices = ek.samplings.draw_sets(spec, count, rng_seed=5, streams=streams)
            assert ptr.shape == (count + 1,) and ptr[0] == 0 and ptr[-1] == indices.size
            assert np.all(np.diff(ptr) >= 0)
            assert indices.size == 0 or (indices.min() >= 0 and indices.max() < spec.n)
            # Strictly ascending within each set: sorted and distinct.
            inner = np.ones(indices.size, dtype=bool)
            inner[ptr[:-1][np.diff(ptr) > 0]] = False
            assert np.all(np.diff(indices)[inner[1:]] > 0)
            masks = draw_masks(spec, count, rng_seed=5, streams=streams)
            assert np.array_equal(ek.csr._scatter(spec.n, ptr, indices), masks)
    assert kinds == set(ek.samplings.ALL_KINDS)


def test_draw_inputs_are_checked():
    spec = ek.tau_nice(4, 2)
    with pytest.raises(ValidationError) as info:
        draw_masks(spec, -1)
    assert info.value.field == "count"
    assert draw_masks(spec, 0, streams=3).shape == (0, 4)
    with pytest.raises(ValidationError) as info:
        ek.draw(spec, 0, -1)
    assert info.value.field == "stream_index"


def weighted_masks(spec, *args, **kwargs):
    """The sets of weighted_sets scattered into distinct bool rows, with their weights."""
    ptr, indices, weights = weighted_sets(spec, *args, **kwargs)
    return ek.csr._scatter(spec.n, ptr, indices), weights


def test_weighted_masks_are_the_support_or_the_draws():
    rng = ek.rng_for_stream(39, 0)
    for _ in range(40):
        spec = ek.random_spec(rng, int(rng.integers(1, 8)))
        masks, weights = weighted_masks(spec)
        support = ek.enumerate_support(spec)
        assert masks.dtype == bool and masks.shape == (len(support), spec.n)
        assert [tuple(np.flatnonzero(row).tolist()) for row in masks] == [s for s, _ in support]
        assert weights.tolist() == [p for _, p in support]

        # Monte-Carlo: the distinct draws, each weighted count / trials.
        for trials in (7, 200):
            masks, weights = weighted_masks(spec, trials, rng_seed=3, streams=2)
            draws = draw_masks(spec, trials, rng_seed=3, streams=2)
            assert masks.dtype == bool and masks.shape[1] == spec.n
            assert len({row.tobytes() for row in masks}) == masks.shape[0]
            counts = np.rint(weights * trials)
            assert np.array_equal(weights, counts / trials)
            assert counts.min() >= 1 and counts.sum() == trials
            repeated = np.repeat(masks, counts.astype(int), axis=0)
            assert sorted(row.tobytes() for row in repeated) == sorted(row.tobytes() for row in draws)
    with pytest.raises(ValidationError, match="trials"):
        weighted_masks(ek.tau_nice(3, 1), -1)


@pytest.mark.parametrize("n", [9, 64, 65])
def test_weighted_masks_rows_come_in_packed_bit_order(n):
    # Up to 64 columns a row's key is one integer, beyond that a bytes key;
    # either way the distinct rows sort as their packed bits compare.
    members = [[0], [n - 1], [n // 2], [0, n - 1], [], [1, n // 2], list(range(n))]
    spec = ek.explicit(n, members, [1 / len(members)] * len(members))
    masks, weights = weighted_masks(spec, 500, rng_seed=4)
    keys = [row.tobytes() for row in np.packbits(draw_masks(spec, 500, rng_seed=4), axis=1)]
    expected = sorted(set(keys))
    assert len(expected) == len(members)
    assert [row.tobytes() for row in np.packbits(masks, axis=1)] == expected
    assert weights.tolist() == [keys.count(k) / 500 for k in expected]


def test_cardinality_cap_certifies_support_sizes():
    rng = ek.rng_for_stream(6, 0)
    for _ in range(40):
        spec = ek.random_spec(rng, int(rng.integers(2, 6)))
        cap = ek.cardinality_cap(spec)
        largest = max(len(s) for s, _ in ek.enumerate_support(spec))
        assert largest <= cap


def test_doubly_uniform_is_mixture_of_tau_nice():
    rng = ek.rng_for_stream(7, 0)
    for n in (2, 3, 5):
        q = rng.dirichlet(np.ones(n + 1))
        q = q / q.sum()
        du = dict(ek.enumerate_support(ek.doubly_uniform(q)))
        mix = dict(
            ek.enumerate_support(
                ek.convex_combination(q, [ek.tau_nice(n, t) for t in range(n + 1)])
            )
        )
        assert set(du) == set(mix)
        for key in du:
            assert du[key] == pytest.approx(mix[key], abs=1e-12)


def test_graph_sampling_draws_independent_sets():
    data = ek.DataMatrix.from_triplets(2, 3, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)])
    graph = ek.build_conflict_graph(data)
    spec = ek.graph_sampling(3, [[0, 2], [1]], [0.6, 0.4], graph)
    supports = [set(s) for s in data.row_supports]
    for k in range(200):
        drawn = ek.draw(spec, 11, k)
        assert all(len(drawn & s) <= 1 for s in supports)


def test_graph_sampling_rejects_dependent_sets():
    graph = ek.ConflictGraph(3, ((0, 1),))
    with pytest.raises(ValidationError, match="independent"):
        ek.graph_sampling(3, [[0, 1]], [1.0], graph)


def test_spec_is_validated_when_built():
    with pytest.raises(ValidationError, match="tau") as info:
        ek.SamplingSpec(n=3, kind="tau_nice", tau=5)
    assert info.value.field == "tau"


def test_validation_reports_offending_field():
    with pytest.raises(ValidationError, match="q"):
        ek.serial([0.5, 0.6])
    with pytest.raises(ValidationError, match="partition"):
        ek.ctau_distributed([[0, 1], [2]], 1)
    with pytest.raises(ValidationError, match="tau"):
        ek.tau_nice(3, 4)
    with pytest.raises(ValidationError, match="set"):
        ek.elementary(3, [5])
    with pytest.raises(ValidationError, match="blocks"):
        ek.product_sampling([[0, 1], []])


def test_conflict_graph_from_row_supports():
    data = ek.DataMatrix.from_triplets(2, 3, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0), (1, 2, 3.0)])
    assert ek.build_conflict_graph(data).edges == ((0, 1), (1, 2))

    diagonal = ek.DataMatrix.from_dense(np.eye(4))
    assert ek.build_conflict_graph(diagonal).edges == ()

    dense_row = ek.DataMatrix.from_dense(np.ones((1, 4)))
    assert ek.build_conflict_graph(dense_row).edges == tuple(
        (a, b) for a, b in itertools.combinations(range(4), 2)
    )

    rng = np.random.default_rng(17)
    data = ek.DataMatrix.from_dense(np.where(rng.random((30, 12)) < 0.25, rng.standard_normal((30, 12)), 0.0))
    dense = data.to_dense()
    pairs = {(i, k) for i, k in itertools.combinations(range(12), 2) if np.any(dense[:, i] * dense[:, k])}
    assert ek.build_conflict_graph(data).edges == tuple(sorted(pairs))


def test_json_round_trip_all_kinds():
    graph = ek.ConflictGraph(4, ((0, 1), (2, 3)))
    specs = [
        ek.elementary(4, [1, 3]),
        ek.serial([0.1, 0.2, 0.3, 0.4]),
        ek.tau_nice(4, 2),
        ek.ctau_distributed([[0, 1], [2, 3]], 1),
        ek.doubly_uniform([0.2, 0.2, 0.2, 0.2, 0.2]),
        ek.product_sampling([[0, 2], [1, 3]]),
        ek.graph_sampling(4, [[0, 2], [1, 3]], [0.5, 0.5], graph),
        ek.convex_combination([0.3, 0.7], [ek.tau_nice(4, 1), ek.tau_nice(4, 3)]),
        ek.intersection(ek.tau_nice(4, 2), ek.serial([0.25] * 4)),
        ek.restriction(ek.tau_nice(4, 3), [0, 1]),
        ek.explicit(4, [[0], [1, 2]], [0.5, 0.5]),
    ]
    for spec in specs:
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec
        assert spec_to_dict(again) == spec_to_dict(spec)


def test_product_blocks_of_size_one_always_selected():
    spec = ek.product_sampling([[0], [1, 2]])
    for k in range(20):
        assert 0 in ek.draw(spec, 3, k)


def test_tau_zero_is_nil():
    spec = ek.tau_nice(5, 0)
    assert ek.is_nil(spec)
    assert ek.enumerate_support(spec) == [((), 1.0)]


def _reference_subsets(sizes, size, rng):
    """The pool-copying partial shuffle, one row at a time, fed the integers
    the vectorized shuffle draws: rows in chunks of _CHUNK_ENTRIES // size
    (at least one), and per chunk one rng.integers(k, size, size=rows) for
    every round k up to the chunk's largest size."""
    step = max(1, ek.samplings._CHUNK_ENTRIES // size)
    out = []
    for start in range(0, len(sizes), step):
        chunk = sizes[start : start + step]
        swaps = [rng.integers(k, size, size=len(chunk)) for k in range(max(chunk))]
        for r, tau in enumerate(chunk):
            arr = np.arange(size)
            for k in range(tau):
                j = swaps[k][r]
                arr[k], arr[j] = arr[j], arr[k]
            out.append(arr[:tau].tolist())
    return out


def _reference_draws(spec, count, rng):
    if spec.kind == ek.samplings.KIND_TAU_NICE:
        return [frozenset(s) for s in _reference_subsets([spec.tau] * count, spec.n, rng)]
    if spec.kind == ek.samplings.KIND_CTAU:
        # One tau-subset per (row, block) pair, pairs in row-major order.
        blocks = spec.partition
        picked = _reference_subsets([spec.tau] * (count * len(blocks)), len(blocks[0]), rng)
        return [
            frozenset(blocks[b][i] for b in range(len(blocks)) for i in picked[r * len(blocks) + b])
            for r in range(count)
        ]
    sizes = rng.choice(spec.n + 1, size=count, p=np.asarray(spec.q)).tolist()
    return [frozenset(s) for s in _reference_subsets(sizes, spec.n, rng)]


@pytest.mark.parametrize(
    "spec",
    [
        ek.tau_nice(2000, 8),
        ek.tau_nice(70_000, 2),
        ek.tau_nice(10, 3),
        ek.tau_nice(10, 10),
        ek.tau_nice(1, 1),
        ek.ctau_distributed([[0, 5, 7, 9], [1, 2, 3, 4], [6, 8, 10, 11]], 2),
        ek.ctau_distributed([[3, 1, 2], [0, 4, 5]], 3),
        ek.doubly_uniform([0.1, 0.2, 0.0, 0.3, 0.1, 0.3]),
    ],
    ids=["nice-2000-8", "nice-70000-2", "nice-10-3", "nice-10-10", "nice-1-1", "ctau-2", "ctau-full",
         "doubly-uniform"],
)
def test_subset_draws_and_generator_state_match_the_pool_copying_shuffle(spec):
    ours, theirs = ek.rng_for_stream(61, 0), ek.rng_for_stream(61, 0)
    count = 300
    masks = ek.csr._scatter(spec.n, *ek.samplings._draw_block(spec, count, ours))
    assert [frozenset(np.flatnonzero(row).tolist()) for row in masks] == _reference_draws(spec, count, theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("spec", [*every_kind(), ek.tau_nice(600, 3)], ids=lambda spec: f"{spec.kind}-{spec.n}")
def test_one_batched_draw_equals_each_generator_drawing_alone(spec):
    # A generator without rows, chunks above and below _MERGED_ROWS, and
    # (at n = 6) a generator whose rows span two permutation chunks.
    counts = [5, 0, 700, 64, 12_000] if spec.n <= 16 else [5, 0, 300, 64]
    batched = [ek.rng_for_stream(7, s) for s in range(len(counts))]
    alone = [ek.rng_for_stream(7, s) for s in range(len(counts))]
    out = ek.csr._scatter(spec.n, *ek.samplings._draw_blocks(spec, batched, counts))
    parts = []
    for rng, count in zip(alone, counts):
        parts.append(ek.csr._scatter(spec.n, *ek.samplings._draw_block(spec, count, rng)))
    assert np.array_equal(out, np.concatenate(parts))
    assert [g.bit_generator.state for g in batched] == [g.bit_generator.state for g in alone]


@pytest.mark.parametrize("spec", every_kind(), ids=lambda spec: spec.kind)
def test_every_kind_draws_its_law(spec):
    # 40k rows over three streams: each set's frequency is within 5 standard
    # errors of its enumerated probability, no set outside the support shows
    # up, and the column means match the exact marginals the same way.
    trials, z = 40_000, 5.0
    masks = draw_masks(spec, trials, rng_seed=17, streams=3)
    support = dict(ek.enumerate_support(spec))
    rows, counts = np.unique(masks, axis=0, return_counts=True)
    drawn = {tuple(np.flatnonzero(row).tolist()): int(c) for row, c in zip(rows, counts)}
    assert set(drawn) <= set(support)
    for s, p in support.items():
        assert abs(drawn.get(s, 0) / trials - p) <= z * math.sqrt(p * (1 - p) / trials)
    p = ek.marginals(spec)
    assert np.all(np.abs(masks.mean(axis=0) - p) <= z * np.sqrt(p * (1 - p) / trials))


def test_block_draws_keep_temporaries_small():
    # The output is 5000 x 1000 bools (5 MB); the permutation chunks beside
    # it hold at most 2^16 integers, never a 5000 x 1000 integer array.
    tracemalloc.start()
    try:
        masks = draw_masks(ek.tau_nice(1000, 8), 5000, rng_seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.nbytes == 5_000_000 and np.all(masks.sum(axis=1) == 8)
    assert peak < masks.nbytes + 2_000_000


def _masks_digest(spec, streams):
    """SHA-256 of draw_masks at an odd count that spans several permutation
    chunks on one stream and splits unevenly over three, and at a count
    below the number of rows of one draw block."""
    digest = hashlib.sha256()
    for count in (30_001, 7):
        digest.update(draw_masks(spec, count, rng_seed=83, streams=streams).tobytes())
    return digest.hexdigest()


# Recorded with RNG scheme 2; any change to how a draw consumes its stream
# changes them and needs a new scheme number.
_MASK_DIGESTS = {
    ("elementary", 1): "17999c31caf795ec500102e9ef4d91476c7fb0e7fe1bc6819d5de10f4005c82b",
    ("elementary", 3): "17999c31caf795ec500102e9ef4d91476c7fb0e7fe1bc6819d5de10f4005c82b",
    ("serial", 1): "873cbf341ae92e980c28f730581268c03bd565b67a8e2217bd2262eb43fa7b3f",
    ("serial", 3): "4e3fe8f83ef5bf437bdb5de6ff003e31c45b3299b4bcb55c11bf80a2be765418",
    ("tau_nice", 1): "cd0ff8366b1cefc812a53889bde04bb92c1d7549b8ba1237c9fa9d91b85fb4ad",
    ("tau_nice", 3): "d2a6e1d7d01672f7ff01fd351c5fef621e44f3ce3973f36e95a2399872b31093",
    ("ctau_distributed", 1): "f22110126761e17f052203758081e96ecfdeb39ecc182d600f6dfe3ab7c81267",
    ("ctau_distributed", 3): "ea2a9efa9e18aa2da84c810ef4653dfedda17ae8c527653f554cd396796f0938",
    ("doubly_uniform", 1): "3afdfa4a386cfe8fb1a8b57894efb4c5c69d2fe22fc24c759cff680868eecb1f",
    ("doubly_uniform", 3): "34cc8d84a0a66271886ddc3edffae19f7d147ceb60935b0ee7714f3e52f3d1cd",
    ("product", 1): "bacb1bd524d9bef45cee59eaccc3a1ae52b4d51421186f5306d00824de3396f0",
    ("product", 3): "16aea793b9016840198fa9ef6ca1140156714a00eb92bccf0ace0ee90d334be0",
    ("graph", 1): "30a494aa98cd27f1fbaf73b97c7f450f559f1a4e5e6fcf6b4de00c5daee1c9f5",
    ("graph", 3): "a2e6528c0ff5f93ff83295b7abd15714648e23d82c70a31d2ed769df62f27b10",
    ("convex_combination", 1): "28ab79bc2d4f939d3cddd458dbd288f752a93f00245df1496c2eb090f241c938",
    ("convex_combination", 3): "a532cd673608bc2155c396b5f02ddbdec33f60ddcf037e2ca4fb0018f12492c5",
    ("intersection", 1): "1550e89367101fca7cb34918b2c2ffc1fb943c02899f65256015638c5fb0c7b9",
    ("intersection", 3): "28f0abd1e391c238723d93c921d9df6f66db1645dccf8c3c0a5c39193eab19f1",
    ("restriction", 1): "4ee88dfce922bfd9c649bd433d092beff4a839af3350f79ce4e5c4749fff00f1",
    ("restriction", 3): "5268273641736359ddf67296b87e809f4bc7fd1985acd817a50a6888962915e0",
    ("explicit", 1): "f428bdff4ef701d22e31f5f01a992b2ba8688dba9bd9d67c8e7744bdc3258f1b",
    ("explicit", 3): "1e70041de28db8d9c3cb883cb7999f57222f51f88f99c450d370c4b20403d727",
}


@pytest.mark.parametrize("spec", every_kind(), ids=lambda spec: spec.kind)
@pytest.mark.parametrize("streams", [1, 3])
def test_draw_masks_digests_are_pinned(spec, streams):
    assert _masks_digest(spec, streams) == _MASK_DIGESTS[spec.kind, streams]


def _traces_digest(spec):
    """SHA-256 of three solve_many runs' iterations, gaps and final points on
    a 12 x 6 ridge problem, with the conservative stepsizes cap * (column
    norm^2 + ridge), which need no stepsize formula."""
    rng = ek.rng_for_stream(29, 0)
    data = random_sparse_matrix(rng, 12, 6, 0.4)
    problem = ek.QuadraticProblem(data, ridge=0.2, b=rng.standard_normal(6))
    v = ek.cardinality_cap(spec) * (data.column_sq_norms + problem.ridge)
    digest = hashlib.sha256()
    for trace in ek.solve_many(problem, spec, v, n_runs=3, rng_seed=5, epsilon=1e-10):
        digest.update(repr((trace.iterations, trace.gaps)).encode())
        digest.update(trace.x_final.tobytes())
    return digest.hexdigest()


# These pin the solver's arithmetic as well as its draws.
_TRACE_DIGESTS = {
    "tau_nice": "dd7f6c4061ab5488b3690960777a19a0100cc08672723e11f4556a10b7b1fa43",
    "convex_combination": "dcd02fefb20e8c411c9b955ee80fb612c6165dd5a88406b3214ea81a305cb3c1",
}


@pytest.mark.parametrize(
    "spec",
    [ek.tau_nice(6, 3), ek.convex_combination([0.3, 0.7], [ek.serial([1 / 6] * 6), ek.tau_nice(6, 2)])],
    ids=["tau_nice", "convex_combination"],
)
def test_solve_many_trace_digests_are_pinned(spec):
    assert _traces_digest(spec) == _TRACE_DIGESTS[spec.kind]


def _many_runs_digest(tau):
    """SHA-256 of 200 solve_many runs on criterion 08's 20 x 10 problem at
    epsilon 1e-6: many runs stop inside one block of draws."""
    rng = ek.rng_for_stream(108, 0)
    data = random_sparse_matrix(rng, 20, 10, 0.3)
    problem = ek.QuadraticProblem(data, ridge=0.1, b=rng.standard_normal(10))
    spec = ek.tau_nice(10, tau)
    v = problem.stepsizes(spec, "taunice").v
    digest = hashlib.sha256()
    for trace in ek.solve_many(problem, spec, v, n_runs=200, rng_seed=8, x0=np.ones(10), epsilon=1e-6):
        digest.update(repr((trace.iterations, trace.gaps)).encode())
        digest.update(trace.x_final.tobytes())
    return digest.hexdigest()


_MANY_RUNS_DIGESTS = {
    1: "9ed0a96f56ffe747e088ed7cffd3ced4ee3206f8c5a55d93c6ac1ce2a5520c2d",
    3: "a686ad549039761b2fcdfcdf49a137fa09f565884e4c0b02d70a3afdc064c186",
}


@pytest.mark.parametrize("tau", [1, 3])
def test_many_runs_trace_digests_are_pinned(tau):
    assert _many_runs_digest(tau) == _MANY_RUNS_DIGESTS[tau]
