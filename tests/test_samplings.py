import ast
import hashlib
import itertools
import math
import re
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

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
    # Refused before any block's C(18, 9) = 48620 combinations are held.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            ek.enumerate_support(ek.ctau_distributed([range(18), range(18, 36)], 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


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
                block = ek.csr._scatter(spec.n, *ek.samplings._draw_blocks(spec, [ek.rng_for_stream(seed, stream_index)], [draws]))
                expected += [np.flatnonzero(row).tolist() for row in block]
            masks = draw_masks(spec, count, rng_seed=seed, streams=streams)
            assert masks.dtype == bool and masks.shape == (count, spec.n)
            assert [np.flatnonzero(row).tolist() for row in masks] == expected
        with pytest.raises(ValidationError, match="streams: must be positive and an integer, got 0"):
            draw_masks(spec, count, seed, streams=0)
        # draw() is the one-row block of its stream.
        for stream_index in range(3):
            one = ek.csr._scatter(spec.n, *ek.samplings._draw_blocks(spec, [ek.rng_for_stream(seed, stream_index)], [1]))
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
    assert kinds == set(ek.samplings.KINDS)


def test_draw_inputs_are_checked():
    spec = ek.tau_nice(4, 2)
    with pytest.raises(ValidationError) as info:
        draw_masks(spec, -1)
    assert info.value.field == "count"
    assert draw_masks(spec, 0, streams=3).shape == (0, 4)
    with pytest.raises(ValidationError) as info:
        ek.draw(spec, 0, -1)
    assert info.value.field == "stream_index"


@pytest.mark.parametrize("count", [2.5, True, np.float64(2.0)])
def test_a_fractional_or_bool_draw_count_is_refused_by_name(count):
    spec = ek.tau_nice(4, 2)
    for call, field in ((ek.samplings.draw_sets, "count"), (draw_masks, "count"), (weighted_sets, "trials")):
        with pytest.raises(ValidationError) as info:
            call(spec, count)
        assert info.value.field == field


@pytest.mark.parametrize("streams", [2.5, True, 0, -3, np.float64(2.0), "2"], ids=repr)
def test_a_fractional_bool_or_sub_one_streams_is_refused_by_name(streams):
    spec = ek.tau_nice(4, 2)
    data = ek.DataMatrix.from_dense(np.eye(4))
    calls = (
        lambda: ek.samplings.draw_sets(spec, 10, streams=streams),
        lambda: draw_masks(spec, 10, streams=streams),
        lambda: weighted_sets(spec, 10, streams=streams),
        lambda: ek.prob_matrix(spec, "monte_carlo", mc_samples=10, streams=streams),
        lambda: ek.check_eso_quadratic(data, spec, np.ones(4), mode="monte_carlo", trials=10, streams=streams),
    )
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.field == "streams"
    # The exact and exhaustive modes draw nothing and never read streams.
    assert weighted_sets(spec, 0, streams=streams)[2].sum() == pytest.approx(1.0)
    assert ek.prob_matrix(spec, "closed_form", streams=streams).provenance != "monte_carlo"
    assert ek.check_eso_quadratic(data, spec, np.ones(4), mode="exhaustive", streams=streams).passed


def test_numpy_integer_streams_are_taken():
    spec = ek.tau_nice(5, 2)
    for draws in (ek.samplings.draw_sets(spec, 9, 4, np.int64(3)), ek.samplings.draw_sets(spec, 9, 4, np.uint8(3))):
        assert all(np.array_equal(a, b) for a, b in zip(draws, ek.samplings.draw_sets(spec, 9, 4, 3)))


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


_NICE = {"n": 3, "kind": "tau_nice", "tau": 1}
_NICE4 = {"n": 4, "kind": "tau_nice", "tau": 1}


@pytest.mark.parametrize(
    "payload, field, message",
    [
        ({"n": 0, "kind": "tau_nice", "tau": 0}, "n", "must be positive"),
        ({"n": 3, "kind": "bogus"}, "kind", "unknown kind"),
        ({"n": 3, "kind": "elementary"}, "set", "required"),
        ({"n": 3, "kind": "elementary", "set": [1, 1]}, "set", "duplicate"),
        ({"n": 3, "kind": "elementary", "set": [3]}, "set", "must lie in"),
        ({"n": 3, "kind": "serial"}, "q", "length n"),
        ({"n": 3, "kind": "serial", "q": [0.5, 0.5]}, "q", "length n"),
        ({"n": 2, "kind": "serial", "q": [float("nan"), 1.0]}, "q", "non-finite"),
        ({"n": 2, "kind": "serial", "q": [1.5, -0.5]}, "q", "negative"),
        ({"n": 2, "kind": "serial", "q": [0.5, 0.4]}, "q", "sum to"),
        ({"n": 3, "kind": "tau_nice"}, "tau", "must lie in"),
        ({"n": 3, "kind": "tau_nice", "tau": 4}, "tau", "must lie in"),
        ({"n": 2, "kind": "ctau_distributed", "tau": 1}, "partition", "required"),
        ({"n": 2, "kind": "ctau_distributed", "partition": [], "tau": 1}, "partition", "required"),
        ({"n": 2, "kind": "ctau_distributed", "partition": [[0, 1], []], "tau": 1}, "partition", "empty block"),
        ({"n": 2, "kind": "ctau_distributed", "partition": [[0, 2]], "tau": 1}, "partition", "out of range"),
        ({"n": 3, "kind": "ctau_distributed", "partition": [[0], [1, 2]], "tau": 1}, "partition", "equal size"),
        ({"n": 4, "kind": "ctau_distributed", "partition": [[0, 1], [2, 3]]}, "tau", "must lie in"),
        ({"n": 4, "kind": "ctau_distributed", "partition": [[0, 1], [2, 3]], "tau": 3}, "tau", "must lie in"),
        ({"n": 2, "kind": "doubly_uniform", "q": [0.5, 0.5]}, "q", "one weight per cardinality"),
        ({"n": 3, "kind": "product"}, "blocks", "required"),
        ({"n": 3, "kind": "product", "blocks": []}, "blocks", "required"),
        ({"n": 3, "kind": "product", "blocks": [[0, 1], [1, 2]]}, "blocks", "two blocks"),
        ({"n": 3, "kind": "product", "blocks": [[0, 1]]}, "blocks", "do not cover"),
        ({"n": 3, "kind": "explicit", "weights": [1.0]}, "members", "required"),
        ({"n": 3, "kind": "explicit", "members": [[0]]}, "members", "required"),
        ({"n": 3, "kind": "explicit", "members": [[0], [1]], "weights": [1.0]}, "weights", "length mismatch"),
        ({"n": 3, "kind": "explicit", "members": [[0, 0]], "weights": [1.0]}, "members", "duplicate"),
        ({"n": 3, "kind": "explicit", "members": [[3]], "weights": [1.0]}, "members", "must lie in"),
        ({"n": 3, "kind": "explicit", "members": [[0], [1]], "weights": [0.5, 0.4]}, "weights", "sum to"),
        ({"n": 3, "kind": "graph", "members": [[0]], "weights": [1.0]}, "graph", "required"),
        ({"n": 3, "kind": "graph", "members": [[0, 1]], "weights": [1.0], "graph_edges": [[0, 1]]}, "members", "independent"),
        ({"n": 0, "kind": "graph", "members": [], "weights": [], "graph_edges": []}, "n", "must be positive"),
        ({"n": 3, "kind": "graph", "members": [[0]], "weights": [1.0], "graph_edges": [[1, 1]]}, "edges", "self-loop"),
        ({"n": 3, "kind": "graph", "members": [[0]], "weights": [1.0], "graph_edges": [[0, 3]]}, "edges", "out of range"),
        ({"n": 3, "kind": "convex_combination", "weights": [1.0]}, "components", "required"),
        ({"n": 3, "kind": "convex_combination", "components": [_NICE]}, "components", "required"),
        ({"n": 3, "kind": "convex_combination", "components": [], "weights": []}, "components", "required"),
        ({"n": 3, "kind": "convex_combination", "components": [_NICE], "weights": [0.5, 0.5]}, "weights", "length mismatch"),
        ({"n": 3, "kind": "convex_combination", "components": [_NICE], "weights": [0.5]}, "weights", "sum to"),
        ({"n": 3, "kind": "convex_combination", "components": [_NICE4], "weights": [1.0]}, "components", "share n"),
        ({"n": 3, "kind": "intersection", "components": [_NICE]}, "components", "exactly two"),
        ({"n": 3, "kind": "intersection", "components": [_NICE, _NICE4]}, "components", "share n"),
        ({"n": 3, "kind": "restriction", "set": [0]}, "components", "exactly one"),
        ({"n": 3, "kind": "restriction", "components": [_NICE]}, "set", "required"),
        ({"n": 3, "kind": "restriction", "components": [_NICE], "set": [1, 1]}, "set", "duplicate"),
        ({"n": 3, "kind": "restriction", "components": [_NICE4], "set": [0]}, "components", "share n"),
        # A field the kind does not read, and a key no kind reads, are refused, not kept or dropped.
        ({"n": 4, "kind": "tau_nice", "tau": 2, "q": [1.0]}, "q", "not a field of tau_nice"),
        ({"n": 3, "kind": "explicit", "members": [[0]], "weights": [1.0], "graph_edges": []}, "graph", "not a field"),
        ({"n": 3, "kind": "intersection", "components": [_NICE, _NICE], "set": [0]}, "set", "not a field"),
        ({"n": 3, "kind": "tau_nice", "taus": 1}, "taus", "unknown key"),
    ],
)
def test_every_spec_refusal_names_its_field(payload, field, message):
    with pytest.raises(ValidationError, match=message) as info:
        spec_from_dict(payload)
    assert info.value.field == field


@pytest.mark.parametrize(
    "payload, field",
    [
        (dict(kind="elementary", set=(3, 1)), "set"),
        (dict(kind="explicit", members=((2, 0), (0, 2)), weights=(0.5, 0.5)), "members"),
        (dict(kind="restriction", components=(ek.tau_nice(4, 2),), set=(2, 1)), "set"),
    ],
)
def test_direct_construction_refuses_a_set_that_does_not_ascend(payload, field):
    # Draws and enumeration hand each set on as it is given, ascending; the
    # factories and spec_from_dict sort, so only direct construction can
    # give one that does not ascend.
    with pytest.raises(ValidationError, match="ascending") as info:
        ek.SamplingSpec(n=4, **payload)
    assert info.value.field == field


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None], ids=repr)
@pytest.mark.parametrize(
    "payload, field",
    [
        (lambda x: dict(kind="elementary", set=(x, 3)), "set"),
        (lambda x: dict(kind="explicit", members=((x, 3),), weights=(1.0,)), "members"),
        (lambda x: dict(kind="restriction", components=(ek.tau_nice(4, 2),), set=(x, 3)), "set"),
    ],
    ids=["elementary", "explicit", "restriction"],
)
def test_direct_construction_refuses_an_index_that_is_not_an_integer(payload, field, bad):
    # The factories read indices through spec_from_dict's parser; a spec
    # built directly is checked for integers, which a draw's indices must be.
    with pytest.raises(ValidationError, match="must be integers") as info:
        ek.SamplingSpec(n=4, **payload(bad))
    assert info.value.field == field


_PARTITION = ((0, 1), (2, 3))


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", np.float64(1.0)], ids=repr)
@pytest.mark.parametrize(
    "kind, payload", [("tau_nice", {}), ("ctau_distributed", {"partition": _PARTITION})], ids=["tau_nice", "ctau"]
)
def test_direct_construction_refuses_a_non_integral_or_bool_tau(kind, payload, bad):
    # Such a tau would be read as p = tau / n or by math.comb, or be taken as 1.
    with pytest.raises(ValidationError, match=r"must lie in \{0, \.\.\., ") as info:
        ek.SamplingSpec(n=4, kind=kind, tau=bad, **payload)
    assert info.value.field == "tau"


@pytest.mark.parametrize("bad", [4.5, 4.0, True, "4"], ids=repr)
@pytest.mark.parametrize(
    "kind, payload", [("tau_nice", {"tau": 1}), ("serial", {"q": (0.25,) * 4})], ids=["tau_nice", "serial"]
)
def test_direct_construction_refuses_a_non_integral_or_bool_n(kind, payload, bad):
    with pytest.raises(ValidationError, match="must be an integer") as info:
        ek.SamplingSpec(n=bad, kind=kind, **payload)
    assert info.value.field == "n"


def test_factories_refuse_a_fractional_or_bool_tau_and_take_an_integral_one():
    for make in (lambda t: ek.tau_nice(4, t), lambda t: ek.ctau_distributed(_PARTITION, t)):
        for bad in (1.5, True):
            with pytest.raises(ValidationError, match="must be an integer") as info:
                make(bad)
            assert info.value.field == "tau"
        for good in (1, 1.0, np.int64(1)):
            spec = make(good)
            assert spec.tau == 1 and type(spec.tau) is int
    with pytest.raises(ValidationError, match="must be an integer") as info:
        ek.tau_nice(4.0, 2)
    assert info.value.field == "n"


@pytest.mark.parametrize(
    "build",
    [
        lambda spec: ek.convex_combination([spec], [1.0]),
        lambda spec: ek.convex_combination([1.0], []),
        lambda spec: ek.intersection(1.0, spec),
        lambda spec: ek.intersection(spec, "tau_nice"),
        lambda spec: ek.restriction(0.5, [0]),
        lambda spec: ek.SamplingSpec(n=3, kind="intersection", components=(spec, 2.0)),
        lambda spec: ek.SamplingSpec(n=3, kind="convex_combination", weights=(1.0,), components=({"n": 3},)),
    ],
    ids=["swapped-mixture", "empty-mixture", "intersection-first", "intersection-second", "restriction", "direct",
         "direct-mixture"],
)
def test_a_component_that_is_not_a_sampling_spec_is_refused_by_name(build):
    # Each raised a bare AttributeError, and the empty mixture named n.
    with pytest.raises(ValidationError) as info:
        build(ek.tau_nice(3, 1))
    assert info.value.field == "components"


@pytest.mark.parametrize(
    "direct, factory",
    [
        (lambda: ek.SamplingSpec(n=3, kind="convex_combination", weights=[1.0], components=[ek.tau_nice(3, 1)]),
         lambda: ek.convex_combination([1.0], [ek.tau_nice(3, 1)])),
        (lambda: ek.SamplingSpec(n=4, kind="ctau_distributed", partition=[[0, 1], [2, 3]], tau=1),
         lambda: ek.ctau_distributed([[0, 1], [2, 3]], 1)),
        (lambda: ek.SamplingSpec(n=4, kind="product", blocks=[[0, 1], np.array([2, 3])]),
         lambda: ek.product_sampling([[0, 1], [2, 3]])),
        (lambda: ek.SamplingSpec(n=3, kind="explicit", members=[[0], [1, 2]], weights=np.array([0.5, 0.5])),
         lambda: ek.explicit(3, [[0], [1, 2]], [0.5, 0.5])),
        (lambda: ek.SamplingSpec(n=4, kind="restriction", components=(ek.tau_nice(4, 2),), set=[0, 1]),
         lambda: ek.restriction(ek.tau_nice(4, 2), [0, 1])),
        (lambda: ek.SamplingSpec(n=3, kind="serial", q=[0.2, 0.3, 0.5]), lambda: ek.serial([0.2, 0.3, 0.5])),
    ],
    ids=["components", "partition", "blocks", "members", "set", "q"],
)
def test_direct_construction_with_lists_is_hashable_and_equal_to_the_factory_spec(direct, factory):
    # A list payload was kept as it was: hash() refused the spec, and it
    # compared unequal to the factory's.
    spec = direct()
    assert spec == factory() and hash(spec) == hash(factory())
    assert len({spec, factory()}) == 1


def _nice4(tau: int) -> dict:
    return {"n": 4, "kind": "tau_nice", "tau": tau}


def _restricted_value(x):
    return ek.lambda_prime_restricted(ek.tau_nice(4, 2), x).value


def _restricted_values(indices):
    return ek.spectral.restricted_lambda_primes(ek.tau_nice(4, 2), [0, 2], indices).tolist()


# One row per reader of a raw sampling value: the value's slot ("index" wants
# 2, "probability" 0.5, "tau" 2), the reader given x in that slot, and the
# spec_from_dict payload holding x in the same place.
_READERS = {
    "elementary": (
        "index", lambda x: ek.elementary(4, [x, 3]), lambda x: {"n": 4, "kind": "elementary", "set": [x, 3]}
    ),
    "serial": ("probability", lambda x: ek.serial([x, 0.5]), lambda x: {"n": 2, "kind": "serial", "q": [x, 0.5]}),
    "tau_nice": ("tau", lambda x: ek.tau_nice(4, x), lambda x: _nice4(x)),
    "ctau_partition": (
        "index", lambda x: ek.ctau_distributed([[x, 0], [1, 3]], 1),
        lambda x: {"n": 4, "kind": "ctau_distributed", "partition": [[x, 0], [1, 3]], "tau": 1},
    ),
    "ctau_tau": (
        "tau", lambda x: ek.ctau_distributed([[0, 1], [2, 3]], x),
        lambda x: {"n": 4, "kind": "ctau_distributed", "partition": [[0, 1], [2, 3]], "tau": x},
    ),
    "doubly_uniform": (
        "probability", lambda x: ek.doubly_uniform([x, 0.5, 0.0]),
        lambda x: {"n": 2, "kind": "doubly_uniform", "q": [x, 0.5, 0.0]},
    ),
    "product": (
        "index", lambda x: ek.product_sampling([[x, 0], [1, 3]]),
        lambda x: {"n": 4, "kind": "product", "blocks": [[x, 0], [1, 3]]},
    ),
    "graph_members": (
        "index", lambda x: ek.graph_sampling(4, [[x, 3]], [1.0], ek.ConflictGraph(4, ())),
        lambda x: {"n": 4, "kind": "graph", "members": [[x, 3]], "weights": [1.0], "graph_edges": []},
    ),
    "graph_weights": (
        "probability", lambda x: ek.graph_sampling(4, [[0], [1]], [x, 0.5], ek.ConflictGraph(4, ())),
        lambda x: {"n": 4, "kind": "graph", "members": [[0], [1]], "weights": [x, 0.5], "graph_edges": []},
    ),
    "convex_combination": (
        "probability", lambda x: ek.convex_combination([x, 0.5], [ek.tau_nice(4, 1), ek.tau_nice(4, 2)]),
        lambda x: {"n": 4, "kind": "convex_combination", "weights": [x, 0.5], "components": [_nice4(1), _nice4(2)]},
    ),
    "restriction": (
        "index", lambda x: ek.restriction(ek.tau_nice(4, 2), [x, 3]),
        lambda x: {"n": 4, "kind": "restriction", "components": [_nice4(2)], "set": [x, 3]},
    ),
    "explicit_members": (
        "index", lambda x: ek.explicit(4, [[x, 3], [0]], [0.5, 0.5]),
        lambda x: {"n": 4, "kind": "explicit", "members": [[x, 3], [0]], "weights": [0.5, 0.5]},
    ),
    "explicit_weights": (
        "probability", lambda x: ek.explicit(4, [[0], [1]], [x, 0.5]),
        lambda x: {"n": 4, "kind": "explicit", "members": [[0], [1]], "weights": [x, 0.5]},
    ),
    "conflict_graph": (
        "index", lambda x: ek.ConflictGraph(4, [[x, 3]]),
        lambda x: {"n": 4, "kind": "graph", "members": [[0]], "weights": [1.0], "graph_edges": [[x, 3]]},
    ),
    "restricted_lambda_prime": (
        "index", lambda x: _restricted_value([x, 3]),
        lambda x: {"n": 4, "kind": "restriction", "components": [_nice4(2)], "set": [x, 3]},
    ),
    "restricted_lambda_primes": (
        "index", lambda x: _restricted_values([x, 3]),
        lambda x: {"n": 4, "kind": "restriction", "components": [_nice4(2)], "set": [x, 3]},
    ),
    "conflict_graph_n": (
        "index", lambda x: ek.ConflictGraph(x, ()),
        lambda x: {"n": x, "kind": "graph", "members": [[0]], "weights": [1.0], "graph_edges": []},
    ),
}
_BAD = {"index": (1.5, True, "1"), "probability": (True, "0.5"), "tau": (2.5, 1.5, True, "1")}
_GOOD = {"index": (2.0, np.int64(2), np.float64(2.0)), "probability": (np.float64(0.5),), "tau": (2.0, np.int64(2))}


# What of spec_from_dict's spec a reader's result equals; the spec itself by default.
_VIEWS = {
    "conflict_graph": lambda spec: spec.graph,
    "restricted_lambda_prime": lambda spec: _restricted_value(spec.set),
    "restricted_lambda_primes": lambda spec: _restricted_values(list(spec.set)),
    "conflict_graph_n": lambda spec: spec.graph,
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_of_a_raw_value_refuses_and_takes_what_spec_from_dict_does(reader):
    slot, read, payload = _READERS[reader]
    for bad in _BAD[slot]:
        with pytest.raises(ValidationError) as direct:
            read(bad)
        with pytest.raises(ValidationError) as parsed:
            spec_from_dict(payload(bad))
        assert str(direct.value) == str(parsed.value) and direct.value.field == parsed.value.field
        assert direct.value.field in ("n", "set", "q", "tau", "partition", "blocks", "members", "weights", "edges")
    view = _VIEWS.get(reader, lambda spec: spec)
    for good in _GOOD[slot]:
        assert read(good) == view(spec_from_dict(payload(good)))


_FACTORIES = {
    "elementary", "serial", "tau_nice", "ctau_distributed", "doubly_uniform", "product_sampling",
    "graph_sampling", "convex_combination", "intersection", "restriction", "explicit",
}


def test_the_factories_and_the_conflict_graph_read_raw_values_only_through_the_parsers():
    # spec_from_dict's parsers are the one reader of raw sampling values; a
    # coercion of the factories' own would take what they refuse.
    tree = ast.parse(Path(ek.samplings.__file__).read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert _FACTORIES <= set(defined) and not {"_as_index_tuple", "_tau"} & set(defined)

    def called(node) -> set:
        return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    for name in _FACTORIES:
        assert not called(defined[name]) & {"int", "float", "sorted"}, name
    post_init = next(n for n in defined["ConflictGraph"].body if getattr(n, "name", None) == "__post_init__")
    assert not called(post_init) & {"int", "float"}


# Comparisons of a sampling's kind that are formula facts, not kind facts,
# and the one-set reference of the (c,tau) restriction bound.
_KIND_TESTS_OUTSIDE_THE_TABLE = {
    ("eso.py", "eso_specialized"),
    ("eso.py", "_FAMILY_IDS"),
    ("eso.py", "compute_v"),
    ("spectral.py", "ctau_restricted_bound"),
}


def _names_a_kind(expr) -> bool:
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(e) for e in expr.elts)
    if isinstance(expr, ast.Attribute):
        return expr.attr == "kind" or expr.attr.startswith("KIND_")
    return isinstance(expr, ast.Name) and expr.id.startswith("KIND_")


def test_only_the_kind_table_tests_a_sampling_kind():
    found = set()
    for path in sorted(Path(ek.samplings.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                owner = ast.unparse(statement.targets[0] if isinstance(statement, ast.Assign) else statement.target)
            else:
                owner = getattr(statement, "name", "<module>")
            for node in ast.walk(statement):
                if isinstance(node, ast.Compare) and any(map(_names_a_kind, [node.left, *node.comparators])):
                    found.add((path.name, owner))
    assert found - {("samplings.py", "KINDS")} == _KIND_TESTS_OUTSIDE_THE_TABLE


def test_every_public_function_and_class_of_the_package_has_a_reader():
    # A public name is exported by esokit, referenced from a package module
    # other than by its own definition, or named in README; one that only
    # tests read is surface to retire.
    src = Path(ek.samplings.__file__).parent
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    defined, referenced = set(), set()
    for path in sorted(src.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(statement, "name", None)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined.add((path.name, owner))
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != owner:
                    referenced.add(name)
    unread = {
        (module, name) for module, name in defined
        if name not in ek.__all__ and name not in referenced and not re.search(rf"\b{name}\b", readme)
    }
    assert not unread


def test_only_the_report_mixin_and_the_two_kept_forms_define_to_dict():
    # Every other result writes its JSON form through samplings._Report.
    found = set()
    for path in sorted(Path(ek.samplings.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in node.body
            ):
                found.add((path.name, node.name))
    assert found == {
        ("samplings.py", "_Report"),
        ("samplings.py", "SamplingSpec"),
        ("probability.py", "ProbMatrix"),
    }


def test_a_report_writes_its_fields_through_plain_and_its_verdict_as_pass():
    @dataclass(frozen=True)
    class Checked(ek.samplings._Report):
        passed: bool
        values: np.ndarray
        rows: tuple[dict, ...]
        spec: ek.SamplingSpec
        graph: ek.ConflictGraph
        missing: np.ndarray | None = None

    @dataclass(frozen=True)
    class Summary(ek.samplings._Report):
        checks: dict
        nested: Checked

        @property
        def passed(self) -> bool:
            return self.nested.passed

    checked = Checked(False, np.array([[1.0, 2.5]]), ({"a": (1, 2)},), ek.tau_nice(3, 2), ek.ConflictGraph(3, ((0, 2),)))
    expected = {
        "pass": False,
        "values": [[1.0, 2.5]],
        "rows": [{"a": [1, 2]}],
        "spec": {"n": 3, "kind": "tau_nice", "tau": 2},
        "graph": [[0, 2]],
        "missing": None,
    }
    assert list(checked.to_dict().items()) == list(expected.items())
    summary = Summary({"x": {"cases": np.arange(2)}}, checked).to_dict()
    assert list(summary.items()) == [("checks", {"x": {"cases": [0, 1]}}), ("nested", expected), ("pass", False)]


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
    masks = ek.csr._scatter(spec.n, *ek.samplings._draw_blocks(spec, [ours], [count]))
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
        parts.append(ek.csr._scatter(spec.n, *ek.samplings._draw_blocks(spec, [rng], [count])))
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
