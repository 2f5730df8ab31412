import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import esokit as ek
from conftest import csr, every_kind
from esokit import probability, spectral
from esokit.errors import UnsupportedMethodError, ValidationError
from esokit.probability import write_csv
from esokit.samplings import draw_masks

ROOT = Path(__file__).resolve().parents[1]


def test_tau_nice_closed_form_entries():
    pm = ek.prob_matrix(ek.tau_nice(3, 2), "closed_form")
    expected = np.full((3, 3), 1 / 3)
    np.fill_diagonal(expected, 2 / 3)
    assert pm.entries == pytest.approx(expected, abs=1e-15)


def test_ctau_closed_form_entries():
    spec = ek.ctau_distributed([[0, 1], [2, 3]], 1)
    pm = ek.prob_matrix(spec, "closed_form")
    expected = np.full((4, 4), 1 / 4)
    expected[0, 1] = expected[1, 0] = 0.0
    expected[2, 3] = expected[3, 2] = 0.0
    np.fill_diagonal(expected, 1 / 2)
    assert pm.entries == pytest.approx(expected, abs=1e-15)


def test_doubly_uniform_closed_form_entries():
    pm = ek.prob_matrix(ek.doubly_uniform([0.0, 0.5, 0.0, 0.5]), "closed_form")
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 2 / 3)
    assert pm.entries == pytest.approx(expected, abs=1e-15)


def test_elementary_probability_matrix_is_rank_one():
    pm = ek.prob_matrix(ek.elementary(3, [0, 2]), "closed_form")
    ind = np.array([1.0, 0.0, 1.0])
    assert pm.entries == pytest.approx(np.outer(ind, ind))
    assert np.linalg.matrix_rank(pm.entries) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_matches_enumeration_tau_nice(n):
    for tau in range(n + 1):
        spec = ek.tau_nice(n, tau)
        closed = ek.prob_matrix(spec, "closed_form").entries
        enumerated = ek.prob_matrix(spec, "enumerate").entries
        assert np.max(np.abs(closed - enumerated)) <= 1e-12


def test_closed_form_matches_enumeration_product_and_serial():
    rng = ek.rng_for_stream(21, 0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        parts = int(rng.integers(1, n + 1))
        order = rng.permutation(n)
        cuts = sorted(rng.choice(np.arange(1, n), size=parts - 1, replace=False)) if parts > 1 else []
        blocks, start = [], 0
        for c in list(cuts) + [n]:
            blocks.append([int(i) for i in order[start:c]])
            start = c
        spec = ek.product_sampling(blocks)
        assert np.max(
            np.abs(
                ek.prob_matrix(spec, "closed_form").entries
                - ek.prob_matrix(spec, "enumerate").entries
            )
        ) <= 1e-12

        q = rng.dirichlet(np.ones(n))
        spec = ek.serial(q / q.sum())
        assert np.max(
            np.abs(
                ek.prob_matrix(spec, "closed_form").entries
                - ek.prob_matrix(spec, "enumerate").entries
            )
        ) <= 1e-12


def test_closed_form_refused_for_composite_kinds():
    spec = ek.restriction(ek.tau_nice(4, 2), [0, 1])
    with pytest.raises(UnsupportedMethodError):
        ek.prob_matrix(spec, "closed_form")


def test_prob_matrix_refuses_an_unknown_method_and_no_samples():
    spec = ek.tau_nice(4, 2)
    with pytest.raises(UnsupportedMethodError, match="unknown method 'exact'"):
        ek.prob_matrix(spec, "exact")
    for samples in (0, -5):
        with pytest.raises(ValidationError, match="must be positive") as info:
            ek.prob_matrix(spec, "monte_carlo", mc_samples=samples)
        assert info.value.field == "mc_samples"


@pytest.mark.parametrize("samples", [2.5, True, np.float64(2.0)])
def test_prob_matrix_refuses_a_fractional_or_bool_sample_count(samples):
    with pytest.raises(ValidationError) as info:
        ek.prob_matrix(ek.tau_nice(4, 2), "monte_carlo", mc_samples=samples)
    assert info.value.field == "mc_samples"


def test_auto_is_exact_for_composites_of_closed_form_kinds():
    # Restriction of a tau-nice sampling at n far beyond the enumeration cap.
    spec = ek.restriction(ek.tau_nice(100, 7), range(10))
    pm = ek.prob_matrix(spec, "auto")
    assert pm.provenance != "monte_carlo"
    sub = pm.entries[:10, :10]
    beta = 6 / 99
    expected = (7 / 100) * ((1 - beta) * np.eye(10) + beta * np.ones((10, 10)))
    assert sub == pytest.approx(expected, abs=1e-15)
    assert np.max(np.abs(pm.entries[10:, :])) == 0.0


def _p(spec):
    return ek.prob_matrix(spec, "auto").entries


def test_combine_convex_identity_and_mixture():
    nice = _p(ek.tau_nice(3, 2))
    assert np.array_equal(_p(ek.convex_combination([1.0], [ek.tau_nice(3, 2)])), nice)

    mix = _p(ek.convex_combination([0.5, 0.5], [ek.tau_nice(3, 1), ek.tau_nice(3, 3)]))
    assert np.array_equal(mix, 0.5 * _p(ek.tau_nice(3, 1)) + 0.5 * _p(ek.tau_nice(3, 3)))
    du = _p(ek.doubly_uniform([0.0, 0.5, 0.0, 0.5]))
    assert mix == pytest.approx(du, abs=1e-15)

    points = _p(ek.convex_combination([0.5, 0.5], [ek.elementary(2, [0]), ek.elementary(2, [1])]))
    assert np.array_equal(points, np.diag([0.5, 0.5]))


def test_intersect_hadamard():
    nice = _p(ek.tau_nice(3, 2))
    assert np.array_equal(_p(ek.intersection(ek.tau_nice(3, 2), ek.elementary(3, [0, 1, 2]))), nice)

    block = _p(ek.intersection(ek.tau_nice(3, 2), ek.elementary(3, [0, 1])))
    assert np.array_equal(block, nice * _p(ek.elementary(3, [0, 1])))
    expected = np.zeros((3, 3))
    expected[:2, :2] = [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]
    assert block == pytest.approx(expected)
    # Same law as the restricted sampling.
    direct = ek.prob_matrix(ek.restriction(ek.tau_nice(3, 2), [0, 1]), "enumerate")
    assert block == pytest.approx(direct.entries, abs=1e-12)

    q1, q2 = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.3])
    prod = _p(ek.intersection(ek.serial(q1), ek.serial(q2)))
    assert np.array_equal(prod, np.diag(q1 * q2))


def test_restrict_matrix():
    nice = _p(ek.tau_nice(4, 2))
    assert np.array_equal(_p(ek.restriction(ek.tau_nice(4, 2), range(4))), nice)

    sub = _p(ek.restriction(ek.tau_nice(4, 2), [0, 1, 2]))
    mask = np.array([1.0, 1.0, 1.0, 0.0])
    assert np.array_equal(sub, nice * np.outer(mask, mask))
    expected = np.zeros((4, 4))
    expected[:3, :3] = np.full((3, 3), 1 / 6)
    np.fill_diagonal(expected[:3, :3], 1 / 2)
    assert sub == pytest.approx(expected)

    assert not np.any(_p(ek.restriction(ek.tau_nice(4, 2), [])))


def test_probability_matrices_are_psd_with_marginal_diagonal():
    rng = ek.rng_for_stream(22, 0)
    for _ in range(60):
        spec = ek.random_spec(rng, int(rng.integers(2, 7)))
        pm = ek.prob_matrix(spec, "auto")
        assert np.linalg.eigvalsh(pm.entries)[0] >= -1e-10
        assert np.diag(pm.entries) == pytest.approx(ek.marginals(spec), abs=1e-12)


def test_marginals_are_the_diagonal_of_exact_p_bit_for_bit():
    # p and P's diagonal come from one sum for every kind and composite.
    rng = ek.rng_for_stream(2029, 0)
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        spec = ek.samplings.random_spec(rng, n, max_depth=3)
        assert np.array_equal(ek.marginals(spec), np.diagonal(probability.exact_grid(spec)[0])), spec


def test_mixture_spec_matches_combined_components():
    rng = ek.rng_for_stream(23, 0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        comps = [ek.random_spec(rng, n) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        w = w / w.sum()
        spec = ek.convex_combination(w, comps)
        # The mixture rule sums its components' entries in order.
        combined = sum(wi * _p(c) for wi, c in zip(spec.weights, comps))
        assert np.array_equal(_p(spec), combined)


def test_uniform_specs_have_constant_diagonal():
    for spec in (
        ek.tau_nice(5, 3),
        ek.doubly_uniform([0.1, 0.2, 0.3, 0.2, 0.1, 0.1]),
        ek.ctau_distributed([[0, 1, 2], [3, 4, 5]], 2),
    ):
        pm = ek.prob_matrix(spec, "auto")
        first, _ = ek.cardinality_moments(spec)
        assert np.diag(pm.entries) == pytest.approx(np.full(spec.n, first / spec.n), abs=1e-12)


def test_check_identities_exact():
    spec = ek.tau_nice(3, 2)
    rng = ek.rng_for_stream(24, 0)
    m = rng.standard_normal((3, 3))
    report = ek.check_identities(spec, m, np.ones(3))
    assert report.mode == "exact"
    assert report.results["first_moment"]["lhs"] == pytest.approx(2.0)
    assert report.results["second_moment"]["lhs"] == pytest.approx(4.0)
    assert report.max_discrepancy <= 1e-10


def test_check_identities_elementary_hadamard_is_exact_restriction():
    spec = ek.elementary(4, [1, 2])
    rng = ek.rng_for_stream(25, 0)
    m = rng.standard_normal((4, 4))
    report = ek.check_identities(spec, m, rng.standard_normal(4))
    assert report.results["hadamard_matrix"]["discrepancy"] == 0.0


def test_check_identities_monte_carlo():
    spec = ek.tau_nice(4, 2)
    rng = ek.rng_for_stream(26, 0)
    report = ek.check_identities(spec, rng.standard_normal((4, 4)), rng.standard_normal(4), trials=20_000)
    assert report.mode == "monte_carlo"
    assert report.max_discrepancy < 0.1
    with pytest.raises(ValidationError, match="trials"):
        ek.check_identities(spec, np.eye(4), np.ones(4), trials=10)


def _identities_by_loop(spec, m, h, trials, rng_seed):
    """The six expectations of check_identities summed one set at a time."""
    if trials == 0:
        draws = [(np.asarray(s, dtype=int), w) for s, w in ek.enumerate_support(spec)]
    else:
        draws = [(np.flatnonzero(row), 1.0 / trials) for row in draw_masks(spec, trials, rng_seed)]
    hadamard = np.zeros((spec.n, spec.n))
    quad = sq_sum = lin = card2 = card = 0.0
    for idx, w in draws:
        sub = m[np.ix_(idx, idx)]
        hs = h[idx]
        hadamard[np.ix_(idx, idx)] += w * sub
        quad += w * float(hs @ sub @ hs)
        sq_sum += w * float(hs.sum()) ** 2
        lin += w * float(hs.sum())
        card2 += w * idx.size**2
        card += w * idx.size
    p = ek.prob_matrix(spec, "auto").entries
    return {
        "hadamard_matrix": float(np.max(np.abs(p * m - hadamard))),
        "quadratic_form": quad,
        "square_of_sum": sq_sum,
        "diagonal_linear": lin,
        "second_moment": card2,
        "first_moment": card,
    }


def test_check_identities_refuse_a_wrongly_shaped_m_or_h():
    spec = ek.tau_nice(4, 2)
    for m, h, field in (
        (np.eye(3), np.ones(4), "m_matrix"),
        (np.ones(4), np.ones(4), "m_matrix"),
        (np.eye(4), np.ones(3), "h"),
        (np.eye(4), np.ones((4, 1)), "h"),
    ):
        with pytest.raises(ValidationError, match="expected shape") as info:
            ek.check_identities(spec, m, h)
        assert info.value.field == field


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_check_identities_refuse_a_non_finite_m_or_h(bad):
    # A NaN loses every max (the discrepancy read 0.0) and an inf overflows.
    spec = ek.tau_nice(3, 2)
    m = np.eye(3)
    m[0, 1] = bad
    for args, field in (((np.eye(3), [1.0, bad, 0.0]), "h"), ((m, np.ones(3)), "m_matrix")):
        with pytest.raises(ValidationError, match="non-finite") as info:
            ek.check_identities(spec, *args)
        assert info.value.field == field


@pytest.mark.parametrize("stack_entries", [ek.csr._STACK_ENTRIES, 5])
def test_check_identities_match_the_per_set_loop(stack_entries, monkeypatch):
    monkeypatch.setattr(ek.csr, "_STACK_ENTRIES", stack_entries)
    rng = ek.rng_for_stream(27, 0)
    for k in range(30):
        spec = ek.random_spec(rng, int(rng.integers(2, 7)))
        m = rng.standard_normal((spec.n, spec.n))
        h = rng.standard_normal(spec.n)
        trials = 0 if k % 3 else 1_500
        report = ek.check_identities(spec, m, h, trials=trials, rng_seed=k)
        expected = _identities_by_loop(spec, m, h, trials, k)
        for name, value in expected.items():
            got = report.results[name]
            if name == "hadamard_matrix":
                assert got["discrepancy"] == pytest.approx(value, rel=1e-9, abs=1e-12)
            else:
                assert got["rhs"] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_monte_carlo_identities_memory_stays_near_the_masks():
    # The 10,000 x 400 bool masks take 3.8 MB; one float copy of them is 31 MB.
    spec = ek.tau_nice(400, 5)
    rng = ek.rng_for_stream(28, 0)
    m, h = rng.standard_normal((400, 400)), rng.standard_normal(400)
    tracemalloc.start()
    try:
        report = ek.check_identities(spec, m, h, trials=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.max_discrepancy < 0.2
    assert peak < 16 * 2**20, peak


def test_monte_carlo_matrix_is_the_mean_of_integer_counts():
    # Counts are integers, so any summation order and any float type that
    # holds them exactly give the same matrix bits as a float64 product.
    mixture = ek.convex_combination([0.5, 0.5], [ek.tau_nice(6, 3), ek.serial([1 / 6] * 6)])
    # The last case spans several float32 count blocks.
    for spec, samples, streams in ((mixture, 700, 1), (mixture, 301, 3), (ek.tau_nice(200, 8), 3001, 2)):
        masks = draw_masks(spec, samples, rng_seed=9, streams=streams).astype(np.float64)
        mean = (masks.T @ masks) / samples
        mean = np.clip(0.5 * (mean + mean.T), 0.0, 1.0)
        pm = ek.prob_matrix(spec, "monte_carlo", mc_samples=samples, rng_seed=9, streams=streams)
        assert np.array_equal(pm.entries, mean)


def test_enumerated_matrix_is_the_weighted_sum_over_the_support():
    rng = ek.rng_for_stream(28, 0)
    for _ in range(30):
        spec = ek.random_spec(rng, int(rng.integers(2, 8)))
        expected = np.zeros((spec.n, spec.n))
        for s, w in ek.enumerate_support(spec):
            expected[np.ix_(s, s)] += w
        np.testing.assert_allclose(ek.prob_matrix(spec, "enumerate").entries, expected, rtol=0, atol=1e-14)


def test_monte_carlo_probability_matrix():
    spec = ek.tau_nice(5, 2)
    pm = ek.prob_matrix(spec, "monte_carlo", mc_samples=20_000, rng_seed=1, streams=4)
    assert pm.provenance == "monte_carlo"
    assert pm.mc_samples == 20_000
    exact = ek.prob_matrix(spec, "closed_form")
    assert np.max(np.abs(pm.entries - exact.entries)) < 6 * pm.max_stderr + 1e-9
    assert pm.entries == pytest.approx(pm.entries.T)

    again = ek.prob_matrix(spec, "monte_carlo", mc_samples=20_000, rng_seed=1, streams=4)
    assert np.array_equal(pm.entries, again.entries)


def test_csv_round_trip(tmp_path):
    pm = ek.prob_matrix(ek.tau_nice(4, 2))
    path = tmp_path / "p.csv"
    write_csv(pm, path)
    again = np.loadtxt(path, delimiter=",", comments="#")
    assert again.shape == (4, 4)
    assert np.array_equal(again, pm.entries)
    header = path.read_text().splitlines()[0]
    assert header == "# prob_matrix n=4 provenance=closed_form"


def test_invariant_off_diagonal_dominated_by_diagonal():
    with pytest.raises(ValidationError):
        ek.ProbMatrix(2, np.array([[0.2, 0.4], [0.4, 0.9]]), "enumerated")


@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_nan_entry_is_rejected(where):
    # NaN passes the range and diagonal-cap comparisons; the symmetry check
    # is what rejects it, on the diagonal as off it.
    entries = np.array([[0.5, 0.25], [0.25, 0.5]])
    entries[where] = np.nan
    with pytest.raises(ValidationError, match="not symmetric"):
        ek.ProbMatrix(2, entries, "enumerated")


@pytest.mark.parametrize("bad, message", [(np.inf, "outside"), (-0.1, "outside"), (0.3, "not symmetric")])
def test_invalid_entries_are_named(bad, message):
    entries = np.array([[0.5, 0.25], [0.25, 0.5]])
    entries[1, 0] = bad
    if message == "outside":
        entries[0, 1] = bad
    with pytest.raises(ValidationError, match=message):
        ek.ProbMatrix(2, entries, "enumerated")


@pytest.mark.parametrize(
    "change, message",
    [
        ((0, 1, -0.1), "outside"),
        ((1, 0, 0.3), "not symmetric"),
        ((0, 0, np.nan), "not symmetric"),
        (None, "off-diagonal"),
    ],
)
def test_a_stack_is_refused_as_its_worst_matrix(change, message):
    # The last matrix alone is refused with the same message as the stack.
    good = np.array([[0.5, 0.25], [0.25, 0.5]])
    bad = np.array([[0.2, 0.4], [0.4, 0.9]]) if change is None else good.copy()
    if change is not None:
        bad[change[:2]] = change[2]
        if message == "outside":
            bad[change[1], change[0]] = change[2]
    for check in (
        lambda: ek.ProbMatrix(2, bad, "enumerated"),
        lambda: probability._check_entries(np.stack([good, good, bad]), 1e-12),
    ):
        with pytest.raises(ValidationError, match=message):
            check()
    probability._check_entries(np.stack([good, good]), 1e-12)


@pytest.mark.parametrize("stack_entries", [ek.csr._STACK_ENTRIES, 16])
def test_an_enumerated_stack_is_each_enumerated_p(stack_entries, monkeypatch):
    # 16 indices end a run of specs every spec or few.
    monkeypatch.setattr(ek.csr, "_STACK_ENTRIES", stack_entries)
    rng = ek.rng_for_stream(5, 0)
    specs = [ek.random_spec(rng, 4) for _ in range(12)]
    stack = probability._enumerated_stack(specs)
    for spec, entries in zip(specs, stack):
        assert entries.tobytes() == ek.prob_matrix(spec, "enumerate").entries.tobytes()


def _explicit_mixture():
    """A mixture whose explicit component sums 110 weighted sets of up to 100
    indices into its enumerated P: any change to the order of that sum
    moves its digests."""
    n, count = 100, 110
    rng = ek.rng_for_stream(47, 0)
    members = [rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist() for _ in range(count)]
    explicit = ek.explicit(n, members, rng.dirichlet(np.ones(count)))
    return ek.convex_combination([0.5, 0.5], [explicit, ek.tau_nice(n, 3)])


_DIGEST_SPECS = [*every_kind(), _explicit_mixture()]
_DIGEST_IDS = [spec.kind for spec in every_kind()] + ["explicit_mixture"]


def _restriction_sets(spec):
    """Every subset of the support of the marginals at n = 6 (the empty set
    too); at n = 100, 150 random sets of up to 12 indices and one of 40."""
    support = np.flatnonzero(ek.marginals(spec) > 0).tolist()
    if spec.n <= 6:
        return [c for r in range(len(support) + 1) for c in itertools.combinations(support, r)]
    rng = ek.rng_for_stream(48, 0)
    sets = [rng.choice(spec.n, size=int(rng.integers(0, 13)), replace=False).tolist() for _ in range(150)]
    return sets + [list(range(30, 70))]


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# Any change to the arithmetic that builds the exact P or its restricted
# blocks changes these.
_P_DIGESTS = {
    "elementary": "1e46e88433e0abac4b78858e1e786a023f0f237191ef32424c4aa9c0d5dd176f",
    "serial": "21cd5e1080008104d3d0c91d076856a9c62d921ede866ec818c0ef21756dfc3e",
    "tau_nice": "1fc343bce3d240650447b0ba0d4dc78132a412da180c67c876f6e839127bf9d6",
    "ctau_distributed": "37c6d39f3a8d135a983262ae2a2d1b61ea33f4bcaf883cdec53781a435727626",
    "doubly_uniform": "a53aa0ab600c91785160b26267b9ba2a12f004ee82519cf4776b28a7bb6ff3a0",
    "product": "eac8a2b067dfc7c78e299cffc3ea0ce3cf9ba53bb7561fc2c31d1633d998c47d",
    "graph": "69cff160bcfd5336a9202af3dad087353c853e96c2139c2cf4550cb8d3ec2060",
    "convex_combination": "c041f1dbb789a52a726a1a1b77105f985fa4e2f7b1443b03aac850004d8c7479",
    "intersection": "31a2754b2a070e2fe62456759d3d73a95527b5d114dc0688f6274278aa47ddfb",
    "restriction": "9368e7b7ec16dd7adae0dc72cf9069028333106053f8a67bc489510579a073be",
    "explicit": "b4418454c0f74ee026e29bf5e027b23dbca22e7d2ab96993ecdd38a7fc5d42c6",
    "explicit_mixture": "aba5d37303b45becf59d2f8ddb3d12c30280768bb71c63e48582083dcdae38c2",
}
_RESTRICTED_DIGESTS = {
    ("elementary", "exact"): "92bc32054257afb5ba8fdf868f59032d54c96f2f290b80f757b14c797faaa81e",
    ("serial", "exact"): "f2d7d9f3661db7766dadb964a7ce00867056d1e792c7d4c2003a8532a744f427",
    ("tau_nice", "exact"): "a46ef5652a48424e16af6f49954ff280a77889585ef74084ee2cc720603d833b",
    ("ctau_distributed", "exact"): "04ab3650afc97ab542369f2cd516e8f2018519cae5f04d89942bbf5bf21ab1fb",
    ("doubly_uniform", "exact"): "b3b11ebea4987649a02a6d4c744c68a4fc54cf0525505aacd40b8985e41df983",
    ("product", "exact"): "ceddb331e776c646fe41d3863967bfb6b613a02370a8f90bd8fb08ed2cba774e",
    ("graph", "exact"): "74d48357b9e7ebefc9b3a71ad43034d298e3570c9ad5acc9399660945967bf81",
    ("convex_combination", "exact"): "f4b5a086f4e33de0a6f29fe690d54cb1160b5bbae9a2b59912ba7c2bf423a451",
    ("intersection", "exact"): "36ab03d361bc0295f18ff290e71d0fc14525922a2a6cd5b6af9f920445cd9927",
    ("restriction", "exact"): "59fbaccd53b63055e85fee2231273cee81239aba4dda2ec9eb408bd0c4ff11c1",
    ("explicit", "exact"): "cf4806372c85ee3801709b9075dc7daaa4cf09c01a797fd226225a88a41f1c15",
    ("explicit_mixture", "exact"): "8dc8fee5aae4a07cb26c5f124e011db71cb68b880f1eacfc0f9063cc518f04db",
    ("elementary", "bound"): "92bc32054257afb5ba8fdf868f59032d54c96f2f290b80f757b14c797faaa81e",
    ("serial", "bound"): "b6d21acfe48fd3cd1da6ae57a947d7c15f9263fac01f0c131027a5b98ac95f1f",
    ("tau_nice", "bound"): "2e8bc590cbb599ecb91751f4d1a2657a7e9ec5f5ed50a39fcacf982325616a53",
    ("ctau_distributed", "bound"): "7eca82a8c105062abda9195cb81d5bb8c29ac65b001b340924c6996dda43f206",
    ("doubly_uniform", "bound"): "468b9f7b45d39820066a60e50ed0d42565b9d19c545240e04bfb487b522f6467",
    ("product", "bound"): "7e85e383cbfed3c08f7584112de96735133c199e335138b3335b5bf793dc8055",
    ("graph", "bound"): "7cd2596f7aa49d0d3a028062259b27623d819a0e11e97d7c016d66e7184ee4c2",
    ("convex_combination", "bound"): "7cd2596f7aa49d0d3a028062259b27623d819a0e11e97d7c016d66e7184ee4c2",
    ("intersection", "bound"): "b4dfcd3698a08a9934b42461a4ea2b4ca5b5ed92d81a83fc828c5eb81f290750",
    ("restriction", "bound"): "e09fb79756fbdbe37c62b9add6f63d3f3ecf3907d35d7f70f517b553ca63c409",
    ("explicit", "bound"): "9eae319902158f67e97a0e2190014f4062c8963526d6ff58ab053f47fa304be3",
    ("explicit_mixture", "bound"): "922e66204fa7d352eefc644ed5391d2f102b0dec3020d39ce82c640edc36db09",
}


@pytest.mark.parametrize("spec", _DIGEST_SPECS, ids=_DIGEST_IDS)
def test_exact_probability_matrix_digests_are_pinned(spec, request):
    name = request.node.callspec.id
    assert _sha256(ek.prob_matrix(spec, "auto").entries) == _P_DIGESTS[name]


@pytest.mark.parametrize("method", ["exact", "bound"])
@pytest.mark.parametrize("spec", _DIGEST_SPECS, ids=_DIGEST_IDS)
def test_restricted_lambda_prime_digests_are_pinned(spec, method, request):
    name = request.node.callspec.id.rsplit("-", 1)[0]
    values = spectral.restricted_lambda_primes(spec, *csr(_restriction_sets(spec)), method)
    assert _sha256(values) == _RESTRICTED_DIGESTS[name, method]


# Any change to a kind's cardinality cap, its cardinality moments (values
# and method), its lambda bounds or its enumerated support changes these.
_FACTS_DIGESTS = {
    "elementary": "69762e824206342e86f863c4cfd3f1f576c92aa9aa453d64473f6ff0c4de97d8",
    "serial": "c510e6a0e9989ca46ac6246b45c630cd86505fe4d69b1526b29323db448f17c0",
    "tau_nice": "af125ebc0c8ac1dddbb6a65b2523305d9093c5dd2f5d406c2a13d91b0126dc0e",
    "ctau_distributed": "ad3e5d3434c7045716261f6761ed8c8b1b08c81d3985c71f5b29fff1c784a24c",
    "doubly_uniform": "01f9399f3cb19866f2cae6f25e2006284e869fb06d4daf773aa92aa021b45307",
    "product": "6ef85a8184afe107e27e2938a7c4278cc0463a1260031fe667eae73d8572c0b0",
    "graph": "72835576a6e6b28f4259424776d5bb8f004110eaae55c4efaf00495518476cd6",
    "convex_combination": "1e10712a461357c19d4bf3074771348ed0f2f82bce64aa815150da4d22eea4c3",
    "intersection": "3589112d53b31c7fa6a51e490050eba16bdaabf1809b7ae7cc4b6f94e6b0ac6a",
    "restriction": "08c160a0abe3884c8f541dce4bda8afeb5ee7ae0951ed93322865a85b272feea",
    "explicit": "c2225c7a65dfa5793bc9d569854692e9cfc783b5523324d6a542d817aa3b8883",
}


@pytest.mark.parametrize("spec", every_kind(), ids=[spec.kind for spec in every_kind()])
def test_kind_facts_digests_are_pinned(spec):
    # JSON writes each float by its repr, which gives back its bits.
    moments = ek.samplings.cardinality_moments(spec)
    facts = {
        "cap": ek.samplings.cardinality_cap(spec),
        "moments": [moments.first, moments.second, moments.method],
        "bounds": ek.lambda_bounds(spec).to_dict(),
        "support": ek.enumerate_support(spec),
    }
    digest = hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest()
    assert digest == _FACTS_DIGESTS[spec.kind]


def test_every_exact_rule_is_exactly_symmetric():
    # What lets restricted_lambda_primes skip the one-set form's
    # symmetrization of each block without changing a bit. The certificate
    # overwrites exact_grid's buffer without building a ProbMatrix, so this
    # is also where every grid meets ProbMatrix's range, symmetry and
    # off-diagonal <= min(diagonal pair) checks.
    rng = ek.rng_for_stream(49, 0)
    specs = [*every_kind(), _explicit_mixture()]
    specs += [ek.random_spec(rng, int(rng.integers(1, 9))) for _ in range(200)]
    for spec in specs:
        entries, tag = probability.exact_grid(spec)
        assert np.array_equal(entries, entries.T), spec.kind
        assert entries.dtype == np.float64 and entries.flags.writeable, spec.kind
        assert not np.shares_memory(entries, probability.exact_grid(spec)[0]), spec.kind
        assert ek.ProbMatrix(spec.n, entries, tag).provenance != "monte_carlo", spec.kind


_P_BYTES_SCRIPT = """
import json
import numpy as np
import esokit as ek
from test_probability import _explicit_mixture
from conftest import random_sparse_matrix
spec = _explicit_mixture()
data = random_sparse_matrix(ek.rng_for_stream(50, 0), 40, spec.n, 0.1)
print(json.dumps({
    "p": ek.prob_matrix(spec).entries.tobytes().hex(),
    "v": ek.compute_v(data, spec, "coupled-exact").v.tobytes().hex(),
}))
"""


def _p_bytes(threads: int) -> dict:
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", _P_BYTES_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_the_enumerated_p_does_not_depend_on_the_blas_thread_count():
    # The explicit component's P and the coupled-exact v read from it give
    # the same bytes with one BLAS thread and with two.
    one, two = _p_bytes(1), _p_bytes(2)
    assert one == two


def test_monte_carlo_matrix_memory_grows_with_the_draws_not_with_n():
    # 200,000 draws of 8 of 500 indices: bool rows would take 100 MB, their
    # index lists 12.8 MB.
    tracemalloc.start()
    try:
        pm = ek.prob_matrix(ek.tau_nice(500, 8), "monte_carlo", mc_samples=200_000, rng_seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pm.mc_samples == 200_000 and abs(np.trace(pm.entries) - 8.0) < 1e-9
    assert peak < 40 * 2**20, peak


@pytest.mark.parametrize("method", ["auto", "closed_form", "enumerate", "monte_carlo"])
def test_probability_matrix_refuses_n_above_the_dense_cap(monkeypatch, method):
    def refuse(*args, **kwargs):
        raise AssertionError("the probability matrix was evaluated, enumerated or drawn before refusing")

    specs = (ek.tau_nice(5, 2), ek.explicit(5, [[0, 1], [2, 3, 4]], [0.5, 0.5]))
    monkeypatch.setattr(ek.config, "DENSE_EIG_CAP", 4)
    for name in ("weighted_sets", "_draw_blocks"):
        monkeypatch.setattr(ek.samplings, name, refuse)
    monkeypatch.setattr(probability, "exact_rule", refuse)
    for spec in specs:
        with pytest.raises(ValidationError, match="n <= 4") as info:
            ek.prob_matrix(spec, method, mc_samples=100)
        assert info.value.field == "n"


def test_moments_and_references_work_above_the_dense_cap(monkeypatch):
    # Only the dense P a caller asks for is refused; the moments of kinds
    # without a closed form, the restricted-lambda' reference and the
    # identity checks read the exact P at any n.
    rng = np.random.default_rng(41)
    data = ek.DataMatrix.from_dense(rng.standard_normal((6, 5)))
    specs = (
        ek.intersection(ek.tau_nice(5, 3), ek.tau_nice(5, 4)),
        ek.convex_combination([0.5, 0.5], [ek.restriction(ek.tau_nice(5, 2), [0, 2, 3]), ek.serial([0.2] * 5)]),
    )
    gram, h = data.gram(), rng.standard_normal(5)

    def results(spec):
        v = ek.compute_v(data, spec)
        return (
            v.v.tolist(),
            v.formula_id,
            ek.lambda_bounds(spec),
            ek.lambda_prime_restricted(spec, [0, 2, 4]).value,
            probability.check_identities(spec, gram, h).to_dict(),
        )

    below = [results(spec) for spec in specs]
    monkeypatch.setattr(ek.config, "DENSE_EIG_CAP", 4)
    assert [results(spec) for spec in specs] == below
    with pytest.raises(ValidationError, match="n <= 4"):
        ek.prob_matrix(specs[0])
