import tracemalloc

import numpy as np
import pytest

import esokit as ek
from esokit import probability
from esokit.errors import CertificateUnavailableError, UnsupportedMethodError, ValidationError
from esokit.probability import read_csv, require_exact, write_csv
from esokit.samplings import draw_masks


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


def test_auto_is_exact_for_composites_of_closed_form_kinds():
    # Restriction of a tau-nice sampling at n far beyond the enumeration cap.
    spec = ek.restriction(ek.tau_nice(100, 7), range(10))
    pm = ek.prob_matrix(spec, "auto")
    assert pm.is_exact
    sub = pm.entries[:10, :10]
    beta = 6 / 99
    expected = (7 / 100) * ((1 - beta) * np.eye(10) + beta * np.ones((10, 10)))
    assert sub == pytest.approx(expected, abs=1e-15)
    assert np.max(np.abs(pm.entries[10:, :])) == 0.0


def test_combine_convex_identity_and_mixture():
    pm = ek.prob_matrix(ek.tau_nice(3, 2))
    assert ek.combine_convex([(1.0, pm)]).entries == pytest.approx(pm.entries)

    mix = ek.combine_convex(
        [(0.5, ek.prob_matrix(ek.tau_nice(3, 1))), (0.5, ek.prob_matrix(ek.tau_nice(3, 3)))]
    )
    du = ek.prob_matrix(ek.doubly_uniform([0.0, 0.5, 0.0, 0.5]))
    assert mix.entries == pytest.approx(du.entries, abs=1e-15)

    points = ek.combine_convex(
        [
            (0.5, ek.prob_matrix(ek.elementary(2, [0]))),
            (0.5, ek.prob_matrix(ek.elementary(2, [1]))),
        ]
    )
    assert points.entries == pytest.approx(np.diag([0.5, 0.5]))


def test_intersect_hadamard():
    pm = ek.prob_matrix(ek.tau_nice(3, 2))
    ones = ek.prob_matrix(ek.elementary(3, [0, 1, 2]))
    assert ek.intersect(pm, ones).entries == pytest.approx(pm.entries)

    block = ek.intersect(pm, ek.prob_matrix(ek.elementary(3, [0, 1])))
    expected = np.zeros((3, 3))
    expected[:2, :2] = [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]
    assert block.entries == pytest.approx(expected)
    # Same law as the restricted sampling.
    direct = ek.prob_matrix(ek.restriction(ek.tau_nice(3, 2), [0, 1]), "enumerate")
    assert block.entries == pytest.approx(direct.entries, abs=1e-12)

    q1, q2 = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.3])
    prod = ek.intersect(ek.prob_matrix(ek.serial(q1)), ek.prob_matrix(ek.serial(q2)))
    assert prod.entries == pytest.approx(np.diag(q1 * q2))


def test_restrict_matrix():
    pm = ek.prob_matrix(ek.tau_nice(4, 2))
    assert ek.restrict(pm, range(4)).entries == pytest.approx(pm.entries)

    sub = ek.restrict(pm, [0, 1, 2])
    expected = np.zeros((4, 4))
    expected[:3, :3] = np.full((3, 3), 1 / 6)
    np.fill_diagonal(expected[:3, :3], 1 / 2)
    assert sub.entries == pytest.approx(expected)

    assert not np.any(ek.restrict(pm, []).entries)


def test_probability_matrices_are_psd_with_marginal_diagonal():
    rng = ek.rng_for_stream(22, 0)
    for _ in range(60):
        spec = ek.random_spec(rng, int(rng.integers(2, 7)))
        pm = ek.prob_matrix(spec, "auto")
        assert pm.min_eigenvalue() >= -1e-10
        assert pm.diagonal() == pytest.approx(ek.marginals(spec), abs=1e-12)


def test_mixture_spec_matches_combined_components():
    rng = ek.rng_for_stream(23, 0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        comps = [ek.random_spec(rng, n) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        w = w / w.sum()
        spec = ek.convex_combination(w, comps)
        combined = ek.combine_convex(
            [(float(wi), ek.prob_matrix(c, "auto")) for wi, c in zip(w, comps)]
        )
        assert ek.prob_matrix(spec, "auto").entries == pytest.approx(
            combined.entries, abs=1e-12
        )


def test_uniform_specs_have_constant_diagonal():
    for spec in (
        ek.tau_nice(5, 3),
        ek.doubly_uniform([0.1, 0.2, 0.3, 0.2, 0.1, 0.1]),
        ek.ctau_distributed([[0, 1, 2], [3, 4, 5]], 2),
    ):
        pm = ek.prob_matrix(spec, "auto")
        first, _ = ek.cardinality_moments(spec)
        assert pm.diagonal() == pytest.approx(np.full(spec.n, first / spec.n), abs=1e-12)


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


@pytest.mark.parametrize("stack_entries", [probability._STACK_ENTRIES, 5])
def test_check_identities_match_the_per_set_loop(stack_entries, monkeypatch):
    monkeypatch.setattr(probability, "_STACK_ENTRIES", stack_entries)
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

    with pytest.raises(CertificateUnavailableError):
        require_exact(pm, "testing")


def test_csv_round_trip(tmp_path):
    pm = ek.prob_matrix(ek.tau_nice(4, 2))
    path = tmp_path / "p.csv"
    write_csv(pm, path)
    again = read_csv(path)
    assert again.n == 4
    assert again.provenance == pm.provenance
    assert np.array_equal(again.entries, pm.entries)
    header = path.read_text().splitlines()[0]
    assert header == "# prob_matrix n=4 provenance=closed_form"


def test_import_validates_symmetry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# prob_matrix n=2 provenance=enumerated\n0.5,0.4\n0.1,0.5\n")
    with pytest.raises(ValidationError):
        read_csv(path)


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
