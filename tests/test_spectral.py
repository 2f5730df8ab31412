import math

import numpy as np
import pytest

import esokit as ek
from conftest import csr
from esokit import spectral
from esokit.errors import UnsupportedMethodError, ValidationError
from esokit.spectral import (
    ctau_restricted_bound,
    restricted_closed_form,
    restricted_lambda_primes,
    tau_nice_restricted_value,
)


def test_lambda_max_examples():
    assert ek.lambda_max(np.eye(4)).value == pytest.approx(1.0)
    pm = ek.prob_matrix(ek.tau_nice(3, 2))
    assert ek.lambda_max(pm.entries).value == pytest.approx(4 / 3)
    assert ek.lambda_max(np.ones((5, 5))).value == pytest.approx(5.0)


def test_lambda_max_rejects_bad_input():
    with pytest.raises(ValidationError, match="symmetric"):
        ek.lambda_max(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="NaN|finite"):
        ek.lambda_max(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_lambda_prime_rank_one_counts_nonzeros():
    x = np.array([1.0, 0.0, -2.0])
    assert ek.lambda_prime(np.outer(x, x)).value == pytest.approx(2.0)


def test_lambda_prime_constant_cardinality_equals_tau():
    pm = ek.prob_matrix(ek.tau_nice(3, 2))
    assert ek.lambda_prime(pm.entries).value == pytest.approx(2.0)


def test_lambda_prime_support_restricted():
    m = np.array([[1.0, 1.0, 0.0], [1.0, 5.0, 0.0], [0.0, 0.0, 0.0]])
    assert ek.lambda_prime(m).value == pytest.approx(1 + 1 / math.sqrt(5))


def test_lambda_prime_zero_matrix_and_invalid_psd():
    assert ek.lambda_prime(np.zeros((3, 3))).value == 0.0
    bad = np.array([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="semidefinite"):
        ek.lambda_prime(bad)


@pytest.mark.parametrize("function", [ek.lambda_max, ek.lambda_prime])
@pytest.mark.parametrize("matrix", [np.zeros((2, 2)), np.eye(2)], ids=["zero", "identity"])
def test_an_unknown_eigenvalue_method_is_refused_on_every_matrix(function, matrix):
    # The zero matrix takes an early return; the method is checked before it.
    with pytest.raises(UnsupportedMethodError, match="nonsense"):
        function(matrix, "nonsense")


def test_dense_residual_is_small():
    rng = ek.rng_for_stream(31, 0)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        a = rng.standard_normal((n, n))
        est = ek.lambda_max(a @ a.T)
        assert est.residual <= 1e-8 * max(1.0, est.value)


def test_lambda_bounds_tau_nice():
    report = ek.lambda_bounds(ek.tau_nice(4, 2))
    assert report.lambda_prime_lower == pytest.approx(2.0)
    assert report.lambda_prime_upper == pytest.approx(2.0)
    assert report.lambda_lower == pytest.approx(1.0)
    assert report.lambda_upper == pytest.approx(1.0)
    assert report.uniform_sharpened


def test_lambda_bounds_doubly_uniform_lower():
    report = ek.lambda_bounds(ek.doubly_uniform([0.0, 0.5, 0.0, 0.5]))
    assert report.lambda_prime_lower == pytest.approx(2.5)


def test_lambda_bounds_elementary_upper_attained():
    spec = ek.elementary(5, range(5))
    report = ek.lambda_bounds(spec)
    exact = ek.lambda_max(ek.prob_matrix(spec).entries).value
    assert exact == pytest.approx(5.0)
    assert report.lambda_upper == pytest.approx(5.0)
    assert not report.uniform_sharpened


def test_lambda_bounds_nil_reports_undefined_lower():
    report = ek.lambda_bounds(ek.tau_nice(4, 0))
    assert report.lambda_prime_lower is None
    assert any("nil" in note for note in report.notes)


def test_restricted_tau_nice_formula_and_exact_agree():
    est_formula = ek.lambda_prime_restricted(ek.tau_nice(4, 2), [0, 1, 2], "formula")
    est_exact = ek.lambda_prime_restricted(ek.tau_nice(4, 2), [0, 1, 2], "exact")
    assert est_formula.value == pytest.approx(5 / 3)
    assert est_exact.value == pytest.approx(5 / 3)


def test_restricted_ctau_bound_tight_on_cross_block_pair():
    spec = ek.ctau_distributed([[0, 1], [2, 3]], 1)
    bound = ek.lambda_prime_restricted(spec, [0, 2], "bound")
    exact = ek.lambda_prime_restricted(spec, [0, 2], "exact")
    assert bound.value == pytest.approx(1.5)
    assert exact.value == pytest.approx(1.5)
    assert bound.bound_source == "ctau_restriction"
    assert "generic_cardinality" in bound.candidates


def test_restricted_doubly_uniform_bound_tight_on_pair():
    spec = ek.doubly_uniform([0.0, 0.5, 0.0, 0.5])
    bound = ek.lambda_prime_restricted(spec, [0, 1], "bound")
    exact = ek.lambda_prime_restricted(spec, [0, 1], "exact")
    assert bound.value == pytest.approx(1.75)
    assert exact.value == pytest.approx(1.75)


def test_restricted_graph_spec_is_diagonal_on_row_supports():
    data = ek.DataMatrix.from_triplets(
        2, 4, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)]
    )
    graph = ek.build_conflict_graph(data)
    spec = ek.graph_sampling(4, [[0, 2], [1, 3]], [0.5, 0.5], graph)
    for support in data.row_supports:
        est = ek.lambda_prime_restricted(spec, support, "exact")
        assert est.value <= 1.0 + 1e-10


def test_restricted_rejects_empty_set_and_wrong_formula_kind():
    with pytest.raises(ValidationError, match="nonempty"):
        ek.lambda_prime_restricted(ek.tau_nice(4, 2), [], "exact")
    with pytest.raises(UnsupportedMethodError):
        ek.lambda_prime_restricted(ek.serial([0.5, 0.5]), [0], "formula")


def test_restricted_exhaustive_tau_nice_small():
    # Every n <= 5, tau >= 1, nonempty J: closed form equals the eigen-solve.
    import itertools

    for n in range(1, 6):
        for tau in range(1, n + 1):
            spec = ek.tau_nice(n, tau)
            for r in range(1, n + 1):
                for j in itertools.combinations(range(n), r):
                    exact = ek.lambda_prime_restricted(spec, j, "exact").value
                    formula = tau_nice_restricted_value(n, tau, len(j))
                    assert exact == pytest.approx(formula, rel=1e-10)


def test_tau_nice_restricted_moment_ratio_matches_formula():
    # The lower bound E|J^S|^2 / E|J^S| computed by enumeration lands exactly
    # on the closed form.
    for (n, tau, j_size) in [(5, 2, 3), (6, 4, 2), (7, 3, 5)]:
        spec = ek.restriction(ek.tau_nice(n, tau), range(j_size))
        first, second = ek.cardinality_moments(spec)
        assert first == pytest.approx(j_size * tau / n, abs=1e-12)
        assert second / first == pytest.approx(
            tau_nice_restricted_value(n, tau, j_size), rel=1e-12
        )


def test_hadamard_and_sum_bounds_on_random_psd_pairs():
    rng = ek.rng_for_stream(32, 0)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        m1, m2 = a @ a.T, b @ b.T
        lp1 = ek.lambda_prime(m1).value
        lp2 = ek.lambda_prime(m2).value
        assert ek.lambda_prime(m1 * m2).value <= min(lp1, lp2) * (1 + 1e-9) + 1e-9
        assert ek.lambda_prime(m1 + m2).value <= max(lp1, lp2) * (1 + 1e-9) + 1e-9


def test_eigenvalue_sandwich_on_random_specs():
    rng = ek.rng_for_stream(33, 0)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        spec = ek.random_spec(rng, n, require_nonnil=True)
        pm = ek.prob_matrix(spec, "auto")
        lp = ek.lambda_prime(pm.entries).value
        lam = ek.lambda_max(pm.entries).value
        first, second = ek.cardinality_moments(spec)
        tau = ek.cardinality_cap(spec)
        assert second / first <= lp + 1e-9
        assert lp <= tau + 1e-9
        assert second / n <= lam + 1e-9
        assert lam <= first + 1e-9


def test_uniform_link_between_lambda_and_lambda_prime():
    rng = ek.rng_for_stream(34, 0)
    specs = [ek.tau_nice(6, 3), ek.ctau_distributed([[0, 1, 2], [3, 4, 5]], 2)]
    for _ in range(10):
        q = rng.dirichlet(np.ones(6))
        q = np.concatenate([[0.0], q[:5]])
        q = q / q.sum()
        specs.append(ek.doubly_uniform(q))
    for spec in specs:
        pm = ek.prob_matrix(spec, "auto")
        first, _ = ek.cardinality_moments(spec)
        if first == 0:
            continue
        lp = ek.lambda_prime(pm.entries).value
        lam = ek.lambda_max(pm.entries).value
        assert lp == pytest.approx(spec.n / first * lam, abs=1e-10)


def _restricted_fixture_matrices():
    rng = ek.rng_for_stream(35, 0)
    from conftest import random_sparse_matrix

    matrices = []
    for _ in range(12):
        n = int(rng.integers(6, 15))
        data = random_sparse_matrix(rng, int(rng.integers(4, 10)), n, 0.3)
        specs = [
            ek.tau_nice(n, int(rng.integers(1, n + 1))),
            ek.doubly_uniform(np.ones(n + 1) / (n + 1)),
        ]
        for spec in specs:
            pm = ek.prob_matrix(spec, "auto")
            for support in data.row_supports:
                if not support:
                    continue
                sub = pm.entries[np.ix_(support, support)]
                diag = np.diag(sub)
                keep = diag > 0
                if not keep.any():
                    continue
                sub = sub[np.ix_(np.flatnonzero(keep), np.flatnonzero(keep))]
                scale = 1.0 / np.sqrt(np.diag(sub))
                matrices.append(sub * np.outer(scale, scale))
    return matrices


def test_power_method_safeguard_dominates_exact_on_fixture_corpus():
    checked = 0
    for normalized in _restricted_fixture_matrices():
        exact = ek.lambda_max(normalized).value
        power = ek.lambda_max(normalized, "power_method", 10, 1.01).value
        assert power >= exact - 1e-12
        eigs = np.linalg.eigvalsh(normalized)
        gap_ratio = eigs[-2] / eigs[-1] if len(eigs) >= 2 and eigs[-1] > 0 else 0.0
        if gap_ratio <= 0.9:
            assert power <= 1.01 * 1.02 * exact
            checked += 1
    assert checked >= 10


def test_power_method_reports_iteration_gap():
    pm = ek.prob_matrix(ek.tau_nice(6, 2))
    est = ek.lambda_max(pm.entries, "power_method")
    assert est.method == "power_method"
    assert est.iterations == 10
    assert est.safeguard == pytest.approx(1.01)
    assert est.residual is not None and est.residual >= 0.0


@pytest.mark.parametrize("function", [ek.lambda_max, ek.lambda_prime])
@pytest.mark.parametrize(
    "iterations, safeguard, field",
    [(0, 1.01, "power_iterations"), (10, -1.0, "safeguard"), (10, 0.5, "safeguard"),
     (10, np.inf, "safeguard"), (10, np.nan, "safeguard")],
)
def test_power_method_refuses_invalid_iterations_and_safeguards(function, iterations, safeguard, field):
    # At the default iteration count a safeguard of -1 gave -2.0 for 2 I.
    with pytest.raises(ValidationError, match=field):
        function(2.0 * np.eye(3), "power_method", iterations, safeguard)
    assert function(2.0 * np.eye(3), "dense_exact", iterations, safeguard).value == pytest.approx(
        1.0 if function is ek.lambda_prime else 2.0
    )


def test_bounds_report_serializes():
    payload = ek.lambda_bounds(ek.tau_nice(4, 2)).to_dict()
    assert set(payload) >= {"lambda_prime_lower", "lambda_prime_upper", "lambda_lower", "lambda_upper"}
    est = ek.lambda_prime_restricted(ek.ctau_distributed([[0, 1], [2, 3]], 1), [0, 2], "bound")
    blob = est.to_dict()
    assert blob["bound_source"] == "ctau_restriction"
    assert blob["value"] == pytest.approx(1.5)


def test_ctau_bound_requires_ctau_kind():
    with pytest.raises(UnsupportedMethodError):
        ctau_restricted_bound(ek.tau_nice(4, 2), [0, 1])


def test_restricted_closed_form_matches_per_set_reference():
    # The family closed forms run on many sets at once; each entry equals the
    # same proposition evaluated on one set in Python arithmetic.
    rng = ek.rng_for_stream(44, 0)
    n = 8
    sets = [tuple(sorted(rng.choice(n, size=k, replace=False).tolist())) for k in range(1, n + 1) for _ in range(3)]
    for tau in range(n + 1):
        values, source = restricted_closed_form(ek.tau_nice(n, tau), *csr(sets))
        assert source == "tau_nice_restriction"
        assert values.tolist() == [tau_nice_restricted_value(n, tau, len(j)) for j in sets]

    ctau = ek.ctau_distributed([range(4), range(4, 8)], 3)
    values, source = restricted_closed_form(ctau, *csr(sets))
    assert source == "ctau_restriction"
    assert values.tolist() == [ctau_restricted_bound(ctau, j) for j in sets]

    du = ek.doubly_uniform([0.0, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05])
    first, second = ek.cardinality_moments(du)
    values, source = restricted_closed_form(du, *csr(sets))
    assert source == "doubly_uniform_restriction"
    expected = [1.0 + (len(j) - 1) * (second / first - 1.0) / (n - 1) for j in sets]
    assert values.tolist() == pytest.approx(expected, rel=4 * np.finfo(float).eps)

    assert restricted_closed_form(ek.serial([1.0 / n] * n), *csr(sets)) is None
    assert restricted_closed_form(ek.doubly_uniform([1.0] + [0.0] * n), *csr(sets)) is None


@pytest.mark.parametrize("blocks, tau, size", [(40, 4, 5), (400, 2, 2), (2000, 1, 1), (1, 7, 20), (10, 0, 3)])
def test_ctau_closed_form_equals_the_one_set_bound(blocks, tau, size):
    # Empty sets, singleton blocks (size 1) and one block (c = 1) included.
    n = blocks * size
    spec = ek.ctau_distributed([range(b * size, (b + 1) * size) for b in range(blocks)], tau)
    rng = np.random.default_rng(45)
    sets = [tuple(sorted(rng.choice(n, size=int(rng.integers(0, min(n, 12) + 1)), replace=False).tolist()))
            for _ in range(300)]
    values, source = restricted_closed_form(spec, *csr(sets + [()]))
    assert source == "ctau_restriction"
    assert values.tolist() == [ctau_restricted_bound(spec, j) if j else 0.0 for j in sets] + [0.0]


@pytest.mark.parametrize("method", ["exact", "bound"])
def test_a_repeated_index_counts_once_in_the_restriction_set(method):
    spec = ek.ctau_distributed([[0, 1], [2, 3]], 2)
    repeated = ek.lambda_prime_restricted(spec, [2, 0, 2, 0], method)
    assert repeated.value == ek.lambda_prime_restricted(spec, [0, 2], method).value


def test_ctau_formulas_do_not_call_the_one_set_bound(monkeypatch):
    from conftest import random_sparse_matrix

    data = random_sparse_matrix(ek.rng_for_stream(46, 0), 60, 40, 0.2)
    spec = ek.ctau_distributed([range(b * 8, (b + 1) * 8) for b in range(5)], 3)
    expected = {name: ek.compute_v(data, spec, name).v for name in ("auto", "ctau", "coupled-bound")}

    def refuse(*args):
        raise AssertionError("one-set bound called")

    monkeypatch.setattr(spectral, "ctau_restricted_bound", refuse)
    for name, v in expected.items():
        assert np.array_equal(ek.compute_v(data, spec, name).v, v), name


@pytest.mark.parametrize("stack_entries", [spectral._STACK_ENTRIES, 50])
@pytest.mark.parametrize("method", ["exact", "bound"])
def test_restricted_lambda_primes_match_the_one_set_form(method, stack_entries, monkeypatch):
    # The batch path equals the one-set reference bit for bit, also when a
    # small stack budget splits the sets of one size into several chunks.
    from conftest import random_sparse_matrix

    monkeypatch.setattr(spectral, "_STACK_ENTRIES", stack_entries)
    rng = np.random.default_rng(7)
    n = 48
    data = random_sparse_matrix(rng, 60, n, 0.12).with_ridge_rows(0.5)
    sets = list(data.row_supports) + [tuple(range(2, 46)), tuple(range(47, 5, -1)), tuple(range(n))]
    specs = [
        ek.tau_nice(n, 5),
        ek.ctau_distributed([range(k, k + 12) for k in range(0, n, 12)], 3),
        ek.doubly_uniform(rng.dirichlet(np.ones(n + 1))),
        ek.product_sampling([range(0, 10), range(10, 30), range(30, n)]),
        ek.intersection(ek.tau_nice(n, 30), ek.ctau_distributed([range(0, 24), range(24, n)], 20)),
        ek.convex_combination(
            [0.5, 0.5], [ek.restriction(ek.tau_nice(n, 10), range(0, 30)), ek.tau_nice(n, 4)]
        ),
    ]
    assert max(map(len, sets)) >= 40 and min(map(len, sets)) == 1
    for spec in specs:
        batch = restricted_lambda_primes(spec, *csr(sets), method)
        reference = [ek.lambda_prime_restricted(spec, j, method).value for j in sets]
        assert np.array_equal(batch, reference), spec.kind
        assert restricted_lambda_primes(spec, *csr([()]), method).tolist() == [0.0]
        for bad in ([0, n], [-1, 2], [0, 0], [5, 1, 5]):
            with pytest.raises(ValidationError, match="indices"):
                restricted_lambda_primes(spec, *csr([bad]), method)


def test_symmetry_check_symmetrizes_near_symmetric_input_and_rejects_the_rest():
    rng = ek.rng_for_stream(84, 0)
    g = rng.standard_normal((6, 6))
    m = (g + g.T) / (2.0 * np.max(np.abs(g)))  # exactly symmetric, entries within [-1, 1]
    assert np.array_equal(spectral._check_square_symmetric(m), m)
    near = m.copy()
    near[0, 1] += 1e-13
    out = spectral._check_square_symmetric(near)
    assert out is not near and np.array_equal(out, out.T)
    assert np.array_equal(out, 0.5 * (near + near.T))
    far = m.copy()
    far[0, 1] += 1e-9
    with pytest.raises(ValidationError, match="symmetric"):
        spectral._check_square_symmetric(far)


def _eigh_top_normalized(m):
    """Top eigenvalue by ``eigh`` (with eigenvectors) of the matrix that
    lambda_prime normalizes: m symmetrized, cut to its positive diagonal and
    scaled to a unit diagonal; 0 when no diagonal entry is positive."""
    m = 0.5 * (m + m.T)
    diag = np.diag(m)
    support = np.flatnonzero(diag > 0.0)
    if support.size == 0:
        return 0.0, 0
    scale = 1.0 / np.sqrt(diag[support])
    normalized = m[np.ix_(support, support)] * np.outer(scale, scale)
    return max(float(np.linalg.eigh(normalized)[0][-1]), 0.0), support.size


def test_values_only_lambda_prime_is_the_eigh_top_eigenvalue_to_rounding():
    # lambda' is read from eigvalsh, not from eigh's eigenpair; the two agree
    # within 8 n eps lambda' on random PSD matrices of every size 1..60, also
    # with rank deficiency and zero rows (zero diagonal entries off support).
    rng = ek.rng_for_stream(83, 0)
    eps = np.finfo(float).eps
    zero_rows = 0
    for n in range(1, 61):
        for _ in range(3):
            g = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            g[rng.random(n) < 0.2] = 0.0
            zero_rows += int(np.sum(~g.any(axis=1)))
            m = g @ g.T
            reference, size = _eigh_top_normalized(m)
            est = ek.lambda_prime(m)
            assert est.residual is None or size == 0
            assert abs(est.value - reference) <= 8 * max(size, 1) * eps * reference, n
    assert zero_rows > 0


def test_values_only_restricted_lambda_primes_are_the_eigh_top_eigenvalues(monkeypatch):
    # The stacked eigvalsh of restricted_lambda_primes, split into many small
    # stacks, against eigh on each normalized restricted block of exact P.
    monkeypatch.setattr(spectral, "_STACK_ENTRIES", 50)
    rng = ek.rng_for_stream(84, 0)
    eps = np.finfo(float).eps
    n = 60
    sets = [rng.choice(n, size=int(rng.integers(1, 21)), replace=False).tolist() for _ in range(80)]
    specs = [
        ek.tau_nice(n, 7),
        ek.ctau_distributed([range(k, k + 15) for k in range(0, n, 15)], 4),
        ek.doubly_uniform(rng.dirichlet(np.ones(n + 1))),
        ek.intersection(ek.tau_nice(n, 40), ek.tau_nice(n, 25)),
        ek.convex_combination(
            [0.3, 0.7], [ek.restriction(ek.tau_nice(n, 12), range(0, 35)), ek.tau_nice(n, 5)]
        ),
    ]
    for spec in specs:
        values = restricted_lambda_primes(spec, *csr(sets), "exact")
        entries, _ = ek.probability.exact_grid(spec)
        for j, value in zip(sets, values):
            reference, size = _eigh_top_normalized(entries[np.ix_(j, j)])
            assert size == len(j)
            assert abs(value - reference) <= 8 * size * eps * reference, (spec.kind, j)
