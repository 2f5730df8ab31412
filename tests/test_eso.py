import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import esokit as ek
from conftest import capped_partition_spec, graph_spec_for, random_sparse_matrix
from esokit import eso, verify
from esokit.cli import main
from esokit.datamatrix import write_matrix
from esokit.errors import UnsupportedMethodError, ValidationError

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_A = ek.DataMatrix.from_dense(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]]))
TAU_NICE_32 = ek.tau_nice(3, 2)


def test_uncoupled_fixture():
    result = ek.eso_uncoupled(FIXTURE_A, TAU_NICE_32)
    factor = 1 + 1 / math.sqrt(5)  # lambda'(A'A) < lambda'(P) = 2
    assert result.v[:2] == pytest.approx([factor, 5 * factor])
    assert result.v[2] == pytest.approx(1e-12)
    assert result.formula_id == "UNCOUPLED"


def test_uncoupled_identity_matrix_serial():
    data = ek.DataMatrix.from_dense(np.eye(3))
    result = ek.eso_uncoupled(data, ek.serial([1 / 3] * 3))
    assert result.v == pytest.approx(np.ones(3))


def test_uncoupled_single_dense_row():
    data = ek.DataMatrix.from_dense(np.ones((1, 4)))
    result = ek.eso_uncoupled(data, ek.tau_nice(4, 2))
    # lambda'(ee') = 4 beats lambda'(P) = tau = 2.
    assert result.v == pytest.approx(np.full(4, 2.0))


@pytest.mark.parametrize("bad", [-1.0, 0.0, 0.5, float("nan"), -math.inf])
def test_uncoupled_rejects_an_invalid_lambda_prime_ata(bad):
    data = ek.DataMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [3.0, 0.0, 0.0]]))
    with pytest.raises(ValidationError) as err:
        eso.compute_v(data, TAU_NICE_32, "uncoupled", lambda_prime_ata=bad)
    assert err.value.field == "lambda_prime_ata"


def test_uncoupled_accepts_an_infinite_lambda_prime_ata():
    # +inf bounds nothing: the factor is lambda'(P) = tau.
    result = eso.compute_v(FIXTURE_A, TAU_NICE_32, "uncoupled", lambda_prime_ata=math.inf)
    assert result.v[:2] == pytest.approx([2.0, 10.0])


def _unskipped_uncoupled_v(data, spec, lambda_prime_ata):
    """v by min(lambda'(P), lambda'(A'A)) with both eigen-solves."""
    lp_sampling = ek.spectral.lambda_prime(ek.prob_matrix(spec, "auto").entries).value
    return eso._floor(min(lp_sampling, lambda_prime_ata) * data.column_sq_norms)


def _forbid_p_and_gram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a dense matrix the uncoupled formula does not need")

    monkeypatch.setattr(ek.probability, "prob_matrix", refuse)
    monkeypatch.setattr(ek.DataMatrix, "gram", refuse)


def test_uncoupled_below_the_moment_bound_builds_neither_p_nor_gram(monkeypatch):
    data = random_sparse_matrix(ek.rng_for_stream(61, 0), 9, 7, 0.4)
    spec = ek.tau_nice(7, 4)  # lambda'(P) >= E|S|^2 / E|S| = 4
    lp_ata = 4.0 * (1.0 - 2e-9)
    expected = _unskipped_uncoupled_v(data, spec, lp_ata)
    _forbid_p_and_gram(monkeypatch)
    result = eso.compute_v(data, spec, "uncoupled", lambda_prime_ata=lp_ata)
    assert np.array_equal(result.v, expected)
    assert np.array_equal(result.v, eso._floor(lp_ata * data.column_sq_norms))


@pytest.mark.parametrize(
    "spec, lp_ata",
    [
        (ek.serial([0.1, 0.2, 0.3, 0.15, 0.05, 0.1, 0.1]), 1.0),  # moment bound 1
        (ek.tau_nice(7, 4), 4.0 * (1.0 - 5e-10)),  # a near tie, inside the margin
        (ek.tau_nice(7, 4), 4.0),
    ],
)
def test_uncoupled_solves_p_when_it_can_be_the_minimum(monkeypatch, spec, lp_ata):
    data = random_sparse_matrix(ek.rng_for_stream(62, 0), 9, 7, 0.4)
    expected = _unskipped_uncoupled_v(data, spec, lp_ata)
    assert np.array_equal(eso.compute_v(data, spec, "uncoupled", lambda_prime_ata=lp_ata).v, expected)
    _forbid_p_and_gram(monkeypatch)
    with pytest.raises(AssertionError, match="does not need"):
        eso.compute_v(data, spec, "uncoupled", lambda_prime_ata=lp_ata)


def test_uncoupled_equals_the_unskipped_minimum_bit_for_bit():
    rng = ek.rng_for_stream(63, 0)
    specs = [ek.tau_nice(8, tau) for tau in range(1, 9)] + [
        ek.serial(rng.dirichlet(np.ones(8))),
        ek.doubly_uniform([0.0, 0.3, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.2]),
        ek.ctau_distributed([[0, 1, 2, 3], [4, 5, 6, 7]], 2),
    ]
    for density in (0.15, 0.5, 1.0):
        data = random_sparse_matrix(rng, 10, 8, density)
        lp_ata = ek.spectral.lambda_prime(data.gram()).value
        for spec in specs:
            result = eso.compute_v(data, spec, "uncoupled")
            assert np.array_equal(result.v, _unskipped_uncoupled_v(data, spec, lp_ata)), (density, spec)
            assert result.cost_estimate == 2.0 * data.nnz + 8.0**3 + 8.0**3


@pytest.mark.parametrize("lp_ata", [None, 1.0, 1e6])
def test_uncoupled_builds_p_once_for_kinds_without_closed_form_moments(monkeypatch, lp_ata):
    # The moment bound and lambda'(P) both come from one exact P: 1.0 is
    # ruled out by the bound, 1e6 forces the solve.
    data = random_sparse_matrix(ek.rng_for_stream(66, 0), 12, 8, 0.4)
    specs = [
        ek.intersection(ek.tau_nice(8, 4), ek.tau_nice(8, 3)),
        ek.restriction(ek.tau_nice(8, 5), range(8)),
        ek.convex_combination([0.5, 0.5], [ek.intersection(ek.tau_nice(8, 6), ek.tau_nice(8, 5)), ek.tau_nice(8, 2)]),
    ]
    ata = ek.spectral.lambda_prime(data.gram()).value if lp_ata is None else lp_ata
    expected = [_unskipped_uncoupled_v(data, spec, ata) for spec in specs]
    build = ek.probability.prob_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ek.probability, "prob_matrix", counting)
    for spec, want in zip(specs, expected):
        calls.clear()
        result = eso.compute_v(data, spec, "uncoupled", lambda_prime_ata=lp_ata)
        assert len(calls) == 1, spec.kind
        assert np.array_equal(result.v, want), spec.kind


def test_eigen_solves_per_formula_on_a_tau_nice_fixture(monkeypatch):
    # Rows of one or two entries: lambda'(A'A) <= 2 < tau = lambda'(P), so
    # uncoupled solves A'A only, and coupled-exact solves one stack per row size.
    rng = ek.rng_for_stream(64, 0)
    dense = np.zeros((14, 8))
    for j in range(14):
        support = rng.choice(8, size=1 + j % 2, replace=False)
        dense[j, support] = rng.standard_normal(support.size)
    data = ek.DataMatrix.from_dense(dense)
    spec = ek.tau_nice(8, 3)
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    expected = {"uncoupled": ["eigvalsh"], "coupled-exact": ["eigvalsh", "eigvalsh"]}
    for formula, entry in eso.FORMULAS.items():
        if entry.kind not in (None, spec.kind):
            continue
        calls.clear()
        eso.compute_v(data, spec, formula)
        assert calls == expected.get(formula, []), formula


def test_coupled_fixture_by_every_method():
    expected = np.array([1.5, 5.5, 1e-12])
    for method in ("exact", "bound"):
        result = ek.eso_coupled(FIXTURE_A, TAU_NICE_32, method)
        assert result.v == pytest.approx(expected, rel=1e-10), method
    assert ek.eso_specialized(FIXTURE_A, TAU_NICE_32).v == pytest.approx(expected, rel=1e-10)
    assert ek.eso_coupled(FIXTURE_A, TAU_NICE_32, "exact").formula_id == "COUPLED_EXACT"


def test_coupled_serial_multipliers_are_one():
    rng = ek.rng_for_stream(51, 0)
    data = random_sparse_matrix(rng, 6, 5, 0.4)
    q = rng.dirichlet(np.ones(5))
    result = ek.eso_coupled(data, ek.serial(q / q.sum()), "exact")
    assert result.v == pytest.approx(data.column_sq_norms, rel=1e-10)


def test_coupled_diagonal_data():
    data = ek.DataMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    result = ek.eso_coupled(data, ek.tau_nice(3, 2), "exact")
    assert result.v == pytest.approx([1.0, 4.0, 9.0])


@pytest.mark.parametrize("name", ["coupled-exact", "coupled-bound"])
def test_coupled_rejects_columns_beyond_the_sampling(name):
    data = ek.DataMatrix.from_dense(np.ones((2, 4)))
    with pytest.raises(ValidationError, match="indices"):
        ek.compute_v(data, ek.tau_nice(3, 2), name)


def test_removed_coupled_names_are_refused(tmp_path, capsys):
    # The power-iteration route and the taunice alias are gone end to end.
    data = ek.DataMatrix.from_dense(np.ones((2, 3)))
    spec = ek.tau_nice(3, 2)
    for name in ("coupled-power", "coupled-formula"):
        with pytest.raises(UnsupportedMethodError):
            ek.compute_v(data, spec, name)
    for method in ("power", "formula"):
        with pytest.raises(UnsupportedMethodError):
            ek.eso_coupled(data, spec, method)
    with pytest.raises(UnsupportedMethodError):
        ek.spectral.restricted_lambda_primes(spec, [0, 2], [0, 1], "power")
    with pytest.raises(UnsupportedMethodError):
        ek.lambda_prime_restricted(spec, [0, 1], "power")

    matrix = tmp_path / "A.mtx"
    write_matrix(data, matrix)
    base = ["compute-v", "--matrix", str(matrix), "--sampling", json.dumps(spec.to_dict())]
    for extra in (["--formula", "coupled-power"], ["--power-iterations", "5"]):
        with pytest.raises(SystemExit) as info:
            main(base + extra)
        assert info.value.code == 2, extra
    capsys.readouterr()


def test_every_formula_rejects_a_matrix_of_another_width():
    # Without the check, specialized and auto returned a v of length 10 beside a p of length 8.
    names = [name for name, entry in eso.FORMULAS.items() if entry.kind in (None, "tau_nice")]
    for cols in (10, 6):
        data = ek.DataMatrix.from_dense(np.ones((3, cols)))
        for name in names:
            with pytest.raises(ValidationError, match="coordinates"):
                ek.compute_v(data, ek.tau_nice(8, 2), name)


# Finite entries whose squares pass the float range.
OVERFLOWING = ek.DataMatrix(2, 2, [0, 0, 1], [0, 1, 1], [1e200, 2e200, 1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_data_is_refused_by_every_formula_and_the_certificate(tmp_path, capsys):
    spec = ek.tau_nice(2, 1)
    names = [name for name, entry in eso.FORMULAS.items() if entry.kind in (None, "tau_nice")]
    for name in names:
        with pytest.raises(ValidationError, match="overflow"):
            ek.compute_v(OVERFLOWING, spec, name)
    # Finite squared column norms (1e308 each), but tau-nice v = 2 w overflows.
    big = math.sqrt(5e307)
    doubled = ek.DataMatrix.from_dense([[big, big], [big, big]])
    assert np.isfinite(doubled.column_sq_norms).all()
    with pytest.raises(ValidationError, match="stepsizes overflow"):
        ek.compute_v(doubled, ek.tau_nice(2, 2), "taunice")
    with pytest.raises(ValidationError, match="overflow"):
        ek.certify(OVERFLOWING, spec, np.ones(2))
    for v in ([1.0, math.inf], [math.nan, 1.0]):
        with pytest.raises(ValidationError, match="^certificate: .*v or A'A is not finite"):
            eso.certificate_matrix(FIXTURE_A, TAU_NICE_32, np.array(v + [1.0]))

    matrix, out = tmp_path / "A.mtx", tmp_path / "v.json"
    write_matrix(OVERFLOWING, matrix)
    code = main(["compute-v", "--matrix", str(matrix), "--sampling", json.dumps(spec.to_dict()), "--out", str(out)])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "overflow" in err and "Traceback" not in err


def test_overflowing_data_is_refused_without_a_warning(tmp_path):
    spec = ek.tau_nice(2, 1)
    names = [name for name, entry in eso.FORMULAS.items() if entry.kind in (None, "tau_nice")]
    big = math.sqrt(5e307)
    cases = [
        (OVERFLOWING.to_dense(), spec),
        # Finite squared column norms (1e308 each): A'A's diagonal is as large
        # as a float gets, and every v overflows.
        ([[big, big], [big, big]], ek.tau_nice(2, 2)),
        # Finite squares, but the weighted row sums overflow.
        (np.full((2, 3), 1e154), ek.tau_nice(3, 3)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dense, case_spec in cases:
            for name in names:
                # A fresh matrix, as a matrix keeps its squared column norms.
                data = ek.DataMatrix.from_dense(dense)
                with pytest.raises(ValidationError, match="overflow"):
                    ek.compute_v(data, case_spec, name)

    # The CLI in a fresh interpreter, whose stderr shows any warning (the
    # test runner records warnings instead of printing them).
    matrix = tmp_path / "A.mtx"
    write_matrix(OVERFLOWING, matrix)
    argv = [["compute-v", "--matrix", str(matrix), "--sampling", json.dumps(spec.to_dict()), "--formula", name]
            for name in names]
    script = "import sys, json\nfrom esokit.cli import main\nprint([main(a) for a in json.loads(sys.argv[1])])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert json.loads(done.stdout.splitlines()[-1]) == [2] * len(names)
    assert done.stderr.count("overflow") == len(names) and "RuntimeWarning" not in done.stderr


def test_specialized_graph_fixture():
    data = ek.DataMatrix.from_triplets(
        2, 3, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)]
    )
    spec = graph_spec_for(data)
    result = ek.eso_specialized(data, spec)
    assert result.formula_id == "GRAPH"
    assert result.v == pytest.approx([1.0, 2.0, 1.0])


def test_specialized_graph_mismatch_rejected():
    data = ek.DataMatrix.from_dense(np.ones((1, 3)))  # complete conflict graph
    loose_graph = ek.ConflictGraph(3, ())
    spec = ek.graph_sampling(3, [[0, 1], [2]], [0.5, 0.5], loose_graph)
    with pytest.raises(UnsupportedMethodError, match="conflict graph"):
        ek.eso_specialized(data, spec)

    # The first nonzero-weight set that meets a row twice, at its first such
    # row; the zero-weight set meets row 0 twice and is skipped.
    data = ek.DataMatrix.from_dense(
        [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]
    )
    spec = ek.graph_sampling(4, [[0, 1], [1, 3], [0, 2, 3]], [0.0, 0.5, 0.5], ek.ConflictGraph(4, ()))
    with pytest.raises(UnsupportedMethodError) as info:
        ek.eso_specialized(data, spec)
    assert str(info.value) == (
        "graph sampling set (1, 3) meets row 3 support in more than one coordinate; "
        "its conflict graph does not cover this data"
    )


def test_specialized_generic_with_cap_one_matches_serial_values():
    rng = ek.rng_for_stream(53, 0)
    data = random_sparse_matrix(rng, 6, 5, 0.4)
    spec = capped_partition_spec(rng, 5, 1)  # |S| = 1 surely
    result = ek.eso_specialized(data, spec)
    assert result.formula_id == "SERIAL"
    assert result.v == pytest.approx(data.column_sq_norms)

    forced = ek.eso_specialized(data, spec, case="generic")
    assert forced.formula_id == "GENERIC_TAU"
    assert forced.v == pytest.approx(data.column_sq_norms)


def test_specialized_tells_the_serial_case_without_the_pairwise_law():
    # The cardinality cap and the marginals decide |S| = 1: an intersection
    # at n = 5000 gets the generic form without an n x n P (about 400 MB).
    n = 5000
    data = ek.DataMatrix(3, n, np.arange(n) % 3, np.arange(n), np.ones(n))
    spec = ek.intersection(ek.tau_nice(n, 3), ek.tau_nice(n, 4))
    tracemalloc.start()
    try:
        result = eso.compute_v(data, spec, "auto")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.formula_id == "GENERIC_TAU"
    assert peak < 20_000_000


def test_a_cap_of_one_gives_serial_bits_under_either_id():
    # A restriction of a one-block product draws one coordinate surely; its
    # moments off P round to 1 - 2^-53, its marginals sum to 1 exactly.
    data = random_sparse_matrix(ek.rng_for_stream(54, 0), 7, 6, 0.5)
    spec = ek.restriction(ek.product_sampling([range(6)]), range(6))
    result = ek.eso_specialized(data, spec)
    assert result.formula_id == "SERIAL"
    generic = ek.eso_specialized(data, spec, case="generic")
    assert result.v.tobytes() == generic.v.tobytes()


def test_conservative_variant():
    rng = ek.rng_for_stream(54, 0)
    data = random_sparse_matrix(rng, 5, 6, 0.35)
    omega = data.max_row_support
    spec = capped_partition_spec(rng, 6, 3)
    result = ek.eso_conservative(data, spec)
    assert result.formula_id == "CONSERVATIVE"
    assert result.v == pytest.approx(
        np.maximum(min(3, omega) * data.column_sq_norms, 1e-12)
    )


@pytest.mark.parametrize("formula", ["generic", "conservative"])
def test_a_caller_cannot_pass_a_cardinality_cap(formula):
    # A cap of 1, below the sampling's own 2, gave v = (3, 3, 3, 3) here, which
    # fails the certificate (margin -1.5); every formula reads the sampling's cap.
    data = ek.DataMatrix.from_dense(np.ones((3, 4)))
    spec = ek.tau_nice(4, 2)
    with pytest.raises(TypeError, match="tau_cap"):
        ek.compute_v(data, spec, formula, tau_cap=1)
    result = ek.compute_v(data, spec, formula)
    assert ek.certify(data, spec, result.v) >= -1e-8


def test_specialized_ctau_and_doubly_uniform_examples():
    with pytest.raises(ValidationError):
        # Unequal blocks are invalid for the distributed sampling.
        ek.ctau_distributed([[0, 1], [2]], 1)

    spec = ek.ctau_distributed([[0, 2], [1, 3]], 1)
    data4 = ek.DataMatrix.from_dense(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]]))
    result = ek.eso_specialized(data4, spec)
    assert result.formula_id == "CTAU_DISTRIBUTED"
    margin = ek.certify(data4, spec, result.v)
    assert margin >= -1e-8

    du = ek.doubly_uniform([0.0, 0.5, 0.0, 0.5])
    point_mass = ek.doubly_uniform([0.0, 0.0, 1.0, 0.0])
    res_du = ek.eso_specialized(FIXTURE_A, point_mass)
    res_nice = ek.eso_specialized(FIXTURE_A, TAU_NICE_32)
    assert res_du.v == pytest.approx(res_nice.v, rel=1e-12)
    assert ek.certify(FIXTURE_A, du, ek.eso_specialized(FIXTURE_A, du).v) >= -1e-8


def test_certify_examples():
    result = ek.eso_coupled(FIXTURE_A, TAU_NICE_32, "exact")
    assert ek.certify(FIXTURE_A, TAU_NICE_32, result.v) >= -1e-8

    with pytest.raises(ValidationError):
        ek.certify(FIXTURE_A, TAU_NICE_32, np.zeros(2))  # wrong length
    assert ek.certify(FIXTURE_A, TAU_NICE_32, np.full(3, 1e-12)) < 0  # zero-ish v fails

    empty = ek.DataMatrix.from_triplets(2, 3, [])
    assert ek.certify(empty, TAU_NICE_32, np.full(3, 1e-12)) > 0


def test_certificate_is_bit_identical_to_the_reference_formula():
    # Assembled in place in P's entries; the Gram matrix is left untouched.
    rng = ek.rng_for_stream(92, 0)
    for _ in range(80):
        n = int(rng.integers(2, 9))
        data = random_sparse_matrix(rng, n + 2, n, 0.5)
        spec = ek.random_spec(rng, n)
        v = rng.random(n) + 0.05
        gram = data.gram()
        kept = gram.copy()
        reference = np.diag(v * ek.marginals(spec)) - ek.prob_matrix(spec, "auto").entries * gram
        assert eso._certificate(gram, spec, v).tobytes() == reference.tobytes()
        assert gram.tobytes() == kept.tobytes()
        assert eso.certificate_matrix(data, spec, v).tobytes() == reference.tobytes()


def test_the_certificate_builds_no_prob_matrix(monkeypatch):
    # The certificate reads the exact rule unvalidated: the suite checks the
    # rule's grid (test_probability.py), so no run-time ProbMatrix is made.
    def refuse(self):
        raise AssertionError("a ProbMatrix was built")

    monkeypatch.setattr(ek.ProbMatrix, "__post_init__", refuse)
    data = ek.DataMatrix.from_dense(np.array([[1.0, 1.0, 0.0, 2.0], [0.0, 2.0, 1.0, 0.0]]))
    spec = ek.intersection(ek.tau_nice(4, 3), ek.explicit(4, [[0, 1, 2], [1, 3]], [0.5, 0.5]))
    v = np.full(4, 6.0)
    certificate = eso.certificate_matrix(data, spec, v)
    assert ek.certify(data, spec, v) == float(np.linalg.eigvalsh(certificate)[0]) >= 0.0
    assert verify.check_eso_quadratic(data, spec, v).passed
    assert verify.check_eso_matrix_form(data, spec, v).passed


@pytest.mark.parametrize("spec_n", [1, 5, 50])
def test_a_sampling_over_other_coordinates_is_refused_before_any_grid(monkeypatch, spec_n):
    # The dense cap is on the data's n; the sampling's n is checked against
    # it first, so a spec far above the cap builds no n x n grid or set stack.
    def refuse(*args, **kwargs):
        raise AssertionError("a sampling-sized array was built")

    monkeypatch.setattr(ek.config, "DENSE_EIG_CAP", 8)
    monkeypatch.setattr(ek.probability, "exact_grid", refuse)
    monkeypatch.setattr(ek.samplings, "weighted_sets", refuse)
    data = ek.DataMatrix.from_dense(np.ones((3, 4)))
    spec = ek.tau_nice(spec_n, 1)
    v = np.ones(4)
    calls = [
        lambda: ek.certify(data, spec, v),
        lambda: eso.certificate_matrix(data, spec, v),
        lambda: verify.check_eso_quadratic(data, spec, v),
        lambda: verify.check_eso_quadratic(data, spec, v, points=[(v, v)], mode="monte_carlo", trials=10),
        lambda: verify.check_eso_matrix_form(data, spec, v),
        lambda: ek.compute_v(data, spec),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.field == "sampling"
        assert f"spec is over {spec_n} coordinates" in str(err.value)


def test_certify_tight_case_serial_identity():
    data = ek.DataMatrix.from_dense(np.eye(4))
    spec = ek.serial([0.25] * 4)
    margin = ek.certify(data, spec, np.ones(4))
    assert abs(margin) <= 1e-12


def test_dominance_chain_random_fixtures():
    rng = ek.rng_for_stream(55, 0)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        data = random_sparse_matrix(rng, int(rng.integers(2, 8)), n, 0.4)
        tau = int(rng.integers(1, n + 1))
        spec = capped_partition_spec(rng, n, tau)
        exact = ek.eso_coupled(data, spec, "exact").v
        bound = ek.eso_coupled(data, spec, "bound").v
        generic = ek.eso_specialized(data, spec, case="generic").v
        conservative = ek.eso_conservative(data, spec).v
        assert np.all(exact <= bound + 1e-10)
        assert np.all(bound <= generic + 1e-10)
        assert np.all(generic <= conservative + 1e-10)


def test_quadratic_scaling_of_v():
    rng = ek.rng_for_stream(56, 0)
    data = random_sparse_matrix(rng, 6, 5, 0.4)
    doubled = data.scaled(2.0)
    spec = ek.tau_nice(5, 2)
    for formula in ("uncoupled", "coupled-exact", "generic", "specialized", "conservative"):
        v1 = ek.compute_v(data, spec, formula).v
        v2 = ek.compute_v(doubled, spec, formula).v
        mask = v1 > 1e-12
        assert v2[mask] == pytest.approx(4 * v1[mask], rel=1e-12), formula


def test_improper_sampling_rejected():
    spec = ek.elementary(3, [0])  # coordinate 1, 2 never selected
    with pytest.raises(ValidationError, match="proper"):
        ek.eso_coupled(FIXTURE_A, spec)
    with pytest.raises(ValidationError, match="proper"):
        ek.eso_uncoupled(FIXTURE_A, spec)


def test_family_formula_dispatch_rejects_mismatched_kind():
    with pytest.raises(UnsupportedMethodError):
        ek.compute_v(FIXTURE_A, ek.serial([1 / 3] * 3), "ctau")
    result = ek.compute_v(FIXTURE_A, TAU_NICE_32, "taunice")
    assert result.formula_id == "TAU_NICE"


def test_compute_v_auto_covers_composite_kinds():
    # Intersections have no family closed form; auto lands on the generic
    # cardinality-cap case, which holds for any capped sampling.
    spec = ek.intersection(ek.tau_nice(3, 2), ek.tau_nice(3, 3))
    result = ek.compute_v(FIXTURE_A, spec, "auto")
    assert result.formula_id == "GENERIC_TAU"
    assert ek.certify(FIXTURE_A, spec, result.v) >= -1e-8


def test_no_public_callable_takes_a_cap():
    # The enumeration and dense-eigen caps are read from esokit.config at call time.
    for name in ek.__all__:
        obj = getattr(ek, name)
        for target in [obj, *vars(obj).values()] if inspect.isclass(obj) else [obj]:
            if not callable(target):
                continue
            try:
                params = inspect.signature(target).parameters
            except (TypeError, ValueError):
                continue
            assert not {"cap", "dense_cap"} & set(params), f"{name}: {target}"


def test_eso_result_serialization():
    result = ek.eso_coupled(FIXTURE_A, TAU_NICE_32, "exact")
    payload = result.with_margin(ek.certify(FIXTURE_A, TAU_NICE_32, result.v)).to_dict()
    assert set(payload) == {"v", "p", "formula_id", "certificate_margin", "cost_estimate"}
    assert payload["certificate_margin"] >= -1e-8
