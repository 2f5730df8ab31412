import inspect
import math

import numpy as np
import pytest

import esokit as ek
from conftest import capped_partition_spec, graph_spec_for, random_sparse_matrix
from esokit import eso
from esokit.errors import UnsupportedMethodError, ValidationError

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


def test_coupled_fixture_by_every_method():
    expected = np.array([1.5, 5.5, 1e-12])
    for method in ("exact", "formula", "bound"):
        result = ek.eso_coupled(FIXTURE_A, TAU_NICE_32, method)
        assert result.v == pytest.approx(expected, rel=1e-10), method
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


@pytest.mark.parametrize("name", ["coupled-exact", "coupled-power", "coupled-bound"])
def test_coupled_rejects_columns_beyond_the_sampling(name):
    data = ek.DataMatrix.from_dense(np.ones((2, 4)))
    with pytest.raises(ValidationError, match="indices"):
        ek.compute_v(data, ek.tau_nice(3, 2), name)


def test_every_formula_rejects_a_matrix_of_another_width():
    # Without the check, specialized and auto returned a v of length 10 beside a p of length 8.
    names = [name for name, entry in eso.FORMULAS.items() if entry.kind in (None, "tau_nice")]
    for cols in (10, 6):
        data = ek.DataMatrix.from_dense(np.ones((3, cols)))
        for name in names:
            with pytest.raises(ValidationError, match="coordinates"):
                ek.compute_v(data, ek.tau_nice(8, 2), name)


def test_specialized_tau_nice_equals_coupled_formula_bit_for_bit():
    rng = ek.rng_for_stream(52, 0)
    for _ in range(10):
        data = random_sparse_matrix(rng, 8, 6, 0.3)
        spec = ek.tau_nice(6, int(rng.integers(1, 7)))
        a = ek.eso_specialized(data, spec)
        b = ek.eso_coupled(data, spec, "formula")
        assert np.array_equal(a.v, b.v)
        assert a.formula_id == b.formula_id == "TAU_NICE"


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
