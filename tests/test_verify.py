import numpy as np
import pytest

import esokit as ek
from conftest import random_sparse_matrix
from esokit.errors import ValidationError
from esokit.verify import write_junit

FIXTURE_A = ek.DataMatrix.from_dense(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]]))
SPEC = ek.tau_nice(3, 2)
V_OK = np.array([1.5, 5.5, 1e-9])


def test_zero_displacement_has_zero_slack():
    rng = ek.rng_for_stream(61, 0)
    x = rng.standard_normal(3)
    report = ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, points=[(x, np.zeros(3))])
    assert report.slack == pytest.approx(0.0, abs=1e-12)
    assert report.passed


def test_fixture_all_ones_point():
    report = ek.check_eso_quadratic(
        FIXTURE_A, SPEC, V_OK, points=[(np.zeros(3), np.ones(3))]
    )
    # lhs = mean of ||A(e_i + e_j)||^2 / 2 over the three pairs = 7/3.
    assert report.lhs_mean == pytest.approx(7 / 3)
    assert report.slack >= 0.0
    assert report.passed


def test_exhaustive_canonical_points_pass_for_certified_v():
    report = ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, mode="exhaustive")
    assert report.passed
    assert report.points_tested == 3 * (3 + 3)


def test_halved_v_fails_on_some_canonical_point():
    report = ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK / 2, mode="exhaustive")
    assert not report.passed
    assert report.slack < 0


def test_matrix_form_passes_and_fails_with_witness():
    good = ek.check_eso_matrix_form(FIXTURE_A, SPEC, V_OK)
    assert good.passed and good.witness is None

    bad = ek.check_eso_matrix_form(FIXTURE_A, SPEC, V_OK / 2)
    assert not bad.passed
    assert bad.witness is not None
    assert bad.witness_gap == pytest.approx(bad.margin, abs=1e-12)

    # Witness soundness: the violating direction exhibits negative slack at x=0.
    report = ek.check_eso_quadratic(
        FIXTURE_A, SPEC, V_OK / 2, points=[(np.zeros(3), bad.witness)]
    )
    assert report.slack < 0


def test_matrix_form_tight_identity_case():
    data = ek.DataMatrix.from_dense(np.eye(4))
    report = ek.check_eso_matrix_form(data, ek.serial([0.25] * 4), np.ones(4))
    assert report.passed
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_matrix_form_across_random_tau_nice_fixtures():
    rng = ek.rng_for_stream(62, 0)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        data = random_sparse_matrix(rng, int(rng.integers(2, 9)), n, 0.4)
        spec = ek.tau_nice(n, int(rng.integers(1, n + 1)))
        v = ek.eso_specialized(data, spec).v
        assert ek.check_eso_matrix_form(data, spec, v).passed


def test_exhaustive_check_passes_for_every_formula_spec_combination():
    from conftest import matching_stepsizes

    rng = ek.rng_for_stream(63, 0)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        data = random_sparse_matrix(rng, int(rng.integers(3, 9)), n, 0.4)
        for label, spec, result in matching_stepsizes(rng, data):
            report = ek.check_eso_quadratic(data, spec, result.v, mode="exhaustive")
            assert report.passed, (label, report.slack)
            assert report.lhs_stderr == 0.0


def test_monte_carlo_check_and_stderr_rate():
    v = ek.eso_specialized(FIXTURE_A, SPEC).v
    exact = ek.check_eso_quadratic(
        FIXTURE_A, SPEC, v, points=[(np.zeros(3), np.ones(3))], mode="exhaustive"
    )
    stderrs = {}
    for trials in (1_000, 10_000, 100_000):
        mc = ek.check_eso_quadratic(
            FIXTURE_A,
            SPEC,
            v,
            points=[(np.zeros(3), np.ones(3))],
            mode="monte_carlo",
            trials=trials,
            rng_seed=5,
        )
        assert mc.passed
        stderrs[trials] = mc.lhs_stderr
        assert mc.lhs_mean == pytest.approx(exact.lhs_mean, abs=5 * mc.lhs_stderr)
    # stderr shrinks like 1/sqrt(trials): each decade divides it by ~sqrt(10).
    assert stderrs[1_000] / stderrs[10_000] == pytest.approx(np.sqrt(10), rel=0.35)
    assert stderrs[10_000] / stderrs[100_000] == pytest.approx(np.sqrt(10), rel=0.35)


def test_monte_carlo_streams_are_deterministic():
    v = ek.eso_specialized(FIXTURE_A, SPEC).v
    a = ek.check_eso_quadratic(
        FIXTURE_A, SPEC, v, mode="monte_carlo", trials=5_000, rng_seed=3, streams=4
    )
    b = ek.check_eso_quadratic(
        FIXTURE_A, SPEC, v, mode="monte_carlo", trials=5_000, rng_seed=3, streams=4
    )
    assert a.lhs_mean == b.lhs_mean
    assert a.slack == b.slack


def test_rejects_nonpositive_v():
    with pytest.raises(ek.ValidationError, match="positive"):
        ek.check_eso_quadratic(FIXTURE_A, SPEC, np.array([1.0, 0.0, 1.0]))


def test_identity_battery_passes_and_writes_junit(tmp_path):
    report = ek.run_identity_battery(rng_seed=0, sizes=(3, 4), specs_per_size=5, pairs_per_spec=2)
    assert report.passed
    assert report.max_discrepancy_is_small() if hasattr(report, "max_discrepancy_is_small") else True
    assert set(report.checks) >= {
        "identity:first_moment",
        "identity:second_moment",
        "doubly_uniform_decomposition",
        "convex_combination_rule",
        "intersection_rule",
        "restriction_chain",
    }
    path = tmp_path / "battery.xml"
    write_junit(report, path)
    text = path.read_text()
    assert "<testsuite" in text and 'failures="0"' in text


def test_matrix_form_rejects_wrong_length_v():
    with pytest.raises(ValidationError):
        ek.check_eso_matrix_form(FIXTURE_A, SPEC, V_OK[:-1])
