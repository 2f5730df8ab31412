import ast
import hashlib
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import esokit as ek
from conftest import random_sparse_matrix
from esokit import config, csr, eso, probability, samplings, verify
from esokit.cli import main
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


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"sizes": ()}, "sizes"),
        ({"sizes": (0,)}, "sizes"),
        ({"sizes": (3, -2)}, "sizes"),
        ({"sizes": (2.5,)}, "sizes"),
        ({"sizes": (True,)}, "sizes"),
        ({"specs_per_size": 0}, "specs_per_size"),
        ({"specs_per_size": 2.5}, "specs_per_size"),
        ({"pairs_per_spec": 0}, "pairs_per_spec"),
        ({"pairs_per_spec": -1}, "pairs_per_spec"),
    ],
)
def test_identity_battery_refuses_empty_or_degenerate_arguments_by_name(kwargs, field):
    # Each ran no check, reported a pass over no cases or failed deep inside.
    with pytest.raises(ValidationError) as info:
        ek.run_identity_battery(0, **kwargs)
    assert info.value.field == field


def test_identity_battery_runs_on_one_coordinate():
    report = ek.run_identity_battery(0, sizes=(1,), specs_per_size=np.int64(2), pairs_per_spec=1)
    assert report.passed and report.sizes == (1,)
    assert report.checks["identity:first_moment"]["cases"] == 2


# Any change to the battery's draws or to the arithmetic of its checks
# changes these digests of the default report.
_BATTERY_DIGESTS = {
    0: "a97e0939ef73045daa9fbf1c4f31f21ffe51e095ecf531862a62aed8741aa498",
    7: "f520a3cc0e77c0a46c740453b8b1522dc9661f54733b3ab50411be5b0f9dfe63",
}


@pytest.mark.parametrize("seed", sorted(_BATTERY_DIGESTS))
def test_identity_battery_report_digests_are_pinned(seed):
    text = json.dumps(ek.run_identity_battery(seed).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _BATTERY_DIGESTS[seed]


def test_identity_battery_digest_holds_when_a_stack_flushes_within_a_size(monkeypatch):
    # Six 5 x 5 matrices per spec: a budget of 450 entries stacks 3 specs of
    # size 5 at a time (and 8 of size 3, 4 of size 4), so each size flushes
    # several stacks, the last one short.
    monkeypatch.setattr(csr, "_STACK_ENTRIES", 450)
    text = json.dumps(ek.run_identity_battery(0).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _BATTERY_DIGESTS[0]


@pytest.mark.parametrize("budget", [None, 450])
def test_identity_battery_rule_checks_stack_their_kernel_calls(budget, monkeypatch):
    # The identity reports are stubbed out, so every kernel call counted
    # comes from the mixture, intersection and restriction checks.
    if budget is not None:
        monkeypatch.setattr(csr, "_STACK_ENTRIES", budget)
    kernel = csr._pair_sum
    calls = []

    def counted(n, *args, slot=None, slots=1, **kwargs):
        calls.append(slots * n * n)
        return kernel(n, *args, slot=slot, slots=slots, **kwargs)

    monkeypatch.setattr(csr, "_pair_sum", counted)
    monkeypatch.setattr(probability, "_identity_reports", lambda spec, pairs: [])
    counts = []
    for specs in (10, 20, 40):
        calls.clear()
        ek.run_identity_battery(0, sizes=(3, 4), specs_per_size=specs)
        assert max(calls) <= max(csr._STACK_ENTRIES, 6 * 4 * 4)
        counts.append(len(calls))
    if budget is None:
        assert counts == [2, 2, 2]
    else:
        # 450 entries hold 8 specs of size 3 and 4 of size 4.
        assert counts == [2 + 3, 3 + 5, 5 + 10]


def test_junit_escapes_quotes_and_markup_in_check_names(tmp_path):
    checks = {'a"b<c>&d': {"max_discrepancy": 0.0, "cases": 1, "pass": True}}
    path = tmp_path / "battery.xml"
    write_junit(verify.BatteryReport(checks=checks, tolerance=1e-9, seed=0, sizes=(3,)), path)
    assert '<testcase name="a&quot;b&lt;c&gt;&amp;d" classname="identity_battery">' in path.read_text()


def test_junit_reports_each_failing_check_as_a_failure(tmp_path):
    checks = {
        "intersection_rule": {"max_discrepancy": 2.5e-3, "cases": 4, "pass": False},
        "restriction_chain": {"max_discrepancy": 0.0, "cases": 4, "pass": True},
    }
    report = verify.BatteryReport(checks=checks, tolerance=1e-10, seed=0, sizes=(3,))
    assert not report.passed
    path = tmp_path / "battery.xml"
    write_junit(report, path)
    lines = path.read_text().splitlines()
    assert lines[1] == '<testsuite name="identity_battery" tests="2" failures="1">'
    assert lines[2] == (
        '  <testcase name="intersection_rule" classname="identity_battery">'
        '<failure message="max discrepancy 2.500e-03 exceeds 1.0e-10"/></testcase>'
    )
    assert lines[3] == '  <testcase name="restriction_chain" classname="identity_battery"></testcase>'


def test_matrix_form_rejects_wrong_length_v():
    with pytest.raises(ValidationError):
        ek.check_eso_matrix_form(FIXTURE_A, SPEC, V_OK[:-1])


# ---------------------------------------------------------------------------
# The quadratic check reads the Gram matrix, not a dense A


def _dense_reference_details(data, spec, v, labelled, mode, trials, rng_seed, streams):
    """Per-point results of the check as it was with a dense A: f(x + h_S)
    taken as 0.5 ||A (x + h_S)||^2 for every set at once."""
    p = ek.marginals(spec)
    a_dense = data.to_dense()
    if mode == "exhaustive":
        support = ek.enumerate_support(spec)
        masks = np.zeros((len(support), data.n))
        weights = np.empty(len(support))
        for row, (s, prob) in enumerate(support):
            masks[row, list(s)] = 1.0
            weights[row] = prob
    else:
        masks = samplings.draw_masks(spec, trials, rng_seed, streams)
        weights = np.full(masks.shape[0], 1.0 / masks.shape[0])
    details = []
    for x, h, label in labelled:
        ax = a_dense @ x
        fx = 0.5 * float(np.dot(ax, ax))
        grad = a_dense.T @ ax
        rhs = fx + float(np.sum(p * grad * h)) + 0.5 * float(np.sum(p * v * h * h))
        shifted = a_dense @ (x[None, :] + masks * h[None, :]).T
        values = 0.5 * np.sum(shifted * shifted, axis=0)
        lhs = float(weights @ values)
        if mode == "exhaustive":
            stderr = 0.0
            ok = (rhs - lhs) >= -verify.EXHAUSTIVE_TOL
        else:
            stderr = float(values.std(ddof=1) / np.sqrt(values.size))
            ok = (rhs - lhs) >= -3.0 * stderr
        details.append({"label": label, "lhs": lhs, "rhs": rhs, "stderr": stderr, "pass": bool(ok)})
    return details


# The default stack budget, and one that puts at most two sets of size 1
# and one larger set in each stack, so every set size drawn more than once
# spans several stacks.
_STACK_BUDGETS = pytest.mark.parametrize("stack_entries", [csr._STACK_ENTRIES, 2], ids=["default", "split"])


@_STACK_BUDGETS
@pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
def test_quadratic_check_matches_the_dense_formula(mode, stack_entries, monkeypatch):
    monkeypatch.setattr(csr, "_STACK_ENTRIES", stack_entries)
    rng = ek.rng_for_stream(64, 0)
    for k in range(6):
        n = int(rng.integers(4, 10))
        data = random_sparse_matrix(rng, int(rng.integers(3, 15)), n, 0.4)
        spec = [ek.tau_nice(n, 2), ek.serial(np.full(n, 1.0 / n)), ek.doubly_uniform(np.full(n + 1, 1.0 / (n + 1)))][k % 3]
        v = ek.compute_v(data, spec, "auto").v * (1.0 if k < 3 else 0.7)
        report = ek.check_eso_quadratic(data, spec, v, mode=mode, trials=3_000, rng_seed=k, streams=2)
        certificate = eso.certificate_matrix(data, spec, v)
        labelled = verify._canonical_points(certificate, k)
        expected = _dense_reference_details(data, spec, v, labelled, mode, 3_000, k, 2)
        assert [d["label"] for d in report.details] == [d["label"] for d in expected]
        for got, want in zip(report.details, expected):
            scale = max(1.0, abs(want["lhs"]))
            for key in ("lhs", "rhs", "stderr"):
                assert abs(got[key] - want[key]) <= 1e-12 * scale, (k, got["label"], key)
            assert got["pass"] == want["pass"]


def test_quadratic_check_memory_stays_below_an_m_by_trials_array():
    # At 4000 x 40 with 5000 draws, an m x trials float array alone is 160 MB.
    rng = ek.rng_for_stream(65, 0)
    data = random_sparse_matrix(rng, 4000, 40, 0.05)
    spec = ek.tau_nice(40, 4)
    v = ek.compute_v(data, spec, "taunice").v
    tracemalloc.start()
    try:
        report = ek.check_eso_quadratic(data, spec, v, mode="monte_carlo", trials=5_000, rng_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.trials == 5_000
    assert peak < 16 * 2**20, peak


def test_quadratic_check_refuses_n_above_the_dense_cap(monkeypatch):
    data = ek.DataMatrix.from_dense(np.eye(5))
    spec = ek.tau_nice(5, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the check drew or enumerated before refusing")

    monkeypatch.setattr(config, "DENSE_EIG_CAP", 4)
    for name in ("weighted_sets", "_draw_blocks"):
        monkeypatch.setattr(samplings, name, refuse)
    for mode in ("exhaustive", "monte_carlo"):
        with pytest.raises(ValidationError, match="n <= 4"):
            ek.check_eso_quadratic(data, spec, np.ones(5), mode=mode, trials=100)
        with pytest.raises(ValidationError, match="n <= 4"):
            ek.check_eso_quadratic(data, spec, np.ones(5), points=[(np.zeros(5), np.ones(5))], mode=mode)


def test_quadratic_check_rejects_points_of_the_wrong_length():
    with pytest.raises(ValidationError, match="shape"):
        ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, points=[(np.zeros(4), np.ones(4))])
    with pytest.raises(ValidationError, match="v"):
        ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK[:1], points=[(np.zeros(3), np.ones(3))])


def test_quadratic_check_rejects_an_empty_point_list(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the check did work before refusing")

    monkeypatch.setattr(ek.DataMatrix, "gram", refuse)
    for name in ("weighted_sets", "_draw_blocks"):
        monkeypatch.setattr(samplings, name, refuse)
    for mode in ("exhaustive", "monte_carlo"):
        with pytest.raises(ValidationError, match="at least one point") as info:
            ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, points=[], mode=mode)
        assert info.value.field == "points"


@pytest.mark.parametrize("trials", [2.5, True, np.float64(2.0)])
def test_quadratic_check_refuses_a_fractional_or_bool_trial_count(trials):
    with pytest.raises(ValidationError) as info:
        ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, mode="monte_carlo", trials=trials)
    assert info.value.field == "trials"


def test_quadratic_check_refuses_an_unknown_mode_no_trials_and_non_finite_points():
    with pytest.raises(ValidationError, match="unknown mode 'exact'") as info:
        ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, mode="exact")
    assert info.value.field == "mode"
    for trials in (0, -1):
        with pytest.raises(ValidationError, match="must be positive") as info:
            ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, mode="monte_carlo", trials=trials)
        assert info.value.field == "trials"
    for bad in (np.array([0.0, np.nan, 0.0]), np.array([np.inf, 0.0, 0.0])):
        for point in ((bad, np.ones(3)), (np.zeros(3), bad)):
            with pytest.raises(ValidationError, match="finite") as info:
                ek.check_eso_quadratic(FIXTURE_A, SPEC, V_OK, points=[point])
            assert info.value.field == "points"


def test_quadratic_check_memory_stays_below_a_sets_by_n_array():
    # 20k draws of tau_nice(600, 8) are about 20k distinct sets: as bool
    # rows they alone are 12 MB, and h_S as floats in chunks more again.
    rng = ek.rng_for_stream(70, 0)
    data = random_sparse_matrix(rng, 6000, 600, 0.035)
    spec = ek.tau_nice(600, 8)
    v = ek.compute_v(data, spec, "taunice").v
    # n^2 <= 3 nnz, so the Gram matrix is built once and kept.
    assert data.gram() is data.gram()
    points = [(rng.standard_normal(600), rng.standard_normal(600)) for _ in range(2)]
    tracemalloc.start()
    try:
        report = ek.check_eso_quadratic(data, spec, v, points=points, mode="monte_carlo", trials=20_000, rng_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.points_tested == 2 and report.trials == 20_000
    assert peak <= 16 * 2**20, peak


def test_only_draw_masks_scatters_sets_into_bool_rows():
    # Sets pass between layers as CSR index lists; only the public mask
    # form of the draws turns them back into (sets, n) rows.
    src = Path(ek.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                    if callee == "_scatter":
                        callers.add((path.name, getattr(statement, "name", "<module>")))
    assert callers == {("samplings.py", "draw_masks")}


# ---------------------------------------------------------------------------
# Monte-Carlo expectations over the distinct drawn sets


def _per_draw_quadratic(data, spec, v, labelled, trials, rng_seed, streams):
    """Per-point Monte-Carlo results summed over every draw, one value per
    draw, with the standard error of the raw values."""
    masks = samplings.draw_masks(spec, trials, rng_seed, streams)
    gram, p = data.gram(), ek.marginals(spec)
    details = []
    for x, h, label in labelled:
        ax = data.matvec(x)
        fx = 0.5 * float(np.dot(ax, ax))
        grad = data.rmatvec(ax)
        rhs = fx + float(np.sum(p * grad * h)) + 0.5 * float(np.sum(p * v * h * h))
        h_s = masks * h
        values = fx + h_s @ grad + 0.5 * np.einsum("ki,ki->k", h_s @ gram, h_s)
        lhs = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(trials))
        details.append({"label": label, "lhs": lhs, "rhs": rhs, "stderr": stderr, "pass": rhs - lhs >= -3.0 * stderr})
    return details


def _per_draw_identities(spec, m, h, trials, rng_seed):
    """The Monte-Carlo sides of check_identities, one draw at a time."""
    hadamard = np.zeros((spec.n, spec.n))
    sums = dict.fromkeys(("quadratic_form", "square_of_sum", "diagonal_linear", "second_moment", "first_moment"), 0.0)
    for row in samplings.draw_masks(spec, trials, rng_seed):
        idx = np.flatnonzero(row)
        sub, h_s = m[np.ix_(idx, idx)], h[idx]
        hadamard[np.ix_(idx, idx)] += sub / trials
        sums["quadratic_form"] += float(h_s @ sub @ h_s) / trials
        sums["square_of_sum"] += float(h_s.sum()) ** 2 / trials
        sums["diagonal_linear"] += float(h_s.sum()) / trials
        sums["second_moment"] += idx.size**2 / trials
        sums["first_moment"] += idx.size / trials
    sums["hadamard_matrix"] = float(np.max(np.abs(ek.prob_matrix(spec, "auto").entries * m - hadamard)))
    return sums


_DISTINCT_SET_SPECS = [
    ("tau_nice", lambda n: ek.tau_nice(n, 3)),
    ("explicit", lambda n: ek.explicit(n, [range(0, n, 2), range(1, n, 2), range(n // 2)], [0.5, 0.3, 0.2])),
    ("intersection", lambda n: ek.intersection(ek.tau_nice(n, 5), ek.tau_nice(n, 4))),
    ("doubly_uniform", lambda n: ek.doubly_uniform(np.full(n + 1, 1.0 / (n + 1)))),
    ("all_distinct", lambda n: ek.tau_nice(40, 4)),
]


@pytest.mark.parametrize("streams", [1, 4])
@pytest.mark.parametrize("name, make", _DISTINCT_SET_SPECS, ids=[name for name, _ in _DISTINCT_SET_SPECS])
def test_monte_carlo_checks_match_the_per_draw_sums(name, make, streams, monkeypatch):
    rng = ek.rng_for_stream(67, 0)
    spec = make(int(rng.integers(6, 10)))
    n = spec.n
    data = random_sparse_matrix(rng, int(rng.integers(n, 2 * n)), n, 0.4)
    trials = 2_000
    v = ek.compute_v(data, spec, "uncoupled").v
    m, h = rng.standard_normal((n, n)), rng.standard_normal(n)
    identities_want = _per_draw_identities(spec, m, h, 1_000, streams)
    for stack_entries in (csr._STACK_ENTRIES, 2):
        monkeypatch.setattr(csr, "_STACK_ENTRIES", stack_entries)
        for scale in (1.0, 0.6):
            report = ek.check_eso_quadratic(data, spec, scale * v, mode="monte_carlo", trials=trials, rng_seed=5, streams=streams)
            certificate = eso.certificate_matrix(data, spec, scale * v)
            labelled = verify._canonical_points(certificate, 5)
            expected = _per_draw_quadratic(data, spec, scale * v, labelled, trials, 5, streams)
            assert report.trials == trials
            assert [d["label"] for d in report.details] == [d["label"] for d in expected]
            for got, want in zip(report.details, expected):
                bound = 1e-12 * max(1.0, abs(want["lhs"]))
                for key in ("lhs", "rhs", "stderr"):
                    assert abs(got[key] - want[key]) <= bound, (name, stack_entries, got["label"], key)
                assert got["pass"] == want["pass"], (name, stack_entries, got["label"])

        identities = ek.check_identities(spec, m, h, trials=1_000, rng_seed=streams)
        for key, want in identities_want.items():
            got = identities.results[key]
            value = got["discrepancy"] if key == "hadamard_matrix" else got["rhs"]
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (name, stack_entries, key)


def test_monte_carlo_points_sharing_an_h_keep_their_order():
    rng = ek.rng_for_stream(68, 0)
    data = random_sparse_matrix(rng, 9, 6, 0.5)
    spec = ek.tau_nice(6, 2)
    v = ek.compute_v(data, spec, "auto").v
    h1, h2 = rng.standard_normal(6), rng.standard_normal(6)
    points = [(rng.standard_normal(6), h) for h in (h1, h2, h1, h1.copy(), h2)]
    report = ek.check_eso_quadratic(data, spec, v, points=points, mode="monte_carlo", trials=500, rng_seed=2)
    labelled = [(x, h, f"point{i}") for i, (x, h) in enumerate(points)]
    expected = _per_draw_quadratic(data, spec, v, labelled, 500, 2, 1)
    assert [d["label"] for d in report.details] == [f"point{i}" for i in range(5)]
    for got, want in zip(report.details, expected):
        for key in ("lhs", "rhs", "stderr"):
            assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, abs(want["lhs"])), (got["label"], key)


def test_one_monte_carlo_trial_has_zero_stderr_and_no_warning():
    v = ek.eso_specialized(FIXTURE_A, SPEC).v
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ek.check_eso_quadratic(FIXTURE_A, SPEC, v, mode="monte_carlo", trials=1, rng_seed=4)
    assert report.trials == 1
    assert all(d["stderr"] == 0.0 for d in report.details)
    assert report.lhs_stderr == 0.0


def test_quadratic_check_evaluates_f_and_its_gradient_once_per_distinct_x(monkeypatch):
    rng = ek.rng_for_stream(69, 0)
    data = random_sparse_matrix(rng, 20, 12, 0.3)
    spec = ek.tau_nice(12, 3)
    v = ek.compute_v(data, spec, "auto").v
    calls = {"matvec": 0, "rmatvec": 0}
    for name in calls:
        method = getattr(ek.DataMatrix, name)

        def counted(self, x, name=name, method=method):
            calls[name] += 1
            return method(self, x)

        monkeypatch.setattr(ek.DataMatrix, name, counted)
    # The default grid: 3 values of x times n + 3 values of h.
    report = ek.check_eso_quadratic(data, spec, v)
    assert report.points_tested == 3 * (12 + 3) and report.passed
    assert calls == {"matvec": 3, "rmatvec": 3}
    x1, x2, h = rng.standard_normal(12), rng.standard_normal(12), rng.standard_normal(12)
    points = [(x1, h), (x2, h), (x1.copy(), 2.0 * h), (x2, np.ones(12))]
    report = ek.check_eso_quadratic(data, spec, v, points=points, mode="monte_carlo", trials=200)
    assert report.points_tested == 4
    assert calls == {"matvec": 5, "rmatvec": 5}


def test_overflowing_data_is_refused_by_every_check_without_a_warning(tmp_path, capsys):
    # Finite entries whose squares pass the float range: every check refuses
    # the matrix before it builds A'A. A'A of the second is finite (every
    # entry 1e308), but the certificate's eigenvalue and the quadratic
    # check's products overflow. No RuntimeWarning is raised.
    b = math.sqrt(5e307)
    cases = [
        (lambda: ek.DataMatrix(2, 2, [0, 0, 1], [0, 1, 1], [1e200, 2e200, 1.0]), ek.tau_nice(2, 1)),
        (lambda: ek.DataMatrix.from_dense([[b, b], [b, b]]), ek.tau_nice(2, 2)),
    ]
    v, points = np.ones(2), [(np.ones(2), np.ones(2))]
    for case, (overflowing, spec) in enumerate(cases):
        checks = [
            lambda: ek.certify(overflowing(), spec, v),
            lambda: verify.check_eso_matrix_form(overflowing(), spec, v),
            lambda: verify.check_eso_quadratic(overflowing(), spec, v),
            lambda: verify.check_eso_quadratic(overflowing(), spec, v, points),
            lambda: verify.check_eso_quadratic(overflowing(), spec, v, points, "monte_carlo", trials=1000),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in checks:
                with pytest.raises(ValidationError, match="overflow"):
                    check()

            matrix, vfile = tmp_path / f"A{case}.mtx", tmp_path / "v.json"
            ek.write_matrix(overflowing(), matrix)
            vfile.write_text(json.dumps(v.tolist()))
            for mode in ("matrix", "exhaustive", "monte-carlo"):
                argv = ["verify", "--matrix", str(matrix), "--sampling", json.dumps(spec.to_dict()), "--v", str(vfile),
                        "--mode", mode]
                assert main(argv) == 2
                assert "overflow" in capsys.readouterr().err
