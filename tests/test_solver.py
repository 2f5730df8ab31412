import json
import math
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

import esokit as ek
from conftest import random_sparse_matrix
from esokit import eso, samplings, solver
from esokit.errors import DivergenceError, UnsupportedMethodError, ValidationError


def _fixture_problem(seed=71, m=12, n=6, ridge=0.2):
    rng = ek.rng_for_stream(seed, 0)
    data = random_sparse_matrix(rng, m, n, 0.4)
    b = rng.standard_normal(n)
    return ek.QuadraticProblem(data, ridge=ridge, b=b)


def test_one_dimensional_newton_step():
    data = ek.DataMatrix.from_dense(np.array([[3.0]]))
    problem = ek.QuadraticProblem(data)  # f = 4.5 x^2, optimum 0
    trace = ek.solve(problem, ek.elementary(1, [0]), np.array([9.0]), x0=np.array([1.0]))
    assert trace.converged
    assert trace.iterations == 1
    assert trace.final_gap <= 1e-12


def test_separable_problem_coordinatewise_newton():
    diag = np.array([1.0, 2.0, 0.5])
    data = ek.DataMatrix.from_dense(np.diag(diag))
    rng = ek.rng_for_stream(72, 0)
    b = rng.standard_normal(3)
    problem = ek.QuadraticProblem(data, b=b)
    spec = ek.serial([1 / 3] * 3)
    trace = ek.solve(problem, spec, diag**2, x0=np.zeros(3), epsilon=1e-14, max_iter=1000)
    # Each selected coordinate jumps straight to its optimum, so once every
    # coordinate has been touched the gap hits zero.
    assert trace.converged
    assert trace.iterations < 200


def test_optimum_is_fixed_point_for_every_sampling():
    problem = _fixture_problem()
    x_star = problem.x_star()
    rng = ek.rng_for_stream(73, 0)
    for _ in range(5):
        spec = ek.random_spec(rng, problem.n, require_nonnil=True)
        if not ek.is_proper(spec):
            continue
        v = problem.stepsizes(spec, "generic").v
        trace = ek.solve(problem, spec, v, x0=x_star, epsilon=0.0, max_iter=25)
        assert trace.final_gap <= 1e-10
        # The stop rule is gap <= epsilon also for epsilon = 0: no iteration runs.
        assert trace.iterations == 0 and trace.converged


def test_mean_gap_is_nonincreasing_and_meets_bound():
    problem = _fixture_problem()
    spec = ek.tau_nice(problem.n, 2)
    result = problem.stepsizes(spec, "taunice")
    epsilon = 1e-5
    gap0 = problem.objective(np.ones(problem.n)) - problem.f_star()
    bound = ek.complexity_estimate(
        "NSYNC", result.v, result.p, lambda_sc=problem.ridge, epsilon=epsilon, gap0=gap0
    )
    k = math.ceil(bound)
    traces = ek.solve_many(
        problem,
        spec,
        result.v,
        n_runs=40,
        x0=np.ones(problem.n),
        epsilon=0.0,
        max_iter=k,
    )
    # Runs that hit gap 0 stop early; padding with the final gap is exact
    # because the optimum is a fixed point of the update.
    length = max(len(t.gaps) for t in traces)
    by_epoch = np.array(
        [
            [gap for _, gap in t.gaps] + [t.final_gap] * (length - len(t.gaps))
            for t in traces
        ]
    )
    means = by_epoch.mean(axis=0)
    assert np.all(np.diff(means) <= 1e-12)
    assert means[-1] <= epsilon


def test_divergence_guard_trips_on_invalid_stepsizes():
    problem = _fixture_problem(ridge=0.05)
    spec = ek.tau_nice(problem.n, 3)
    v = problem.stepsizes(spec, "taunice").v
    with pytest.raises(DivergenceError):
        ek.solve(problem, spec, v / 200.0, x0=np.ones(problem.n), max_iter=5_000)


def test_solver_rejects_improper_sampling_and_bad_v():
    problem = _fixture_problem()
    with pytest.raises(ValidationError, match="proper"):
        ek.solve(problem, ek.elementary(problem.n, [0]), np.ones(problem.n))
    for bad in (0.0, np.nan, np.inf):
        v = np.ones(problem.n)
        v[2] = bad
        with pytest.raises(ValidationError, match="finite and positive") as info:
            ek.solve_many(problem, ek.tau_nice(problem.n, 1), v, n_runs=2)
        assert info.value.field == "v"


def test_solve_many_is_deterministic_and_thread_invariant():
    problem = _fixture_problem()
    spec = ek.tau_nice(problem.n, 2)
    v = problem.stepsizes(spec).v
    kwargs = dict(x0=np.ones(problem.n), epsilon=1e-8, max_iter=2_000)
    serial_runs = ek.solve_many(problem, spec, v, n_runs=4, threads=1, **kwargs)
    threaded = ek.solve_many(problem, spec, v, n_runs=4, threads=3, **kwargs)
    for a, b in zip(serial_runs, threaded):
        assert a.iterations == b.iterations
        assert a.final_gap == b.final_gap
        assert np.array_equal(a.x_final, b.x_final)
    assert [t.stream_index for t in serial_runs] == [0, 1, 2, 3]


def test_a_run_depends_only_on_its_seed_and_stream():
    # Runs past several 64-draw blocks; stream s alone and inside a batch of
    # 7 runs (in sequence or on threads) agree bit for bit.
    problem = _fixture_problem()
    spec = ek.doubly_uniform([0.0, 0.3, 0.3, 0.2, 0.1, 0.05, 0.05])
    v = problem.stepsizes(spec).v
    kwargs = dict(x0=np.ones(problem.n), epsilon=1e-12, max_iter=700)
    for threads in (1, 2):
        batch = ek.solve_many(problem, spec, v, n_runs=7, rng_seed=19, threads=threads, **kwargs)
        for s in (0, 3, 6):
            alone = ek.solve(problem, spec, v, rng_seed=19, stream_index=s, **kwargs)
            assert alone.iterations == batch[s].iterations > 64
            assert alone.gaps == batch[s].gaps
            assert np.array_equal(alone.x_final, batch[s].x_final)
    with pytest.raises(ValidationError, match="stream_index"):
        ek.solve(problem, spec, v, stream_index=-1)


def test_trace_records_epochs_and_serializes(tmp_path):
    problem = _fixture_problem()
    spec = ek.serial(np.full(problem.n, 1 / problem.n))
    v = problem.stepsizes(spec, "serial").v
    trace = ek.solve(problem, spec, v, x0=np.ones(problem.n), epsilon=1e-10, max_iter=500)
    iterations = [k for k, _ in trace.gaps]
    assert iterations[0] == 0
    assert iterations[-1] == trace.iterations
    interior = [k for k in iterations[1:-1]]
    assert all(k % problem.n == 0 for k in interior)
    gaps = np.array([g for _, g in trace.gaps])
    assert np.all(gaps >= -1e-12)

    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,gap"
    assert len(lines) == len(trace.gaps) + 1
    payload = trace.to_dict()
    assert payload["seed"] == 0 and payload["converged"] == trace.converged


def test_complexity_estimates_match_hand_values():
    assert ek.complexity_estimate(
        "NSYNC", np.array([2.0, 2.0]), np.array([0.5, 0.5]), lambda_sc=1.0, epsilon=math.exp(-1)
    ) == pytest.approx(4.0)
    assert ek.complexity_estimate(
        "ALPHA",
        np.array([1.0, 1.0]),
        np.array([1.0, 1.0]),
        epsilon=2.0,
        x0=np.array([1.0, 0.0]),
        xstar=np.zeros(2),
    ) == pytest.approx(1.0)
    assert ek.complexity_estimate(
        "QUARTZ", np.zeros(3), np.ones(3), lambda_sc=1.0, n=3, epsilon=0.1
    ) == pytest.approx(math.log(10.0))


def test_complexity_estimate_full_form_and_errors():
    bare = ek.complexity_estimate("NSYNC", np.ones(2), np.ones(2), lambda_sc=1.0, epsilon=0.01)
    full = ek.complexity_estimate(
        "NSYNC", np.ones(2), np.ones(2), lambda_sc=1.0, epsilon=0.01, gap0=100.0
    )
    assert bare == pytest.approx(math.log(100.0))
    assert full == pytest.approx(math.log(10_000.0))
    with pytest.raises(ValidationError):
        ek.complexity_estimate("NSYNC", np.ones(2), np.zeros(2), lambda_sc=1.0)
    with pytest.raises(ValidationError):
        ek.complexity_estimate("ALPHA", np.ones(2), np.ones(2))
    with pytest.raises(UnsupportedMethodError):
        ek.complexity_estimate("NOPE", np.ones(2), np.ones(2))
    for kind in ("NSYNC", "QUARTZ"):
        for field in ("lambda_sc", "epsilon"):
            kwargs = {"lambda_sc": 1.0, "epsilon": 0.01, field: math.nan}
            with pytest.raises(ValidationError, match=f"^{field}: "):
                ek.complexity_estimate(kind, np.ones(2), np.ones(2), **kwargs)


def test_optimal_serial_sampling_examples():
    data = ek.DataMatrix.from_dense(np.diag([1.0, np.sqrt(8.0)]))
    design = ek.optimal_serial_sampling(data, np.array([1.0, 1.0]), np.zeros(2))
    assert design.p == pytest.approx([1 / 3, 2 / 3])

    same = ek.DataMatrix.from_dense(np.eye(3))
    design = ek.optimal_serial_sampling(same, np.ones(3), np.zeros(3))
    assert design.p == pytest.approx(np.full(3, 1 / 3))
    assert design.ratio == pytest.approx(1.0)

    partial = ek.optimal_serial_sampling(
        ek.DataMatrix.from_dense(np.eye(2)), np.array([1.0, 5.0]), np.array([0.0, 5.0])
    )
    assert partial.p[1] == 0.0


def test_optimal_serial_never_worse_than_uniform():
    rng = ek.rng_for_stream(74, 0)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        data = random_sparse_matrix(rng, int(rng.integers(2, 10)), n, 0.5)
        x0 = rng.standard_normal(n)
        xstar = rng.standard_normal(n)
        design = ek.optimal_serial_sampling(data, x0, xstar)
        assert design.c_opt <= design.c_unif * (1 + 1e-12)
        d6_cubed = float(np.sum((data.column_sq_norms * (x0 - xstar) ** 2)) ** 0.5)
        d2_cubed = float(np.sum(np.cbrt(data.column_sq_norms * (x0 - xstar) ** 2)) ** 1.5)
        assert design.ratio == pytest.approx(n * d6_cubed / d2_cubed, rel=1e-10)


def test_optimal_serial_degenerate_input():
    with pytest.raises(ValidationError, match="degenerate"):
        ek.optimal_serial_sampling(ek.DataMatrix.from_dense(np.eye(2)), np.ones(2), np.ones(2))


def test_tradeoff_preprocessing_pass_arithmetic():
    # Every row support has size 2 and nnz = 6: coupled-exact costs
    # 2 nnz + sum_j |J_j|^3 = 12 + 24 = 36, so 6 passes; generic 2 nnz, so 2.
    data = ek.DataMatrix.from_triplets(
        3, 6, [(j, 2 * j, 1.0) for j in range(3)] + [(j, 2 * j + 1, 1.0) for j in range(3)]
    )
    spec = ek.tau_nice(6, 2)
    report = ek.tradeoff_report(data, spec, lambda_sc=0.5)
    rows = {r["formula"]: r for r in report.rows}
    assert rows["coupled-exact"]["preprocessing_passes"] == 6.0
    assert rows["generic"]["preprocessing_passes"] == 2.0


@pytest.mark.parametrize(
    "spec", [ek.tau_nice(6, 2), ek.explicit(6, [(0, 1), (2, 3, 4), (5,), (0, 5)], [0.3, 0.3, 0.2, 0.2])],
    ids=["tau_nice", "explicit"],
)
def test_every_tradeoff_row_is_priced_by_its_cost_estimate(spec):
    rng = ek.rng_for_stream(77, 0)
    data = random_sparse_matrix(rng, 9, 6, 0.5)
    names = tuple(name for name, entry in eso.FORMULAS.items() if entry.kind in (None, spec.kind))
    report = ek.tradeoff_report(data, spec, names)
    assert [r["formula"] for r in report.rows] == list(names)
    for row in report.rows:
        result = ek.compute_v(data, spec, row["formula"])
        assert row["formula_id"] == result.formula_id
        assert row["preprocessing_passes"] == result.cost_estimate / data.nnz
        assert row["total_passes"] == row["preprocessing_passes"] + row["iteration_passes"]


def test_tradeoff_refuses_what_compute_v_refuses():
    data = ek.DataMatrix.from_dense(np.eye(3))
    for names in (("coupled",), ("generic", "nonsense"), ("serial",)):
        with pytest.raises(UnsupportedMethodError):
            ek.tradeoff_report(data, ek.tau_nice(3, 2), names)
    with pytest.raises(ValidationError, match="not proper"):
        ek.tradeoff_report(data, ek.explicit(3, [(0, 1)], [1.0]))


def test_tradeoff_takes_no_power_iterations():
    with pytest.raises(TypeError):
        ek.tradeoff_report(ek.DataMatrix.from_dense(np.eye(3)), ek.tau_nice(3, 2), power_iterations=10)


@pytest.mark.parametrize(
    "field, kwargs",
    [("lambda_sc", {"lambda_sc": math.nan}), ("lambda_sc", {"lambda_sc": 0.0}), ("epsilon", {"epsilon": math.nan}),
     ("epsilon", {"epsilon": -1.0}), ("epsilon", {"epsilon": math.inf})],
)
def test_tradeoff_names_the_bad_number(field, kwargs):
    with pytest.raises(ValidationError, match=f"^{field}: "):
        ek.tradeoff_report(ek.DataMatrix.from_dense(np.eye(3)), ek.tau_nice(3, 2), **kwargs)


def test_solve_refuses_a_nan_epsilon_and_keeps_nonpositive_ones():
    problem = _fixture_problem()
    spec = ek.tau_nice(problem.n, 2)
    v = problem.stepsizes(spec).v
    for run in (lambda e: [ek.solve(problem, spec, v, epsilon=e, max_iter=5)],
                lambda e: ek.solve_many(problem, spec, v, n_runs=2, epsilon=e, max_iter=5)):
        with pytest.raises(ValidationError, match="^epsilon: "):
            run(math.nan)
        traces = run(-1.0)
        assert [t.iterations for t in traces] == [5] * len(traces)


@pytest.mark.parametrize("spec_n", [2, 8])
def test_solve_refuses_a_sampling_over_other_coordinates(spec_n):
    problem = _fixture_problem()
    spec, v = ek.tau_nice(spec_n, 1), np.ones(problem.n)
    with pytest.raises(ValidationError, match="^sampling: .*coordinates"):
        ek.solve(problem, spec, v)
    with pytest.raises(ValidationError, match="^sampling: .*coordinates"):
        ek.solve_many(problem, spec, v, n_runs=2)


def test_tradeoff_serial_case_all_formulas_coincide():
    rng = ek.rng_for_stream(75, 0)
    data = random_sparse_matrix(rng, 8, 5, 0.4)
    spec = ek.serial(np.full(5, 0.2))
    report = ek.tradeoff_report(data, spec)
    ratios = [r["max_ratio"] for r in report.rows]
    # tau = 1: conservative, generic and coupled all reduce to v = w.
    assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)


def test_tradeoff_coupled_never_worse_than_generic():
    rng = ek.rng_for_stream(76, 0)
    data = random_sparse_matrix(rng, 30, 40, 0.15)
    blocks = [sorted(int(i) for i in part) for part in np.array_split(rng.permutation(40), 8)]
    spec = ek.product_sampling(blocks)
    report = ek.tradeoff_report(data, spec, lambda_sc=0.1)
    rows = {r["formula"]: r for r in report.rows}
    assert rows["coupled-exact"]["max_ratio"] <= rows["generic"]["max_ratio"] + 1e-9
    assert rows["generic"]["max_ratio"] <= rows["conservative"]["max_ratio"] + 1e-9


def test_problem_checks_strong_convexity():
    singular = ek.DataMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
    problem = ek.QuadraticProblem(singular, ridge=0.0, b=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        problem.strong_convexity()


def test_reference_optimum_accuracy():
    problem = _fixture_problem(seed=77, m=20, n=10, ridge=1e-4)
    x_star = problem.x_star()
    residual = problem.hessian() @ x_star - problem.b
    assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(problem.b))
    assert np.linalg.norm(problem.gradient(x_star)) <= 1e-8


def test_hessian_adds_the_ridge_to_the_gram_diagonal_bit_for_bit():
    problem = _fixture_problem(seed=78, m=15, n=7, ridge=0.3)
    reference = problem.data.gram() + problem.ridge * np.eye(problem.n)
    assert problem.hessian().tobytes() == reference.tobytes()


def test_augmented_data_is_built_once_per_data_and_ridge():
    problem = _fixture_problem()
    first = problem.augmented_data()
    assert problem.augmented_data() is first
    # stepsizes read the cached matrix, so its views are built once.
    problem.stepsizes(ek.tau_nice(problem.n, 2), "taunice")
    assert problem.augmented_data() is first and "row_ptr" in vars(first)

    problem.ridge = 0.5
    second = problem.augmented_data()
    assert second is not first and problem.augmented_data() is second
    assert np.array_equal(second.to_dense(), problem.data.with_ridge_rows(0.5).to_dense())

    problem.data = problem.data.scaled(2.0)
    third = problem.augmented_data()
    assert third is not second and problem.augmented_data() is third
    assert np.array_equal(third.to_dense(), problem.data.with_ridge_rows(0.5).to_dense())

    problem.ridge = 0.0
    assert problem.augmented_data() is problem.data
    # The cache is not a constructor argument, so no caller can seed it.
    with pytest.raises(TypeError):
        ek.QuadraticProblem(problem.data, ridge=0.5, _augmented=(problem.data, 0.5, problem.data))


def _dense_reference_optimum(problem):
    """The dense solve with iterative refinement, as x* was computed for
    every ridge before conjugate gradients."""
    h, b = problem.hessian(), problem.b
    x = np.linalg.solve(h, b)
    scale = max(1.0, float(np.linalg.norm(b)))
    for _ in range(50):
        residual = b - h @ x
        if np.linalg.norm(residual) <= 1e-12 * scale:
            break
        x = x + np.linalg.solve(h, residual)
    return x


def _fresh_f_star(problem):
    return ek.QuadraticProblem(problem.data, ridge=problem.ridge, b=problem.b.copy()).f_star()


def test_optimum_follows_reassigned_fields_and_b_changed_in_place():
    problem = _fixture_problem(seed=81, m=14, n=6, ridge=0.3)
    first = problem.f_star()
    assert problem.x_star() is problem.x_star()

    problem.data = random_sparse_matrix(ek.rng_for_stream(82, 0), 14, 6, 0.4)
    assert problem.f_star() == _fresh_f_star(problem) != first
    problem.ridge = 0.7
    assert problem.f_star() == _fresh_f_star(problem)
    problem.ridge = 0.0  # the dense path
    assert problem.f_star() == _fresh_f_star(problem)
    problem.ridge = 0.7
    problem.b = ek.rng_for_stream(83, 0).standard_normal(6)
    assert problem.f_star() == _fresh_f_star(problem)
    before = problem.f_star()
    problem.b[2] += 1.0
    assert problem.f_star() == _fresh_f_star(problem) != before
    problem.b *= -2.0
    assert problem.f_star() == _fresh_f_star(problem)
    with pytest.raises(TypeError):
        ek.QuadraticProblem(problem.data, ridge=0.5, _optimum=None)


def test_optimum_with_a_ridge_builds_no_dense_array(monkeypatch, tmp_path):
    from esokit.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve")

    problem = _fixture_problem(seed=84, m=30, n=12, ridge=0.4)
    spec = ek.tau_nice(problem.n, 3)
    v = problem.stepsizes(spec, "taunice").v
    matrix, sampling = tmp_path / "A.mtx", tmp_path / "sampling.json"
    ek.write_matrix(problem.data, matrix)
    sampling.write_text(json.dumps(spec.to_dict()))
    monkeypatch.setattr(ek.DataMatrix, "gram", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)

    assert ek.solve(problem, spec, v, epsilon=1e-8).converged
    assert all(t.converged for t in ek.solve_many(_fixture_problem(seed=84, m=30, n=12, ridge=0.4), spec, v, 2))
    model = ek.SamplingCoordinateDescent(sampling=spec, ridge=0.4, formula="taunice").fit(problem.data, problem.b)
    assert model.converged_
    code = main(["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--ridge", "0.4",
                 "--formula", "taunice", "--out", str(tmp_path / "solve.json")])
    assert code == 0


def test_solve_runs_above_the_dense_cap_with_a_ridge(monkeypatch):
    problem = _fixture_problem(seed=85, m=40, n=20, ridge=0.5)
    spec = ek.tau_nice(20, 4)
    v = ek.cardinality_cap(spec) * (problem.data.column_sq_norms + problem.ridge)
    below = ek.QuadraticProblem(problem.data, ridge=0.5, b=problem.b).f_star()
    monkeypatch.setattr(ek.config, "DENSE_EIG_CAP", 8)
    trace = ek.solve(problem, spec, v, epsilon=1e-8)
    assert trace.converged and trace.final_gap <= 1e-8
    # Conjugate gradients do not read the cap, so f* is the same on both sides of it.
    assert problem.f_star() == below


def test_optimum_above_the_dense_cap_without_a_ridge_is_refused(monkeypatch, tmp_path, capsys):
    from esokit.cli import main

    problem = _fixture_problem(seed=85, m=40, n=20, ridge=0.0)
    spec = ek.tau_nice(20, 4)
    v = ek.cardinality_cap(spec) * problem.data.column_sq_norms
    matrix, sampling = tmp_path / "A.mtx", tmp_path / "sampling.json"
    ek.write_matrix(problem.data, matrix)
    sampling.write_text(json.dumps(spec.to_dict()))
    monkeypatch.setattr(ek.config, "DENSE_EIG_CAP", 8)
    with pytest.raises(ValidationError, match=r"ridge = 0\.0 .* n = 20 > 8"):
        ek.solve(problem, spec, v)
    capsys.readouterr()
    code = main(["solve", "--matrix", str(matrix), "--sampling", str(sampling), "--formula", "taunice"])
    assert code == 2
    assert "ridge = 0.0" in capsys.readouterr().err
    # Conjugate gradients that miss their test have no fallback above the cap either.
    monkeypatch.setattr(solver, "_CG_EXTRA_STEPS", -problem.n)
    problem.ridge = 0.5
    with pytest.raises(ValidationError, match="gradient norm"):
        problem.f_star()


def test_conjugate_gradient_optimum_is_certified_and_matches_the_dense_solve(monkeypatch):
    rng = ek.rng_for_stream(86, 0)
    for _ in range(30):
        n = int(rng.integers(2, 16))
        m = int(rng.integers(2, 30))
        data = random_sparse_matrix(rng, m, n, float(rng.uniform(0.15, 0.6)))
        ridge = float(10.0 ** rng.uniform(-4, 0))
        b = rng.standard_normal(n)
        problem = ek.QuadraticProblem(data, ridge=ridge, b=b)
        x, f = problem.x_star(), problem.f_star()
        assert f == problem.objective(x)
        grad = np.linalg.norm(problem.gradient(x))
        assert grad <= 1e-12 * max(1.0, np.linalg.norm(b))
        assert grad**2 / (2 * ridge) <= 1e-10 * max(1.0, abs(f))

        # Steps cap 0: conjugate gradients miss their test, so the dense
        # fallback runs and gives the dense optimum bit for bit.
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_CG_EXTRA_STEPS", -n)
            dense = ek.QuadraticProblem(data, ridge=ridge, b=b)
            assert dense.x_star().tobytes() == _dense_reference_optimum(dense).tobytes()
        assert abs(f - dense.f_star()) <= 1e-12 * max(1.0, abs(dense.f_star()))

        spec = ek.tau_nice(n, int(rng.integers(1, n + 1)))
        v = ek.cardinality_cap(spec) * (data.column_sq_norms + ridge)
        runs = [ek.solve_many(p, spec, v, 2, rng_seed=3, max_iter=3000) for p in (problem, dense)]
        assert [t.iterations for t in runs[0]] == [t.iterations for t in runs[1]]
        assert all(a.x_final.tobytes() == b.x_final.tobytes() for a, b in zip(*runs))


def test_cached_stepsizes_and_certificates_match_a_fresh_augmented_matrix():
    rng = ek.rng_for_stream(79, 0)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        problem = _fixture_problem(seed=int(rng.integers(1 << 30)), m=n + 4, n=n, ridge=0.25)
        fresh = problem.data.with_ridge_rows(problem.ridge)
        spec = ek.random_spec(rng, n, require_nonnil=True)
        if not ek.is_proper(spec):
            continue
        for formula in ("auto", "uncoupled", "coupled-exact", "coupled-bound"):
            for _ in range(2):  # the second call reads the cached matrix
                v = problem.stepsizes(spec, formula).v
                assert v.tobytes() == ek.compute_v(fresh, spec, formula).v.tobytes()
                margin = ek.certify(problem.augmented_data(), spec, v)
                assert margin == ek.certify(fresh, spec, v)


# ---------------------------------------------------------------------------
# The lockstep kernel against the per-run loop it replaced


def _reference_solve(problem, spec, v, x0, epsilon, max_iter, rng_seed, stream_index):
    """The per-run solver loop as it was before the lockstep kernel: one
    coordinate at a time, same draws (blocks of 64 rows per stream)."""
    cols = problem.data.column_entries
    b, ridge = problem.b, problem.ridge
    x = np.asarray(x0, dtype=float).copy()
    f_star = problem.f_star()
    r = problem.data.matvec(x)
    gap0 = problem.objective(x) - f_star
    rng = ek.rng_for_stream(rng_seed, stream_index)
    pending = []
    epoch = max(problem.n, 1)
    gaps = [(0, gap0)]
    window = deque([gap0], maxlen=11)
    gap = gap0
    converged = gap <= epsilon
    k = 0
    gap_floor = 10.0 * np.finfo(float).eps * max(1.0, abs(f_star))
    while not converged and k < max_iter:
        if not pending:
            block = samplings._scatter(spec.n, *samplings._draw_block(spec, 64, rng))
            pending = [np.flatnonzero(row).tolist() for row in block[::-1]]
        idx = pending.pop()
        deltas = []
        for i in idx:
            rows_i, vals_i = cols[i]
            g = float(vals_i @ r[rows_i]) + ridge * x[i] - b[i]
            deltas.append(-g / v[i])
        for i, d in zip(idx, deltas):
            x[i] += d
            rows_i, vals_i = cols[i]
            r[rows_i] += d * vals_i
        k += 1
        f = 0.5 * float(r @ r) + 0.5 * ridge * float(x @ x) - float(b @ x)
        if not math.isfinite(f):
            raise DivergenceError(f"objective became non-finite at iteration {k}")
        gap = f - f_star
        if (
            len(window) == 11
            and gap > 10.0 * window[0]
            and gap > max(epsilon, gap_floor)
            and window[0] > gap_floor
        ):
            raise DivergenceError("gap grew within 10 iterations")
        window.append(gap)
        if k % epoch == 0:
            gaps.append((k, gap))
        converged = gap <= epsilon
    if gaps[-1][0] != k:
        gaps.append((k, gap))
    return k, tuple(gaps), converged, x


def _shared_rows_problem(seed):
    # 10 rows for 12 columns, half of the entries nonzero and row 0 full:
    # selected columns share rows in most iterations. Column 11 is empty,
    # so some gathers select a column with no entries.
    rng = np.random.default_rng(seed)
    m, n = 10, 12
    a = np.where(rng.random((m, n)) < 0.5, rng.standard_normal((m, n)), 0.0)
    a[0] = rng.standard_normal(n)
    a[:, 11] = 0.0
    return ek.QuadraticProblem(ek.DataMatrix.from_dense(a), ridge=0.3, b=rng.standard_normal(n))


def _assert_matches_reference(problem, spec, v, traces, x0, epsilon, max_iter, seed):
    for trace in traces:
        k, gaps, converged, x = _reference_solve(
            problem, spec, v, x0, epsilon, max_iter, seed, trace.stream_index
        )
        assert trace.iterations == k
        assert trace.converged == converged
        assert [at for at, _ in trace.gaps] == [at for at, _ in gaps]
        # A gap is f - f*, so its rounding error scales with |f*|.
        slack = 1e-12 * max(1.0, abs(problem.f_star()))
        np.testing.assert_allclose([g for _, g in trace.gaps], [g for _, g in gaps], rtol=0, atol=slack)
        assert np.linalg.norm(trace.x_final - x) <= 1e-12 * np.linalg.norm(x)


LOCKSTEP_SPECS = {
    "tau-nice-1": ek.tau_nice(12, 1),
    "tau-nice-3": ek.tau_nice(12, 3),
    "tau-nice-7": ek.tau_nice(12, 7),
    "ctau": ek.ctau_distributed([list(range(6)), list(range(6, 12))], 2),
    "serial": ek.serial(np.arange(1, 13) / 78.0),
    "doubly-uniform-with-empty-draws": ek.doubly_uniform([0.2, 0.1, 0.2, 0.2, 0.1, 0.1, 0.1] + [0.0] * 6),
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_SPECS))
def test_lockstep_runs_match_the_per_run_loop(name):
    spec = LOCKSTEP_SPECS[name]
    problem = _shared_rows_problem(31)
    v = problem.stepsizes(spec).v
    x0 = np.random.default_rng(32).standard_normal(problem.n)
    traces = ek.solve_many(problem, spec, v, n_runs=5, rng_seed=33, x0=x0, epsilon=1e-9, max_iter=20_000)
    assert all(t.converged and t.iterations > 64 for t in traces)
    _assert_matches_reference(problem, spec, v, traces, x0, 1e-9, 20_000, 33)


def test_batch_where_some_runs_hit_max_iter():
    spec = ek.tau_nice(12, 3)
    problem = _shared_rows_problem(34)
    v = problem.stepsizes(spec).v
    x0 = np.ones(problem.n)
    counts = sorted(
        t.iterations for t in ek.solve_many(problem, spec, v, n_runs=9, x0=x0, epsilon=1e-10)
    )
    cap = counts[4]
    traces = ek.solve_many(problem, spec, v, n_runs=9, x0=x0, epsilon=1e-10, max_iter=cap)
    stopped = [t for t in traces if not t.converged]
    assert stopped and len(stopped) < len(traces)
    assert all(t.iterations == cap and t.final_gap > 1e-10 for t in stopped)
    assert all(t.iterations <= cap and t.final_gap <= 1e-10 for t in traces if t.converged)
    _assert_matches_reference(problem, spec, v, traces, x0, 1e-10, cap, 0)


def test_divergence_inside_a_batch_raises():
    problem = _fixture_problem(ridge=0.05)
    spec = ek.tau_nice(problem.n, 3)
    v = problem.stepsizes(spec, "taunice").v / 200.0
    with pytest.raises(DivergenceError, match="stream"):
        ek.solve_many(problem, spec, v, n_runs=6, x0=np.ones(problem.n), max_iter=5_000)
    with pytest.raises(DivergenceError):
        _reference_solve(problem, spec, v, np.ones(problem.n), 1e-6, 5_000, 0, 0)


def _assert_same_runs(whole, batched):
    for a, b in zip(whole, batched, strict=True):
        assert a.stream_index == b.stream_index
        assert a.iterations == b.iterations
        assert a.gaps == b.gaps
        assert a.final_gap == b.final_gap
        assert np.array_equal(a.x_final, b.x_final)


def _stops_in_many_iterations():
    """Seven runs that stop in more than three distinct iterations."""
    spec = ek.doubly_uniform([0.1, 0.3, 0.3, 0.2, 0.1, 0.0, 0.0])
    problem = _fixture_problem()
    v = problem.stepsizes(spec).v
    return problem, spec, v, dict(n_runs=7, rng_seed=36, x0=np.ones(problem.n), epsilon=1e-10, max_iter=3_000)


def test_batch_budget_does_not_change_runs(monkeypatch):
    problem, spec, v, kwargs = _stops_in_many_iterations()
    whole = ek.solve_many(problem, spec, v, **kwargs)
    # The runs stop in different iterations, so batches compact as they run.
    assert len({t.iterations for t in whole}) > 3 and all(t.converged for t in whole)
    per_run = problem.data.m + (solver._DRAW_BLOCK + 1) * problem.n
    for runs_per_batch in (1, 2, 3):
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", runs_per_batch * per_run)
        _assert_same_runs(whole, ek.solve_many(problem, spec, v, **kwargs))


def test_each_block_is_indexed_once(monkeypatch):
    problem, spec, v, kwargs = _stops_in_many_iterations()
    calls = []
    steps = solver._steps

    def counted(*args):
        calls.append(args[0].shape[0])
        return steps(*args)

    monkeypatch.setattr(solver, "_steps", counted)
    # Stopped rows carried to the end of their block neither raise nor warn.
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = ek.solve_many(problem, spec, v, **kwargs)
    last = max(t.iterations for t in traces)
    assert len({t.iterations for t in traces}) > 3 and last > 64
    # Runs stopped inside a block leave the arrays when the next one is drawn.
    assert len(calls) == math.ceil(last / solver._DRAW_BLOCK)
    assert calls == sorted(calls, reverse=True) and calls[-1] < calls[0]


def test_divergence_after_a_run_stopped_names_the_live_run():
    # On x = b with v_1 far too small, a run whose first draw is {0} stops at
    # once (gap 5e-7), and any other run's gap grows 841-fold per draw of
    # {1}. Streams 0 and 1 of seed 5 stop in iteration 1, stream 2 diverges
    # in the same block while their rows step on.
    problem = ek.QuadraticProblem(ek.DataMatrix.from_dense(np.eye(2)), b=np.array([1.0, 1e-3]))
    spec, v = ek.serial([0.5, 0.5]), np.array([1.0, 1 / 30])
    for s in (0, 1):
        assert ek.solve(problem, spec, v, epsilon=1e-5, rng_seed=5, stream_index=s).iterations == 1
    with pytest.raises(DivergenceError, match="gap of stream 2 grew"):
        ek.solve_many(problem, spec, v, n_runs=3, rng_seed=5, epsilon=1e-5)


def test_a_stopped_run_with_overflowing_stepsizes_stays_quiet():
    # |S| is 0 with probability 0.8, else {0} or {1}. Each of streams 0-2 of
    # seed 5 stops when it first draws {0} (iterations 12, 3 and 4); the row
    # of stream 2 then draws {1} in iteration 10, where v_1 = 1e-200 would
    # send it to infinity while stream 0 is still running. It is frozen.
    problem = ek.QuadraticProblem(ek.DataMatrix.from_dense(np.eye(2)), b=np.array([1.0, 1e-3]))
    spec, v = ek.doubly_uniform([0.8, 0.2, 0.0]), np.array([1.0, 1e-200])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = ek.solve_many(problem, spec, v, n_runs=3, rng_seed=5, epsilon=1e-5)
    assert [t.iterations for t in traces] == [12, 3, 4]
    assert all(t.converged and np.array_equal(t.x_final, [1.0, 0.0]) for t in traces)


def test_index_budget_does_not_change_runs(monkeypatch):
    # A budget of 1 entry indexes and gathers one step at a time, 200 a
    # few steps (5 runs x 12 draws per step).
    spec = ek.tau_nice(12, 3)
    problem = _shared_rows_problem(37)
    v = problem.stepsizes(spec).v
    kwargs = dict(rng_seed=38, x0=np.ones(problem.n), epsilon=1e-10, max_iter=3_000)
    whole = ek.solve_many(problem, spec, v, n_runs=5, **kwargs)
    assert len({t.iterations for t in whole}) > 2 and all(t.converged for t in whole)
    for entries in (1, 200):
        monkeypatch.setattr(solver, "_INDEX_ENTRIES", entries)
        _assert_same_runs(whole, ek.solve_many(problem, spec, v, n_runs=5, **kwargs))


def test_block_index_memory_is_bounded():
    # 20 runs of 500 coordinates out of 1000: a block of 64 draws selects
    # 640,000 (run, coordinate) pairs, about 5 MB per int64 index array.
    n = 1000
    problem = ek.QuadraticProblem(ek.DataMatrix.from_dense(np.eye(n)), ridge=0.5, b=np.ones(n))
    problem.f_star()
    spec = ek.tau_nice(n, 500)
    tracemalloc.start()
    try:
        ek.solve_many(problem, spec, np.full(n, 2.0), n_runs=20, epsilon=-1.0, max_iter=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n_runs", [0, -2])
def test_solve_many_needs_a_run(n_runs):
    problem = _fixture_problem()
    spec = ek.tau_nice(problem.n, 2)
    with pytest.raises(ValidationError, match="n_runs"):
        ek.solve_many(problem, spec, np.ones(problem.n), n_runs=n_runs)


@pytest.mark.parametrize("length", [5, 7])
def test_solver_rejects_x0_of_wrong_length(length):
    # The kernel indexes x as (runs, n) rows; a longer x0 must not shift them.
    problem = _fixture_problem()
    spec = ek.tau_nice(problem.n, 2)
    with pytest.raises(ValidationError, match="x0"):
        ek.solve(problem, spec, np.ones(problem.n), x0=np.ones(length))
