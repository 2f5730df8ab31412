import math

import numpy as np
import pytest

import esokit as ek
from conftest import random_sparse_matrix
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
    with pytest.raises(ValidationError, match="v"):
        ek.solve(problem, ek.tau_nice(problem.n, 1), np.zeros(problem.n))


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
    # Every row support has size 2, so sum |J_j|^2 = 2 * nnz and the coupled
    # preprocessing cost is exactly T * 2 = 20 passes.
    data = ek.DataMatrix.from_triplets(
        3, 6, [(j, 2 * j, 1.0) for j in range(3)] + [(j, 2 * j + 1, 1.0) for j in range(3)]
    )
    spec = ek.tau_nice(6, 2)
    report = ek.tradeoff_report(data, spec, power_iterations=10, lambda_sc=0.5)
    rows = {r["formula"]: r for r in report.rows}
    assert rows["coupled"]["preprocessing_passes"] == pytest.approx(20.0)
    assert rows["generic"]["preprocessing_passes"] == pytest.approx(1.0)


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
    assert rows["coupled"]["max_ratio"] <= rows["generic"]["max_ratio"] + 1e-9
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
