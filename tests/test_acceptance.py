"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; stated runtime budgets are asserted alongside the numeric tolerances.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np

import esokit as ek
from conftest import capped_partition_spec, matching_stepsizes, random_sparse_matrix
from esokit.spectral import tau_nice_restricted_value


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_closed_form_probability_matrices():
    start = time.monotonic()
    worst = 0.0
    cases = 0
    rng = ek.rng_for_stream(101, 0)
    for n in range(1, 9):
        specs = [ek.tau_nice(n, tau) for tau in range(n + 1)]
        for c in (1, 2, 4):
            if n % c:
                continue
            s = n // c
            contiguous = [list(range(l * s, (l + 1) * s)) for l in range(c)]
            shuffled_order = rng.permutation(n)
            shuffled = [sorted(int(i) for i in shuffled_order[l * s : (l + 1) * s]) for l in range(c)]
            for partition in (contiguous, shuffled):
                specs.extend(ek.ctau_distributed(partition, tau) for tau in range(s + 1))
        q = rng.dirichlet(np.ones(n + 1))
        specs.append(ek.doubly_uniform(q / q.sum()))
        for spec in specs:
            closed = ek.prob_matrix(spec, "closed_form").entries
            enumerated = ek.prob_matrix(spec, "enumerate").entries
            worst = max(worst, float(np.max(np.abs(closed - enumerated))))
            cases += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        worst <= 1e-12 and elapsed <= 30.0,
        f"closed form vs enumeration on {cases} specs: max |diff| = {worst:.2e} "
        f"(tol 1e-12), {elapsed:.1f}s (budget 30s)",
    )


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_corollary_identity_battery():
    start = time.monotonic()
    rng = ek.rng_for_stream(102, 0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        spec = ek.random_spec(rng, n)
        for _ in range(5):
            m_matrix = rng.standard_normal((n, n))
            h = rng.standard_normal(n)
            report = ek.check_identities(spec, m_matrix, h)
            worst = max(worst, report.max_discrepancy)
    elapsed = time.monotonic() - start
    _report(
        2,
        worst <= 1e-10 and elapsed <= 60.0,
        f"six identities on 100 specs x 5 (M,h) pairs: max discrepancy = {worst:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s (budget 60s)",
    )


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_tau_nice_restricted_eigenvalue_exhaustive():
    worst_rel = 0.0
    cases = 0
    for n in range(1, 9):
        for tau in range(1, n + 1):
            spec = ek.tau_nice(n, tau)
            for r in range(1, n + 1):
                for j in itertools.combinations(range(n), r):
                    exact = ek.lambda_prime_restricted(spec, j, "exact").value
                    formula = tau_nice_restricted_value(n, tau, r)
                    worst_rel = max(worst_rel, abs(exact - formula) / formula)
                    cases += 1
    _report(
        3,
        worst_rel <= 1e-8,
        f"restricted eigenvalue closed form over {cases} (n, tau, J) cases: "
        f"max rel error = {worst_rel:.2e} (tol 1e-8)",
    )


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_eigenvalue_sandwich():
    rng = ek.rng_for_stream(104, 0)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        spec = ek.random_spec(rng, n, require_nonnil=True)
        pm = ek.prob_matrix(spec, "auto")
        lam_prime = ek.lambda_prime(pm.entries).value
        lam = ek.lambda_max(pm.entries).value
        first, second = ek.cardinality_moments(spec)
        tau = ek.cardinality_cap(spec)
        ok = (
            second / first <= lam_prime + 1e-9
            and lam_prime <= tau + 1e-9
            and second / n <= lam + 1e-9
            and lam <= first + 1e-9
        )
        violations += 0 if ok else 1
    _report(
        4,
        violations == 0,
        f"moment sandwich on 200 random capped specs: {violations} violations (tol 1e-9)",
    )


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_certificates_across_formulas_and_specs():
    start = time.monotonic()
    rng = ek.rng_for_stream(105, 0)
    worst = math.inf
    combos = 0
    for _ in range(50):
        m = int(rng.integers(5, 51))
        n = int(rng.integers(5, 51))
        density = float(rng.uniform(0.05, 0.2))
        data = random_sparse_matrix(rng, m, n, density)
        for label, spec, result in matching_stepsizes(rng, data):
            margin = ek.certify(data, spec, result.v)
            worst = min(worst, margin)
            combos += 1
            assert margin >= -1e-8, (label, margin)
    elapsed = time.monotonic() - start
    _report(
        5,
        worst >= -1e-8 and elapsed <= 300.0,
        f"PSD certificate over {combos} (fixture, formula, spec) combos: "
        f"worst margin = {worst:.2e} (tol -1e-8), {elapsed:.1f}s (budget 300s)",
    )


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_monte_carlo_and_exhaustive_eso_checks():
    rng = ek.rng_for_stream(106, 0)
    fixtures = []
    for k in range(5):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(6, 21))
        data = random_sparse_matrix(rng, m, n, 0.25)
        spec_choices = [
            ek.tau_nice(n, int(rng.integers(1, n + 1))),
            ek.serial(np.full(n, 1.0 / n)),
            capped_partition_spec(rng, n, 3),
        ]
        spec = spec_choices[k % len(spec_choices)]
        v = ek.compute_v(data, spec, "auto").v
        fixtures.append((data, spec, v))

    all_ok = True
    worst_z = math.inf
    for data, spec, v in fixtures:
        mc = ek.check_eso_quadratic(
            data, spec, v, mode="monte_carlo", trials=100_000, rng_seed=13, streams=4
        )
        exhaustive = ek.check_eso_quadratic(data, spec, v, mode="exhaustive")
        all_ok &= mc.passed and exhaustive.passed
        for point in mc.details:
            if point["stderr"] > 0:
                worst_z = min(worst_z, point["slack"] / point["stderr"])
    _report(
        6,
        all_ok,
        f"5 fixtures: Monte-Carlo slack >= -3*stderr at every canonical point "
        f"(worst z = {worst_z:.2f}) and exhaustive checks pass at 1e-10",
    )


# -- 7 -----------------------------------------------------------------------


def test_criterion_07_dominance_chain():
    rng = ek.rng_for_stream(107, 0)
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(3, 16))
        data = random_sparse_matrix(rng, m, n, 0.35)
        tau = int(rng.integers(1, n + 1))
        spec = capped_partition_spec(rng, n, tau)
        exact = ek.eso_coupled(data, spec, "exact").v
        bound = ek.eso_coupled(data, spec, "bound").v
        generic = ek.eso_specialized(data, spec, case="generic").v
        conservative = ek.eso_conservative(data, spec).v
        worst_gap = max(
            worst_gap,
            float(np.max(exact - bound)),
            float(np.max(bound - generic)),
            float(np.max(generic - conservative)),
        )
    _report(
        7,
        worst_gap <= 1e-10,
        f"coupled-exact <= coupled-bound <= generic <= conservative componentwise on 50 "
        f"fixtures: worst violation = {worst_gap:.2e} (tol 1e-10)",
    )


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_solver_bound_compliance():
    start = time.monotonic()
    rng = ek.rng_for_stream(108, 0)
    data = random_sparse_matrix(rng, 20, 10, 0.3)
    problem = ek.QuadraticProblem(data, ridge=0.1, b=rng.standard_normal(10))
    x0 = np.ones(10)
    epsilon = 1e-6
    gap0 = problem.objective(x0) - problem.f_star()

    results = {}
    for tau in (1, 3):
        spec = ek.tau_nice(10, tau)
        stepsizes = problem.stepsizes(spec, "taunice")
        k_bound = math.ceil(
            ek.complexity_estimate(
                "NSYNC", stepsizes.v, stepsizes.p, lambda_sc=0.1, epsilon=epsilon, gap0=gap0
            )
        )
        traces = ek.solve_many(
            problem, spec, stepsizes.v, n_runs=100, x0=x0, epsilon=0.0, max_iter=k_bound
        )
        results[tau] = (k_bound, float(np.mean([t.final_gap for t in traces])))
    elapsed = time.monotonic() - start
    ok = all(mean_gap <= epsilon for _, mean_gap in results.values()) and elapsed <= 60.0
    detail = ", ".join(
        f"tau={tau}: mean gap {gap:.2e} at K={k}" for tau, (k, gap) in results.items()
    )
    _report(8, ok, f"{detail} (target 1e-6), {elapsed:.1f}s (budget 60s)")


# -- 9 -----------------------------------------------------------------------


def test_criterion_09_optimal_serial_design():
    rng = ek.rng_for_stream(109, 0)
    worst_rel = 0.0
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 15))
        data = random_sparse_matrix(rng, int(rng.integers(2, 12)), n, 0.5)
        x0 = rng.standard_normal(n)
        xstar = rng.standard_normal(n)
        design = ek.optimal_serial_sampling(data, x0, xstar)
        ok &= design.c_opt <= design.c_unif * (1 + 1e-12)
        base = data.column_sq_norms * (x0 - xstar) ** 2
        d2_cubed = float(np.sum(np.cbrt(base)) ** 1.5)
        d6_cubed = float(np.sqrt(np.sum(base)))
        worst_rel = max(worst_rel, abs(design.ratio - n * d6_cubed / d2_cubed) / design.ratio)

    # Equality when every d_i is identical.
    flat = ek.optimal_serial_sampling(ek.DataMatrix.from_dense(np.eye(6)), np.ones(6), np.zeros(6))
    ok &= abs(flat.c_opt - flat.c_unif) <= 1e-12 * flat.c_unif
    _report(
        9,
        ok and worst_rel <= 1e-10,
        f"C_opt <= C_unif on 200 instances with ratio formula max rel err = {worst_rel:.2e} "
        f"(tol 1e-10); equality holds for identical coordinates",
    )


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_power_method_containment():
    rng = ek.rng_for_stream(110, 0)
    asserted = 0
    reported = 0
    ok = True
    for _ in range(10):
        n = int(rng.integers(8, 20))
        data = random_sparse_matrix(rng, int(rng.integers(5, 12)), n, 0.3)
        specs = [
            ek.tau_nice(n, int(rng.integers(2, n + 1))),
            ek.doubly_uniform(np.ones(n + 1) / (n + 1)),
        ]
        for spec in specs:
            pm = ek.prob_matrix(spec, "auto")
            for support in data.row_supports:
                if len(support) < 2:
                    continue
                sub = pm.entries[np.ix_(support, support)]
                exact = ek.lambda_prime(sub).value
                power = ek.lambda_prime(sub, "power_method", 10, 1.01).value
                eigs = np.linalg.eigvalsh(
                    sub / np.sqrt(np.outer(np.diag(sub), np.diag(sub)))
                )
                gap_ratio = eigs[-2] / eigs[-1]
                if gap_ratio <= 0.9:
                    asserted += 1
                    ok &= exact - 1e-12 <= power <= 1.031 * exact
                else:
                    reported += 1
    _report(
        10,
        ok and asserted >= 50,
        f"safeguarded power estimate within [exact, 1.031*exact] on {asserted} restricted "
        f"matrices with eigen-gap ratio <= 0.9 ({reported} outside the gap regime reported, "
        f"not asserted)",
    )


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_tradeoff_reproduces_table_structure():
    rng = ek.rng_for_stream(111, 0)
    data = random_sparse_matrix(rng, 300, 500, 0.05)
    ok = True
    details = []
    for tau in (8, 16, 32):
        blocks = [sorted(int(i) for i in part) for part in np.array_split(rng.permutation(500), tau)]
        spec = ek.product_sampling(blocks)
        report = ek.tradeoff_report(data, spec, lambda_sc=0.1)
        rows = {r["formula"]: r for r in report.rows}
        coupled, generic = rows["coupled-exact"], rows["generic"]
        ok &= coupled["max_ratio"] < generic["max_ratio"]
        ok &= coupled["preprocessing_passes"] > generic["preprocessing_passes"]
        details.append(
            f"tau={tau}: ratio {coupled['max_ratio']:.2f} < {generic['max_ratio']:.2f}, "
            f"passes {coupled['preprocessing_passes']:.1f} > {generic['preprocessing_passes']:.1f}"
        )
    _report(11, ok, "; ".join(details))


# -- 12 ----------------------------------------------------------------------


def test_criterion_12_exact_moments_of_large_intersection_within_budget():
    # Past the enumeration cap, the cardinality moments of an intersection come
    # from its exact probability matrix; 100k Python draws once took 23.5 s
    # (compute_v) and 25 s (lambda_bounds) here.
    spec = ek.intersection(ek.tau_nice(100, 30), ek.tau_nice(100, 40))
    data = random_sparse_matrix(ek.rng_for_stream(112, 0), 150, 100, 0.05)
    start = time.monotonic()
    result = ek.compute_v(data, spec, "auto")
    margin = ek.certify(data, spec, result.v)
    v_elapsed = time.monotonic() - start
    start = time.monotonic()
    bounds = ek.lambda_bounds(spec)
    bounds_elapsed = time.monotonic() - start
    first = 100 * 0.3 * 0.4
    ok = (
        result.formula_id == "GENERIC_TAU"
        and margin >= -1e-8
        and abs(bounds.lambda_upper - first) <= 1e-12
        and bounds.lambda_prime_upper == 30.0
        and v_elapsed < 1.0
        and bounds_elapsed < 1.0
    )
    _report(
        12,
        ok,
        f"intersection(tau_nice(100,30), tau_nice(100,40)): {result.formula_id}, margin "
        f"{margin:.2e}, {v_elapsed:.3f}s to certified v, {bounds_elapsed:.3f}s to bounds "
        f"(budget 1s each)",
    )


# -- 13 ----------------------------------------------------------------------


def test_criterion_13_coupled_exact_past_the_dense_cap():
    # coupled-exact reads only the row supports' blocks of P, so at n = 50k
    # it builds no 50k x 50k P (20 GB); v equals the tau-nice closed form.
    m, n, nnz = 100_000, 50_000, 500_000
    rng = ek.rng_for_stream(113, 0)
    keys = rng.choice(m * n, size=nnz, replace=False)
    data = ek.DataMatrix(m, n, keys // n, keys % n, rng.standard_normal(nnz))
    spec = ek.tau_nice(n, 16)
    tracemalloc.start()
    try:
        start = time.monotonic()
        result = ek.compute_v(data, spec, "coupled-exact")
        elapsed = time.monotonic() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    reference = ek.compute_v(data, spec, "taunice").v
    error = float(np.max(np.abs(result.v - reference) / reference))
    ok = error <= 1e-12 and peak < 256 * 2**20 and elapsed < 20.0
    _report(
        13,
        ok,
        f"coupled-exact on tau_nice({n}, 16), {m}x{n} with {nnz} nonzeros: max relative "
        f"error {error:.1e} against taunice (tol 1e-12), traced peak {peak / 2**20:.0f} MB "
        f"(cap 256 MB), {elapsed:.2f}s (budget 20s)",
    )
