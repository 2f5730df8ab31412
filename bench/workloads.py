"""The three workloads: seeded inputs, one round of calls, and their checks.

Every workload is a closed loop: one caller in one process, each call made
after the previous one returned, BLAS threads at 1. A round is one pass over
the workload's calls; the runner repeats rounds for the requested seconds.
Each call is one operation, which fails if it raises or if its output misses
the numpy-only oracle in ``oracles``. Checks run after the round, outside
the timed region.

Stages timed per round:
  preprocess  calls that produce certified stepsizes v (time to certified v)
  solution    calls that produce the answer at its stated accuracy: solver
              runs to epsilon 1e-6, or Monte-Carlo estimates at their stated
              sample counts; every draw they consume is counted
  other       calls that only add to the round's total

Every round's wall times are also scaled to a nominal core speed (see
``pace.Pace``), which is what the end-to-end metrics report: on a shared host
the speed of one core drifts by up to 1.8x over seconds to minutes, and a
fixed loop timed between the calls of a round tracks that drift.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import esokit.cli as cli
import esokit.datamatrix as datamatrix
import esokit.eso as eso
import esokit.probability as probability
import esokit.samplings as samplings
import esokit.solver as solver
import esokit.verify as verify

import oracles

EPSILON = 1e-6
_RAISED = object()


class Round:
    """Stage timings, draws and operation outcomes of one round.

    ``wall`` holds each stage's wall seconds. ``finish`` fixes the round's
    ``scale``, the nominal over the measured speed of the core across the
    round (see ``pace.Pace``), and ``times`` are the wall times so scaled.
    A workload that repeats a stage within a round times each pass with
    ``one_pass``; the stage's time is then the median pass.
    """

    def __init__(self, pace):
        self.pace = pace
        self._first_reading = len(pace.readings)
        pace.sample()
        self.wall: dict[str, float] = defaultdict(float)
        self.pass_wall: dict[str, list[float]] = defaultdict(list)
        self.scale = 1.0
        self.traced = False
        self.draws = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self._pending: list[tuple[str, object, object]] = []

    def finish(self) -> None:
        self.pace.sample()
        self.scale = self.pace.scale(self.pace.readings[self._first_reading :])

    @property
    def times(self) -> dict[str, float]:
        return {stage: wall * self.scale for stage, wall in self.wall.items()}

    @property
    def total(self) -> float:
        """Scaled seconds of every call the round made."""
        return sum(self.wall.values()) * self.scale

    def stage_time(self, stage: str) -> float:
        passes = self.pass_wall.get(stage)
        return (statistics.median(passes) if passes else self.wall[stage]) * self.scale

    @contextmanager
    def one_pass(self, stage: str):
        start = self.wall[stage]
        yield
        self.pass_wall[stage].append(self.wall[stage] - start)

    def op(self, stage: str, label: str, call, check):
        """Time call() into stage; check(result) -> bool runs after the round."""
        self.attempted += 1
        self.pace.now()
        start = perf_counter()
        try:
            result = call()
        except Exception:
            self.failures.append((label, traceback.format_exc()))
            result = _RAISED
        finally:
            self.wall[stage] += perf_counter() - start
            self.pace.now()
        if result is _RAISED:
            return None
        self._pending.append((label, check, result))
        return result

    def verify(self) -> None:
        for label, check, result in self._pending:
            try:
                ok = check(result)
            except Exception:
                self.failures.append((label, traceback.format_exc()))
                continue
            if not ok:
                self.failures.append((label, "output missed its oracle"))
        self._pending.clear()


def run_cli(argv: list[str]) -> int:
    """esokit's command line, in process, with its console output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["result"]


def random_triplets(rng: np.random.Generator, m: int, n: int, nnz: int) -> oracles.Triplets:
    """nnz distinct positions, uniformly placed, with standard normal values."""
    keys = rng.choice(m * n, size=nnz, replace=False)
    rows, cols = np.divmod(keys, n)
    return oracles.Triplets(m, n, rows, cols, rng.standard_normal(nnz))


def fixture_triplets(rng: np.random.Generator, m: int, n: int, density: float) -> oracles.Triplets:
    """The acceptance suite's small fixture: Bernoulli(density) pattern with at
    least one entry per row and per column, standard normal values."""
    mask = rng.random((m, n)) < density
    for j in range(m):
        if not mask[j].any():
            mask[j, rng.integers(n)] = True
    for i in range(n):
        if not mask[:, i].any():
            mask[rng.integers(m), i] = True
    a = np.where(mask, rng.standard_normal((m, n)), 0.0)
    rows, cols = np.nonzero(a)
    return oracles.Triplets(m, n, rows, cols, a[rows, cols])


def to_data(t: oracles.Triplets) -> datamatrix.DataMatrix:
    return datamatrix.DataMatrix(t.m, t.n, t.rows, t.cols, t.values)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs from the seed and write any input files."""
        raise NotImplementedError

    def run_round(self, r: Round) -> None:
        raise NotImplementedError

    def extra_metrics(self) -> dict[str, float]:
        """Untraced per-layer measurements a traced run adds after its rounds."""
        return {}


class SparseLarge(Workload):
    """20000 x 2000, ~200k nonzeros, tau_nice(2000, 8), ridge 1.0."""

    name = "sparse-large"
    M, N, NNZ, TAU, RIDGE, SOLVE_SEEDS = 20_000, 2_000, 200_000, 8, 1.0, 2

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        t = random_triplets(rng, self.M, self.N, self.NNZ)
        b = rng.standard_normal(self.N)
        self.triplets, self.b = t, b
        self.spec = samplings.tau_nice(self.N, self.TAU)
        self.matrix_path = self.workdir / "A.txt"
        self.spec_path = self.workdir / "sampling.json"
        self.problem_path = self.workdir / "problem.json"
        lines = [f"{t.m} {t.n} {t.rows.size}"]
        lines += [
            f"{r} {c} {v!r}"
            for r, c, v in zip((t.rows + 1).tolist(), (t.cols + 1).tolist(), t.values.tolist())
        ]
        self.matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.spec_path.write_text(json.dumps({"n": self.N, "kind": "tau_nice", "tau": self.TAU}), encoding="utf-8")
        self.problem_path.write_text(json.dumps({"lambda": self.RIDGE, "b": b.tolist()}), encoding="utf-8")
        self._oracle = None

    def oracle(self) -> dict:
        if self._oracle is None:
            t = self.triplets
            gram = t.gram()
            self._oracle = {
                "tau_nice_v": oracles.tau_nice_v(t, self.TAU),
                # lambda'(P) of tau-nice is tau.
                "uncoupled_v": oracles.uncoupled_v(t, gram, self.TAU),
                "quadratic": oracles.Quadratic(t, gram, self.RIDGE, self.b),
            }
        return self._oracle

    def run_round(self, r: Round) -> None:
        out_v = self.workdir / "v.json"
        out_solve = self.workdir / "solve.json"
        matrix, sampling = str(self.matrix_path), str(self.spec_path)
        r.op(
            "preprocess",
            "cli compute-v --certify",
            lambda: run_cli(["compute-v", "--matrix", matrix, "--sampling", sampling, "--certify", "--out", str(out_v)]),
            lambda code: code == 0 and self._check_certified(_report(out_v)),
        )
        data = r.op(
            "preprocess",
            "read_matrix",
            lambda: datamatrix.read_matrix(matrix),
            lambda d: (d.m, d.n, d.nnz) == (self.M, self.N, self.NNZ),
        )
        r.op(
            "preprocess",
            "compute_v coupled-exact",
            lambda: eso.compute_v(data, self.spec, "coupled-exact"),
            lambda res: res.formula_id == eso.FORMULA_COUPLED_EXACT
            and oracles.close(res.v, self.oracle()["tau_nice_v"], oracles.EIGEN_RTOL),
        )
        r.op(
            "preprocess",
            "compute_v uncoupled",
            lambda: eso.compute_v(data, self.spec, "uncoupled"),
            lambda res: res.formula_id == eso.FORMULA_UNCOUPLED
            and oracles.close(res.v, self.oracle()["uncoupled_v"], oracles.EIGEN_RTOL),
        )
        del data
        r.op(
            "solution",
            "cli solve",
            lambda: run_cli(
                ["solve", "--matrix", matrix, "--sampling", sampling, "--problem", str(self.problem_path),
                 "--seeds", str(self.SOLVE_SEEDS), "--epsilon", repr(EPSILON), "--out", str(out_solve)]
            ),
            lambda code: code == 0 and self._check_solved(r, _report(out_solve)),
        )

    def _check_certified(self, result: dict) -> bool:
        return (
            result["formula_id"] == eso.FORMULA_TAU_NICE
            and result["certificate_margin"] >= -oracles.CERT_TOL
            and oracles.close(result["v"], self.oracle()["tau_nice_v"], oracles.CLOSED_FORM_RTOL)
        )

    def _check_solved(self, r: Round, result: dict) -> bool:
        quad = self.oracle()["quadratic"]
        traces = result["traces"]
        r.draws += sum(t["iterations"] for t in traces)
        return (
            len(traces) == self.SOLVE_SEEDS
            and result["converged"]
            and result["mean_final_gap"] <= EPSILON
            and all(quad.gap(t["x_final"]) <= EPSILON + quad.gap_slack() for t in traces)
        )


class SmallSolver(Workload):
    """The acceptance suite's criterion-08 fixture: 20 x 10, ridge 0.1,
    tau_nice with tau 1 and 3, x0 = ones."""

    name = "small-solver"
    M, N, DENSITY, RIDGE, TAUS = 20, 10, 0.3, 0.1, (1, 3)
    # Runs per tau and round: each stops at epsilon after a few hundred
    # iterations with a spread of about 20%, so 200 runs keep the round's
    # iteration count within about 2% whatever the seed.
    RUNS = 200
    # The stepsizes and their certificates take about 2 ms; a round makes
    # them this many times and preprocess_s is the median pass.
    PREPROCESS_PASSES = 40

    def setup(self) -> None:
        # The matrix is criterion 08's own (stream 0 of seed 108); the seed
        # draws b and the solver's random streams.
        fixture_rng = np.random.default_rng(np.random.SeedSequence(108, spawn_key=(0,)))
        t = fixture_triplets(fixture_rng, self.M, self.N, self.DENSITY)
        self.data = to_data(t)
        self.b = np.random.default_rng(self.seed).standard_normal(self.N)
        self.x0 = np.ones(self.N)
        self.specs = {tau: samplings.tau_nice(self.N, tau) for tau in self.TAUS}
        augmented = t.with_ridge_rows(self.RIDGE)
        self.expected_v = {tau: oracles.tau_nice_v(augmented, tau) for tau in self.TAUS}
        self.quadratic = oracles.Quadratic(t, t.gram(), self.RIDGE, self.b)

    def _solve(self, problem, spec, v, threads: int = 1):
        """solve_many up to the NSYNC iteration bound K for epsilon 1e-6."""
        gap0 = problem.objective(self.x0) - problem.f_star()
        p = samplings.marginals(spec)
        k = math.ceil(
            solver.complexity_estimate("NSYNC", v, p, lambda_sc=self.RIDGE, epsilon=EPSILON, gap0=gap0)
        )
        traces = solver.solve_many(
            problem, spec, v, n_runs=self.RUNS, rng_seed=self.seed, threads=threads,
            x0=self.x0, epsilon=EPSILON, max_iter=k,
        )
        return k, traces

    def _check_solved(self, r: Round, outcome) -> bool:
        k, traces = outcome
        r.draws += sum(t.iterations for t in traces)
        oracle_gaps = [self.quadratic.gap(t.x_final) for t in traces]
        return (
            len(traces) == self.RUNS
            and all(t.iterations <= k for t in traces)
            and float(np.mean([t.final_gap for t in traces])) <= EPSILON
            and float(np.mean(oracle_gaps)) <= EPSILON + self.quadratic.gap_slack()
        )

    def run_round(self, r: Round) -> None:
        problem = solver.QuadraticProblem(self.data, ridge=self.RIDGE, b=self.b)
        stepsizes = {}
        for _ in range(self.PREPROCESS_PASSES):
            with r.one_pass("preprocess"):
                for tau, spec in self.specs.items():
                    res = stepsizes[tau] = r.op(
                        "preprocess",
                        f"stepsizes taunice tau={tau}",
                        lambda: problem.stepsizes(spec, "taunice"),
                        lambda res, tau=tau: res.formula_id == eso.FORMULA_TAU_NICE
                        and oracles.close(res.v, self.expected_v[tau], oracles.CLOSED_FORM_RTOL),
                    )
                    r.op(
                        "preprocess",
                        f"certify tau={tau}",
                        lambda: eso.certify(problem.augmented_data(), spec, res.v),
                        lambda margin: margin >= -oracles.CERT_TOL,
                    )
        for tau, spec in self.specs.items():
            r.op(
                "solution",
                f"solve_many tau={tau}",
                lambda: self._solve(problem, spec, stepsizes[tau].v),
                lambda outcome: self._check_solved(r, outcome),
            )

    def extra_metrics(self) -> dict[str, float]:
        """Wall-time ratio of solve_many with threads=1 over threads=2 (tau=1)."""
        spec = self.specs[1]
        problem = solver.QuadraticProblem(self.data, ridge=self.RIDGE, b=self.b)
        v = problem.stepsizes(spec, "taunice").v
        problem.f_star()
        seconds = {}
        for threads in (1, 2):
            start = perf_counter()
            self._solve(problem, spec, v, threads=threads)
            seconds[threads] = perf_counter() - start
        return {"solver.solve_many.threads2_speedup": seconds[1] / seconds[2]}


class MonteCarlo(Workload):
    """Explicit Monte-Carlo calls and the moment fallback; the data layer and
    the solver are bypassed."""

    name = "monte-carlo"
    P_N, P_TAU, P_SAMPLES = 200, 8, 20_000
    # 25k trials per Monte-Carlo check keep a round near 5 s, so that a run
    # holds enough rounds for a steady median.
    TRIALS = 25_000
    FIXTURE_M, FIXTURE_N, FIXTURE_DENSITY = 20, 12, 0.25

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.FIXTURE_N
        self.p_spec = samplings.tau_nice(self.P_N, self.P_TAU)
        self.p_exact = oracles.tau_nice_p(self.P_N, self.P_TAU)
        # Criterion-06-style fixtures: a tau-nice sampling, and a shuffled
        # partition into blocks of 3 drawn uniformly (|S| = 3 surely).
        order = rng.permutation(n)
        blocks = [sorted(int(i) for i in order[k : k + 3]) for k in range(0, n, 3)]
        self.fixtures = []
        for spec, formula, expected in (
            (samplings.tau_nice(n, 4), eso.FORMULA_TAU_NICE, lambda t: oracles.tau_nice_v(t, 4)),
            (
                samplings.explicit(n, blocks, [1.0 / len(blocks)] * len(blocks)),
                eso.FORMULA_GENERIC_TAU,
                lambda t: oracles.generic_v(t, 3),
            ),
        ):
            t = fixture_triplets(rng, self.FIXTURE_M, n, self.FIXTURE_DENSITY)
            self.fixtures.append((to_data(t), spec, formula, expected(t)))
        # Just past the enumeration cap (n = 17 > 16), so the cardinality
        # moments of the intersection are estimated from 100k draws.
        t = fixture_triplets(rng, 60, 17, 0.2)
        self.inter_data = to_data(t)
        self.inter_spec = samplings.intersection(samplings.tau_nice(17, 3), samplings.tau_nice(17, 4))
        self.inter_v = oracles.generic_v(t, 3)

    def _check_p(self, r: Round, pm) -> bool:
        r.draws += pm.mc_samples
        return (
            pm.provenance == probability.PROVENANCE_MC
            and pm.mc_samples == self.P_SAMPLES
            and oracles.mc_p_within_z(pm.entries, self.p_exact, self.P_SAMPLES)
        )

    def _check_mc(self, r: Round, report) -> bool:
        r.draws += report.trials
        return report.passed and report.trials == self.TRIALS

    def run_round(self, r: Round) -> None:
        r.op(
            "solution",
            "prob_matrix monte_carlo",
            lambda: probability.prob_matrix(self.p_spec, "monte_carlo", mc_samples=self.P_SAMPLES, rng_seed=self.seed),
            lambda pm: self._check_p(r, pm),
        )
        for data, spec, formula, expected in self.fixtures:
            res = r.op(
                "preprocess",
                f"compute_v auto {spec.kind}",
                lambda: eso.compute_v(data, spec, "auto"),
                lambda res, formula=formula, expected=expected: res.formula_id == formula
                and oracles.close(res.v, expected, oracles.CLOSED_FORM_RTOL),
            )
            r.op(
                "solution",
                f"check_eso_quadratic monte_carlo {spec.kind}",
                lambda: verify.check_eso_quadratic(
                    data, spec, res.v, mode="monte_carlo", trials=self.TRIALS, rng_seed=self.seed
                ),
                lambda report: self._check_mc(r, report),
            )
            r.op(
                "other",
                f"check_eso_quadratic exhaustive {spec.kind}",
                lambda: verify.check_eso_quadratic(data, spec, res.v, mode="exhaustive"),
                lambda report: report.passed,
            )
        r.op(
            "preprocess",
            "compute_v auto intersection",
            lambda: eso.compute_v(self.inter_data, self.inter_spec, "auto"),
            lambda res: res.formula_id == eso.FORMULA_GENERIC_TAU
            and oracles.close(res.v, self.inter_v, oracles.CLOSED_FORM_RTOL),
        )
        out = self.workdir / "battery.json"
        r.op(
            "other",
            "cli battery",
            lambda: run_cli(["--seed", str(self.seed), "battery", "--out", str(out)]),
            lambda code: code == 0 and all(c["pass"] for c in _report(out)["checks"].values()),
        )


WORKLOADS = {w.name: w for w in (SparseLarge, SmallSolver, MonteCarlo)}
