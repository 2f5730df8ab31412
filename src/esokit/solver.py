"""Randomized coordinate descent with arbitrary samplings on strongly convex
quadratics, plus the complexity estimators and sampling-design utilities.

The update draws a set S from the sampling and moves every selected
coordinate by its partial gradient scaled with 1/v_i, where v comes from one
of the stepsize formulas (computed on the ridge-augmented data matrix so the
full objective's curvature is covered). A is never densified: the solver reads
the compressed columns of the data matrix and maintains the residual r = Ax
incrementally, so the update of one iteration costs
O(sum_{i in S} |column support of i|). The objective is then recomputed in
full from r and x, which costs O(m + n) per iteration. The sets come from the
sampling's block draw (``config.RNG_SCHEME`` 2) in blocks of 64 per run, so a
run's draws are a pure function of its (seed, stream index).
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import config, eso, samplings
from .datamatrix import DataMatrix
from .errors import DivergenceError, UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec


@dataclass
class QuadraticProblem:
    """f(x) = 0.5 ||Ax||^2 + (ridge/2) ||x||^2 - b'x.

    Strong convexity requires ridge > 0 or A with full column rank; the
    optimum is computed once by a direct solve with iterative refinement and
    cached for gap reporting.
    """

    data: DataMatrix
    ridge: float = 0.0
    b: np.ndarray | None = None
    _x_star: np.ndarray | None = field(default=None, repr=False)
    _f_star: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.ridge < 0:
            raise ValidationError("ridge", "must be nonnegative")
        if self.b is None:
            self.b = np.zeros(self.data.n)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.data.n,):
            raise ValidationError("b", f"expected shape ({self.data.n},)")

    @property
    def n(self) -> int:
        return self.data.n

    def hessian(self) -> np.ndarray:
        return self.data.gram() + self.ridge * np.eye(self.data.n)

    def objective(self, x: np.ndarray) -> float:
        ax = self.data.matvec(x)
        return 0.5 * float(ax @ ax) + 0.5 * self.ridge * float(x @ x) - float(self.b @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.data.rmatvec(self.data.matvec(x)) + self.ridge * x - self.b

    def x_star(self) -> np.ndarray:
        if self._x_star is None:
            h = self.hessian()
            try:
                x = np.linalg.solve(h, self.b)
            except np.linalg.LinAlgError as e:
                raise ValidationError(
                    "problem", "not strongly convex: ridge = 0 and A lacks full column rank"
                ) from e
            # Iterative refinement keeps the reference optimum trustworthy on
            # ill-conditioned fixtures.
            scale = max(1.0, float(np.linalg.norm(self.b)))
            for _ in range(50):
                residual = self.b - h @ x
                if np.linalg.norm(residual) <= 1e-12 * scale:
                    break
                x = x + np.linalg.solve(h, residual)
            self._x_star = x
            self._f_star = self.objective(x)
        return self._x_star

    def f_star(self) -> float:
        self.x_star()
        return self._f_star

    def strong_convexity(self) -> float:
        """The ridge when positive (a certified underestimate), otherwise the
        smallest Gram eigenvalue."""
        if self.ridge > 0:
            return self.ridge
        value = float(np.linalg.eigvalsh(self.data.gram())[0])
        if value <= 0:
            raise ValidationError("problem", "objective is not strongly convex")
        return value

    def augmented_data(self) -> DataMatrix:
        """Data matrix whose Gram matrix includes the ridge term; stepsize
        formulas run on this so the overapproximation covers the full
        objective."""
        return self.data.with_ridge_rows(self.ridge)

    def stepsizes(self, spec: SamplingSpec, formula: str = "auto", **kwargs) -> eso.EsoResult:
        return eso.compute_v(self.augmented_data(), spec, formula=formula, **kwargs)


@dataclass(frozen=True)
class SolverTrace:
    """Objective gaps along one solver run (recorded per epoch and at exit)."""

    iterations: int
    gaps: tuple[tuple[int, float], ...]
    seed: int
    stream_index: int
    spec: SamplingSpec
    v: np.ndarray
    p: np.ndarray
    theoretical_iteration_bound: float
    converged: bool
    final_gap: float
    x_final: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "gaps": [[k, g] for k, g in self.gaps],
            "seed": self.seed,
            "stream_index": self.stream_index,
            "spec": self.spec.to_dict(),
            "v": self.v.tolist(),
            "p": self.p.tolist(),
            "theoretical_iteration_bound": self.theoretical_iteration_bound,
            "converged": self.converged,
            "final_gap": self.final_gap,
            "x_final": self.x_final.tolist() if self.x_final is not None else None,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration,gap\n")
            for k, g in self.gaps:
                fh.write(f"{k},{float(g)!r}\n")


def solve(
    problem: QuadraticProblem,
    spec: SamplingSpec,
    v: np.ndarray,
    x0: np.ndarray | None = None,
    epsilon: float = 1e-6,
    max_iter: int = 1_000_000,
    rng_seed: int = 0,
    stream_index: int = 0,
) -> SolverTrace:
    """Run randomized coordinate descent until the objective gap is at most
    epsilon (``gap <= epsilon``, for every epsilon, also epsilon <= 0) or
    max_iter is hit; a start with gap <= epsilon runs no iteration.

    The sampling must be proper and v must certify (or be trusted to certify)
    the overapproximation on the ridge-augmented data. A 10x gap growth over
    a 10-iteration window aborts with a divergence diagnostic.

    No dense copy of A is made. Each iteration takes the partial gradients
    of every selected coordinate from the same residual r = Ax, then adds
    each coordinate's step to r one column at a time: O(sum_{i in S}
    |column support of i|). The objective 0.5 ||r||^2 + 0.5 ridge ||x||^2 -
    b'x that the stop test reads is recomputed in full, in O(m + n); an
    incremental update would have to track the cross terms between selected
    columns that share rows.

    The sets S are taken from ``config.rng_for_stream(rng_seed,
    stream_index)`` in blocks of 64 draws (``samplings._draw_block``), each
    turned into index lists by one ``np.nonzero``; the run's output is a
    pure function of (rng_seed, stream_index).
    """
    p = samplings.marginals(spec)
    if np.any(p <= 0):
        raise ValidationError("spec", "sampling is not proper")
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n,) or np.any(v <= 0):
        raise ValidationError("v", "v must be positive with one entry per coordinate")

    x = np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float).copy()
    f_star = problem.f_star()
    cols = problem.data.column_entries
    b = problem.b
    ridge = problem.ridge

    r = problem.data.matvec(x)
    gap0 = problem.objective(x) - f_star
    if epsilon > 0:
        bound = complexity_estimate(
            "NSYNC",
            v,
            p,
            lambda_sc=problem.strong_convexity(),
            epsilon=epsilon,
            gap0=gap0,
        )
    else:
        # No finite bound for epsilon <= 0; the stop rule is still gap <= epsilon.
        bound = math.inf

    draws = _index_lists(spec, config.rng_for_stream(rng_seed, stream_index))
    epoch = max(problem.n, 1)
    gaps: list[tuple[int, float]] = [(0, gap0)]
    window: deque[float] = deque([gap0], maxlen=11)
    gap = gap0
    converged = gap <= epsilon
    k = 0
    gap_floor = 10.0 * np.finfo(float).eps * max(1.0, abs(f_star))
    while not converged and k < max_iter:
        idx = next(draws)
        if idx:
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
            raise DivergenceError(
                f"gap grew from {window[0]:.3e} to {gap:.3e} within 10 iterations; "
                "the supplied stepsizes are likely invalid"
            )
        window.append(gap)
        if k % epoch == 0:
            gaps.append((k, gap))
        converged = gap <= epsilon
    if gaps[-1][0] != k:
        gaps.append((k, gap))
    return SolverTrace(
        iterations=k,
        gaps=tuple(gaps),
        seed=rng_seed,
        stream_index=stream_index,
        spec=spec,
        v=v,
        p=p,
        theoretical_iteration_bound=bound,
        converged=converged,
        final_gap=gap,
        x_final=x,
    )


# Draws per block: one block draw and one np.nonzero serve this many iterations.
_DRAW_BLOCK = 64


def _index_lists(spec: SamplingSpec, rng: np.random.Generator):
    """Endless draws of the sampling as ascending index lists, taken from
    ``rng`` in blocks of ``_DRAW_BLOCK`` rows of ``samplings._draw_block``."""
    while True:
        masks = np.zeros((_DRAW_BLOCK, spec.n), dtype=bool)
        samplings._draw_block(spec, masks, rng)
        # One nonzero over the raveled block: far faster than the 2-D form.
        rows, cols = np.divmod(np.flatnonzero(masks), spec.n)
        cols = cols.tolist()
        start = 0
        for end in np.cumsum(np.bincount(rows, minlength=_DRAW_BLOCK)).tolist():
            yield cols[start:end]
            start = end


def solve_many(
    problem: QuadraticProblem,
    spec: SamplingSpec,
    v: np.ndarray,
    n_runs: int,
    rng_seed: int = 0,
    threads: int = 1,
    **kwargs,
) -> list[SolverTrace]:
    """Independent solver runs on per-run streams, merged in stream order."""

    def run(stream_index: int) -> SolverTrace:
        return solve(problem, spec, v, rng_seed=rng_seed, stream_index=stream_index, **kwargs)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(n_runs)))
    return [run(s) for s in range(n_runs)]


# ---------------------------------------------------------------------------
# Complexity estimators


def complexity_estimate(
    kind: str,
    v: np.ndarray,
    p: np.ndarray,
    lambda_sc: float | None = None,
    n: int | None = None,
    epsilon: float = 1e-6,
    x0: np.ndarray | None = None,
    xstar: np.ndarray | None = None,
    gap0: float | None = None,
) -> float:
    """Iteration-count estimates for solvers analyzed under arbitrary samplings.

    NSYNC: max_i v_i/(p_i lambda) * log(1/eps); QUARTZ:
    max_i (1/p_i + v_i/(p_i lambda n)) * log(1/eps); ALPHA:
    sqrt(2 sum_i v_i (x0_i - x*_i)^2 / p_i^2) / sqrt(eps). Passing ``gap0``
    replaces log(1/eps) by the full log(gap0/eps) form. Only the NSYNC-style
    solver is implemented here; the others are estimators.
    """
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValidationError("p", "probabilities must be positive")
    if epsilon <= 0:
        raise ValidationError("epsilon", "must be positive")

    def log_term() -> float:
        if gap0 is not None:
            return math.log(gap0 / epsilon) if gap0 > epsilon else 0.0
        return math.log(1.0 / epsilon)

    kind = kind.upper()
    if kind == "NSYNC":
        if lambda_sc is None or lambda_sc <= 0:
            raise ValidationError("lambda_sc", "NSYNC needs a positive strong convexity constant")
        return float(np.max(v / (p * lambda_sc)) * log_term())
    if kind == "QUARTZ":
        if lambda_sc is None or lambda_sc <= 0:
            raise ValidationError("lambda_sc", "QUARTZ needs a positive strong convexity constant")
        size = n if n is not None else v.size
        return float(np.max(1.0 / p + v / (p * lambda_sc * size)) * log_term())
    if kind == "ALPHA":
        if x0 is None or xstar is None:
            raise ValidationError("x0", "ALPHA needs the initial and optimal points")
        x0 = np.asarray(x0, dtype=float)
        xstar = np.asarray(xstar, dtype=float)
        inner = 2.0 * float(np.sum(v * (x0 - xstar) ** 2 / p**2))
        return math.sqrt(inner) / math.sqrt(epsilon)
    raise UnsupportedMethodError(f"unknown complexity kind {kind!r}")


# ---------------------------------------------------------------------------
# Optimal serial sampling design


@dataclass(frozen=True)
class SerialDesign:
    """Serial sampling minimizing the accelerated complexity bound, with the
    optimal and uniform bound values (common sqrt(2)/sqrt(eps) factor
    dropped)."""

    p: np.ndarray
    c_opt: float
    c_unif: float
    ratio: float

    def to_dict(self) -> dict:
        return {
            "p": self.p.tolist(),
            "c_opt": self.c_opt,
            "c_unif": self.c_unif,
            "ratio": self.ratio,
        }


def optimal_serial_sampling(
    data: DataMatrix, x0: np.ndarray, xstar: np.ndarray
) -> SerialDesign:
    """p_i proportional to (w_i (x0_i - x*_i)^2)^(1/3); coordinates already
    optimal at the start are never selected."""
    x0 = np.asarray(x0, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if x0.shape != (data.n,) or xstar.shape != (data.n,):
        raise ValidationError("x0", f"expected vectors of length {data.n}")
    base = data.column_sq_norms * (x0 - xstar) ** 2
    total_cbrt = float(np.sum(np.cbrt(base)))
    if total_cbrt <= 0.0:
        raise ValidationError("x0", "all coordinates start at the optimum; design is degenerate")
    p = np.cbrt(base) / total_cbrt
    c_opt = total_cbrt**1.5
    c_unif = data.n * math.sqrt(float(np.sum(base)))
    return SerialDesign(p=p, c_opt=c_opt, c_unif=c_unif, ratio=c_unif / c_opt)


# ---------------------------------------------------------------------------
# Preprocessing / iteration trade-off


@dataclass(frozen=True)
class TradeoffReport:
    """Passes-over-data accounting for the competing stepsize formulas."""

    tau: int
    lambda_sc: float
    epsilon: float
    power_iterations: int
    rows: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "lambda_sc": self.lambda_sc,
            "epsilon": self.epsilon,
            "power_iterations": self.power_iterations,
            "rows": [dict(r) for r in self.rows],
        }


_TRADEOFF_FORMULAS = {"coupled": "coupled-exact", "generic": "generic", "conservative": "conservative"}


def tradeoff_report(
    data: DataMatrix,
    spec: SamplingSpec,
    formulas: tuple[str, ...] = ("conservative", "generic", "coupled"),
    power_iterations: int = config.POWER_ITERATIONS,
    lambda_sc: float = 1.0,
    epsilon: float = 1e-6,
) -> TradeoffReport:
    """Per-formula preprocessing passes, iteration passes and the stepsize
    quality ratio max_i v_i tau / (p_i n).

    Pass counts follow the at-scale cost model: the coupled formula is priced
    as power_iterations * sum_j |J_j|^2 / nnz passes (the power-method
    preprocessing pipeline), the closed forms as a constant number of passes.
    At desk scale the coupled multipliers themselves are eigen-solved exactly,
    so they agree bit-for-bit with the closed forms at tau = 1.
    """
    tau = samplings.cardinality_cap(spec)
    if tau < 1:
        raise ValidationError("spec", "trade-off report needs a sampling with |S| >= 1 possible")
    if lambda_sc <= 0 or epsilon <= 0:
        raise ValidationError("lambda_sc", "lambda_sc and epsilon must be positive")
    sum_sq_supports = float(np.sum(data.row_sizes**2))
    nnz = max(data.nnz, 1)
    log_term = math.log(1.0 / epsilon)

    rows = []
    for name in formulas:
        if name not in _TRADEOFF_FORMULAS:
            raise UnsupportedMethodError(f"unknown trade-off formula {name!r}")
        result = eso.compute_v(data, spec, _TRADEOFF_FORMULAS[name])
        preprocessing = power_iterations * sum_sq_supports / nnz if name == "coupled" else 1.0
        max_ratio = float(np.max(result.v * tau / (result.p * data.n)))
        iteration_passes = max_ratio * log_term / lambda_sc
        rows.append(
            {
                "formula": name,
                "formula_id": result.formula_id,
                "preprocessing_passes": preprocessing,
                "iteration_passes": iteration_passes,
                "total_passes": preprocessing + iteration_passes,
                "max_ratio": max_ratio,
            }
        )
    return TradeoffReport(
        tau=tau,
        lambda_sc=lambda_sc,
        epsilon=epsilon,
        power_iterations=power_iterations,
        rows=tuple(rows),
    )
