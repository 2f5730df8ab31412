"""Randomized coordinate descent with arbitrary samplings on strongly convex
quadratics, plus the complexity estimators and sampling-design utilities.

The update draws a set S from the sampling and moves every selected
coordinate by its partial gradient scaled with 1/v_i, where v comes from one
of the stepsize formulas (computed on the ridge-augmented data matrix so the
full objective's curvature is covered).

One kernel runs every solve: ``solve_many`` steps all its runs in lockstep,
holding x as (runs, n) and the residual r = Ax as (runs, m), and ``solve`` is
its one-run case. A is never densified. The runs draw their sets in blocks
of 64, as CSR index lists; each block's sets are taken in (iteration, run)
order, and the selected compressed columns are gathered for many
iterations at once, so no array of a block is n wide. An
iteration then takes every partial gradient from the same r by one
``bincount`` and adds the steps to r in (run, ascending coordinate) order,
so rows shared by a set's columns take the steps one at a time. That costs
O(sum over runs of sum_{i in S} |column support of i|). The objective is
then recomputed in full from r and x, O(runs * (m + n)). Runs are grouped
in batches whose per-run state (r, x and a block of draws) fits a fixed
entry budget. A stopped run's row is carried, frozen and unread, to the
end of its block of draws, so each block is drawn and indexed once.

Each run draws from its own ``config.rng_for_stream(seed, stream)``, 64 sets
at a time. One ``samplings._draw_blocks`` call draws the block of every
active run: each run's generator makes the calls it would make alone
(``config.RNG_SCHEME`` 2, unchanged), and only the arithmetic on the draws
is shared. No operation mixes runs' values, so a run's output is a pure
function of its (seed, stream index), the same alone or in any batch.

The stop rule ``gap <= epsilon`` reads f* = ``QuadraticProblem.f_star()``,
the objective at the cached optimum. With ridge > 0 that optimum comes from
conjugate gradients at O(nnz) per step, with no n x n array and no cap on n,
and its excess over the true minimum is certified at most
``||grad f||^2 / (2 ridge)``. The dense direct solve runs only with ridge 0
or as the fallback when conjugate gradients miss their tolerance, and only
for n <= ``config.DENSE_EIG_CAP``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import config, eso, samplings
from .datamatrix import DataMatrix
from .errors import DivergenceError, UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec


@dataclass
class QuadraticProblem:
    """f(x) = 0.5 ||Ax||^2 + (ridge/2) ||x||^2 - b'x.

    Strong convexity requires ridge > 0 or A with full column rank. The
    optimum x* and f* = ``objective(x*)`` are cached for gap reporting,
    keyed on the ``data`` object, the ``ridge`` value and a copy of ``b``.
    Every x* passes ``||grad f(x*)|| <= 1e-12 max(1, ||b||)``. With ridge > 0
    it comes from conjugate gradients, two sparse products per step and no
    n x n array, and ``f(x*) - min f <= ||grad f(x*)||^2 / (2 ridge)``
    certifies f*. The dense solve (:meth:`hessian`, n <= ``config.DENSE_EIG_CAP``)
    runs with ridge 0 and as the fallback when conjugate gradients miss the
    test within n + 100 steps; above the cap both raise ``ValidationError``.

    The ridge-augmented data matrix of :meth:`augmented_data` is cached too,
    with the ``data`` object and the ``ridge`` value it was built from, and
    rebuilt on the next call after either field is reassigned. Every
    stepsize and certificate computed through the problem then shares one
    matrix and the CSR/CSC views and column norms it builds on first use.
    With ridge > 0 that matrix (A with n ridge rows below it) and its views
    stay in memory as long as the problem does, beside ``data`` itself.
    """

    data: DataMatrix
    ridge: float = 0.0
    b: np.ndarray | None = None
    # (data, ridge, copy of b, x*, f*); holding data keeps the identity test sound.
    _optimum: tuple[DataMatrix, float, np.ndarray, np.ndarray, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # (data, ridge, augmented matrix), held as _optimum holds data.
    _augmented: tuple[DataMatrix, float, DataMatrix] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        """A'A + ridge I as a new writable array; the Gram matrix the data
        may keep (see :meth:`DataMatrix.gram`) is copied, never changed."""
        h = self.data.gram().copy()
        h[np.diag_indices_from(h)] += self.ridge
        return h

    def objective(self, x: np.ndarray) -> float:
        ax = self.data.matvec(x)
        return 0.5 * float(ax @ ax) + 0.5 * self.ridge * float(x @ x) - float(self.b @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.data.rmatvec(self.data.matvec(x)) + self.ridge * x - self.b

    def x_star(self) -> np.ndarray:
        cached = self._optimum
        if (
            cached is None
            or cached[0] is not self.data
            or cached[1] != self.ridge
            or not np.array_equal(cached[2], self.b)
        ):
            if self.ridge > 0:
                x = self._conjugate_gradients()
            else:
                x = self._dense_optimum(f"ridge = {self.ridge!r} leaves conjugate gradients no certificate")
            cached = self._optimum = (self.data, self.ridge, np.array(self.b, dtype=float), x, self.objective(x))
        return cached[3]

    def f_star(self) -> float:
        self.x_star()
        return self._optimum[4]

    def _conjugate_gradients(self) -> np.ndarray:
        """Conjugate gradients from x = 0 until ``||grad f(x)|| <= 1e-12
        max(1, ||b||)``; the dense solve when n + _CG_EXTRA_STEPS steps miss
        that test. The residual b - (A'A + ridge I)x is recomputed from the
        data every 25 steps and before x is accepted."""
        data, ridge, n = self.data, self.ridge, self.n
        tol = 1e-12 * max(1.0, float(np.linalg.norm(self.b)))
        x = np.zeros(n)
        r = p = np.array(self.b, dtype=float)  # the residual, exact at x = 0
        rr = r @ r
        steps = n + _CG_EXTRA_STEPS
        for step in range(steps + 1):
            if step % 25 == 0 or rr <= tol * tol:
                r = -self.gradient(x)
                rr = r @ r
                if np.linalg.norm(r) <= tol:
                    return x
            if step == steps:
                break
            q = data.rmatvec(data.matvec(p)) + ridge * p
            alpha = rr / (p @ q)
            x = x + alpha * p
            r = r - alpha * q
            rr, rr_old = r @ r, rr
            p = r + (rr / rr_old) * p
        return self._dense_optimum(
            f"conjugate gradients stopped at gradient norm {np.linalg.norm(self.gradient(x)):.3e} "
            f"after {steps} steps, above the tolerance {tol:.3e}"
        )

    def _dense_optimum(self, reason: str) -> np.ndarray:
        """x* by a dense direct solve with iterative refinement; above the
        dense cap a ``ValidationError`` that gives ``reason``."""
        if self.n > config.DENSE_EIG_CAP:
            raise ValidationError(
                "problem", f"{reason}, and the dense solve is refused for n = {self.n} > {config.DENSE_EIG_CAP}"
            )
        h, b = self.hessian(), self.b
        try:
            x = np.linalg.solve(h, b)
        except np.linalg.LinAlgError as e:
            raise ValidationError(
                "problem", "not strongly convex: ridge = 0 and A lacks full column rank"
            ) from e
        # Iterative refinement keeps the reference optimum trustworthy on
        # ill-conditioned fixtures.
        scale = max(1.0, float(np.linalg.norm(b)))
        for _ in range(50):
            residual = b - h @ x
            if np.linalg.norm(residual) <= 1e-12 * scale:
                break
            x = x + np.linalg.solve(h, residual)
        return x

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
        objective. Built once per (data, ridge) and cached; with ridge 0 it
        is ``data`` itself."""
        cached = self._augmented
        if cached is None or cached[0] is not self.data or cached[1] != self.ridge:
            cached = self._augmented = (self.data, self.ridge, self.data.with_ridge_rows(self.ridge))
        return cached[2]

    def stepsizes(self, spec: SamplingSpec, formula: str = "auto", **kwargs) -> eso.EsoResult:
        return eso.compute_v(self.augmented_data(), spec, formula=formula, **kwargs)


# Conjugate-gradient steps allowed beyond n (exact arithmetic needs at most n)
# before QuadraticProblem.x_star falls back to the dense solve.
_CG_EXTRA_STEPS = 100


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

    This is the one-stream case of :func:`solve_many` (see the module
    docstring for its cost and its draws); the run's output is a pure
    function of (rng_seed, stream_index), the same alone or inside any batch.
    """
    return _solve_streams(problem, spec, v, [stream_index], x0, epsilon, max_iter, rng_seed)[0]


def solve_many(
    problem: QuadraticProblem,
    spec: SamplingSpec,
    v: np.ndarray,
    n_runs: int,
    rng_seed: int = 0,
    threads: int = 1,
    x0: np.ndarray | None = None,
    epsilon: float = 1e-6,
    max_iter: int = 1_000_000,
) -> list[SolverTrace]:
    """Independent runs on streams 0 .. n_runs - 1 of ``rng_seed``, in stream
    order; run s equals ``solve(..., rng_seed=rng_seed, stream_index=s)``
    bit for bit.

    The runs step in lockstep, in batches whose per-run state (m residuals,
    n coordinates and a block of 64 drawn sets, bounded by 64 n indices)
    stays within ``_BATCH_ENTRIES`` entries. An iteration costs O(sum_{i in S} |column
    support of i|) per row for the update and O(m + n) per row for the
    objective. A stopped run keeps its row, frozen and unread, to the end of
    its block of 64 draws: at most 63 extra iterations of array work.
    ``threads`` is accepted for callers that pass it and changes nothing:
    every run of a batch advances in the same array operations, on one
    thread. ``n_runs`` below 1 raises ``ValidationError``.
    """
    if n_runs < 1:
        raise ValidationError("n_runs", "must be at least 1")
    return _solve_streams(problem, spec, v, range(n_runs), x0, epsilon, max_iter, rng_seed)


# Draws per block: each run draws this many sets of its stream at a time.
_DRAW_BLOCK = 64

# Entries of per-run state one lockstep batch may hold (see solve_many).
_BATCH_ENTRIES = 1 << 22

# Entries one index of a block may hold: selections indexed at once, and
# column entries gathered at once (see _steps).
_INDEX_ENTRIES = 1 << 14


def _solve_streams(problem, spec, v, streams, x0, epsilon, max_iter, rng_seed) -> list[SolverTrace]:
    """Validate once, then run the streams in batches of the lockstep kernel."""
    eso._require_same_n(problem.data, spec)
    p = eso._require_proper(spec)
    if math.isnan(epsilon):
        raise ValidationError("epsilon", "must be a number, not NaN")
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n,) or not np.all(np.isfinite(v) & (v > 0)):
        raise ValidationError("v", "v must be finite and positive with one entry per coordinate")
    x0 = np.zeros(problem.n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (problem.n,):
        raise ValidationError("x0", f"expected shape ({problem.n},)")

    f_star = problem.f_star()
    gap0 = problem.objective(x0) - f_star
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

    per_batch = max(1, _BATCH_ENTRIES // (problem.data.m + (_DRAW_BLOCK + 1) * problem.n))
    traces = []
    for lo in range(0, len(streams), per_batch):
        batch = streams[lo : lo + per_batch]
        runs = _lockstep(problem, spec, v, x0, rng_seed, batch, epsilon, max_iter, gap0, f_star)
        for s, run in zip(batch, runs):
            traces.append(
                SolverTrace(
                    **run, seed=rng_seed, stream_index=s, spec=spec, v=v, p=p,
                    theoretical_iteration_bound=bound,
                )
            )
    return traces


def _lockstep(problem, spec, v, x0, rng_seed, streams, epsilon, max_iter, gap0, f_star) -> list[dict]:
    """Step one run per stream from x0, all at once; return the
    ``SolverTrace`` fields of each run's outcome (iterations, gaps,
    converged, final_gap, x_final).

    Row j of ``x`` (runs, n) and ``r`` (runs, m) is the state of run
    ``ids[j]``. All runs share the iteration counter k, so draw blocks, the
    divergence window and the epoch records line up across runs. A stopped
    run's outcome is recorded at once; its row is flagged ``done`` and frozen
    (its steps are zeroed), and is dropped before the next block is drawn.
    """
    data = problem.data
    n = data.n
    b, ridge = problem.b, problem.ridge
    epoch = max(n, 1)
    gap_floor = 10.0 * np.finfo(float).eps * max(1.0, abs(f_star))

    rngs = [config.rng_for_stream(rng_seed, s) for s in streams]
    count = len(rngs)
    ids = np.arange(count)
    x = np.tile(x0, (count, 1))
    r = np.tile(data.matvec(x0), (count, 1))
    # Flat views: x_flat[j * n + i] is x[j, i] and r_flat[j * m + row] is r[j, row].
    x_flat, r_flat = x.reshape(-1), r.reshape(-1)
    gap = np.full(count, gap0)
    # Gap of iteration k in slot k % 11: slot k % 11 still holds the gap of
    # iteration k - 11 when iteration k's gap is tested against it.
    window = np.full((count, 11), gap0)
    gaps = [[(0, gap0)] for _ in range(count)]
    finished: list = [None] * count
    done, frozen = np.zeros(count, dtype=bool), False
    stopping = gap0 <= epsilon
    k = 0
    while True:
        if stopping or k >= max_iter:
            stop = ((gap <= epsilon) | (k >= max_iter)) & ~done
            for j in np.flatnonzero(stop).tolist():
                run, final = int(ids[j]), float(gap[j])
                if k % epoch:
                    gaps[run].append((k, final))
                finished[run] = dict(
                    iterations=k, gaps=tuple(gaps[run]), converged=final <= epsilon,
                    final_gap=final, x_final=x[j].copy(),
                )
            done |= stop
            if done.all():
                break
            frozen, stopping = bool(done.any()), False

        if k % _DRAW_BLOCK == 0:
            if done.any():
                keep = ~done
                ids, x, r, gap, window, done = ids[keep], x[keep], r[keep], gap[keep], window[keep], done[keep]
                x_flat, r_flat = x.reshape(-1), r.reshape(-1)
                rngs = [g for g, kept in zip(rngs, keep.tolist()) if kept]
                frozen = False
            ptr, indices = samplings._draw_blocks(spec, rngs, [_DRAW_BLOCK] * len(rngs))
            steps = _steps(ptr, indices, len(rngs), data, b, v)
        sel, b_sel, v_sel, seg, rows, vals = next(steps)
        if sel.size:
            # Every partial gradient from the same r, then every step.
            dots = np.bincount(seg, weights=vals * r_flat[rows], minlength=sel.size)
            # b - (dot + ridge x) is exactly -((dot + ridge x) - b), the gradient negated.
            x_sel = x_flat[sel]
            delta = (b_sel - (dots + ridge * x_sel)) / v_sel
            if frozen:
                delta[done[sel // n]] = 0.0
            x_flat[sel] = x_sel + delta
            # Sequential adds in entry order: rows shared by a run's columns
            # take the steps one coordinate at a time, ascending.
            np.add.at(r_flat, rows, delta[seg] * vals)
        k += 1
        f = 0.5 * np.vecdot(r, r) + 0.5 * ridge * np.vecdot(x, x) - np.vecdot(x, b)
        gap = f - f_star
        oldest = window[:, k % 11]
        # One test passes the usual iteration: every live gap finite, above
        # epsilon and below ten times the run's gap 11 iterations back (gap0
        # in the first 10). Anything else takes the exact checks below.
        if not (((gap > epsilon) & (gap < 10.0 * oldest)) | done).all():
            finite = np.isfinite(f) | done
            if not finite.all():
                s = streams[ids[np.argmin(finite)]]
                raise DivergenceError(f"objective of stream {s} became non-finite at iteration {k}")
            if k >= 11:
                grew = (gap > 10.0 * oldest) & (gap > max(epsilon, gap_floor)) & (oldest > gap_floor) & ~done
                if grew.any():
                    j = int(np.argmax(grew))
                    raise DivergenceError(
                        f"gap of stream {streams[ids[j]]} grew from {oldest[j]:.3e} to {gap[j]:.3e} "
                        "within 10 iterations; the supplied stepsizes are likely invalid"
                    )
            stopping = bool(((gap <= epsilon) & ~done).any())
        window[:, k % 11] = gap
        if k % epoch == 0:
            # A stopped run's list was copied when it stopped; it is not read again.
            for run, g in zip(ids.tolist(), gap.tolist()):
                gaps[run].append((k, g))
    return finished


def _steps(ptr, indices, count, data, b, v):
    """Yield the index arrays of each lockstep step of a block of draws.

    ``(ptr, indices)`` holds the runs' draws as CSR, set j * 64 + t being
    run j's draw for step t; step t selects the coordinates i of that set
    in row j. Each step yields, over its selections in (row, ascending
    coordinate) order, their flat positions j * n + i into x, b_i and v_i,
    and over the nonzeros of their columns the index of the entry's
    selection within the step, the flat position j * m + row into r and the
    value. The selections are indexed for as many steps as hold at most
    ``_INDEX_ENTRIES`` of them (at least one); the columns are gathered for
    as many steps as fit that many entries.
    """
    depth = _DRAW_BLOCK
    sel_at = np.concatenate(([0], np.diff(ptr).reshape(count, depth).sum(axis=0).cumsum())).tolist()
    lo = 0
    while lo < depth:
        hi = max(lo + 1, bisect.bisect_right(sel_at, sel_at[lo] + _INDEX_ENTRIES) - 1)
        # The sets of steps lo .. hi - 1 in (step, row) order.
        sets = (np.arange(lo, hi)[:, None] + depth * np.arange(count)).reshape(-1)
        set_ptr, col = samplings._take(ptr, indices, sets)
        step, row = np.divmod(samplings._row_of(set_ptr), count)
        yield from _gathered_steps(step, row, col, hi - lo, data, b, v)
        lo = hi


def _gathered_steps(step, row, col, depth, data, b, v):
    """``_steps`` over the selections of ``depth`` steps, in (step, row,
    coordinate) order: selection k picks coordinate col[k] of row row[k]
    in step step[k]."""
    n = data.n
    col_ptr, col_rows, col_values = data.col_ptr, data.col_rows, data.col_values
    sizes = (col_ptr[1:] - col_ptr[:-1])[col]
    # Offsets of each step's first selection and first entry.
    starts = np.searchsorted(step, np.arange(depth + 1))
    ent_at = np.concatenate(([0], sizes.cumsum()))[starts].tolist()
    # Index of each selection within its step.
    within = np.arange(step.size) - starts[step]
    sel_at = starts.tolist()
    lo = 0
    while lo < depth:
        hi = max(lo + 1, bisect.bisect_right(ent_at, ent_at[lo] + _INDEX_ENTRIES) - 1)
        a, c = sel_at[lo], sel_at[hi]
        g_col, g_sizes = col[a:c], sizes[a:c]
        pos = samplings._spans(col_ptr[g_col], g_sizes)
        rows = row[a:c].repeat(g_sizes) * data.m + col_rows[pos]
        vals = col_values[pos]
        seg = within[a:c].repeat(g_sizes)
        sel = row[a:c] * n + g_col
        b_sel, v_sel = b[g_col], v[g_col]
        for t in range(lo, hi):
            i, j = sel_at[t] - a, sel_at[t + 1] - a
            e, f = ent_at[t] - ent_at[lo], ent_at[t + 1] - ent_at[lo]
            yield sel[i:j], b_sel[i:j], v_sel[i:j], seg[e:f], rows[e:f], vals[e:f]
        lo = hi


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
    if not epsilon > 0:
        raise ValidationError("epsilon", f"must be positive, got {epsilon}")

    def log_term() -> float:
        if gap0 is not None:
            return math.log(gap0 / epsilon) if gap0 > epsilon else 0.0
        return math.log(1.0 / epsilon)

    kind = kind.upper()
    if kind in ("NSYNC", "QUARTZ") and not (lambda_sc is not None and lambda_sc > 0):
        raise ValidationError("lambda_sc", f"{kind} needs a positive strong convexity constant, got {lambda_sc}")
    if kind == "NSYNC":
        return float(np.max(v / (p * lambda_sc)) * log_term())
    if kind == "QUARTZ":
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
    """Passes over the data per stepsize formula: preprocessing as the
    formula's ``cost_estimate`` over nnz, iterations by the NSYNC bound."""

    tau: int
    lambda_sc: float
    epsilon: float
    rows: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "lambda_sc": self.lambda_sc,
            "epsilon": self.epsilon,
            "rows": [dict(r) for r in self.rows],
        }


def tradeoff_report(
    data: DataMatrix,
    spec: SamplingSpec,
    formulas: tuple[str, ...] = ("conservative", "generic", "coupled-exact"),
    lambda_sc: float = 1.0,
    epsilon: float = 1e-6,
) -> TradeoffReport:
    """One row per name of :data:`eso.FORMULAS`, labelled with it: the
    preprocessing passes ``cost_estimate / max(nnz, 1)`` of
    :func:`eso.compute_v`, the iteration passes max_ratio * log(1/epsilon) /
    lambda_sc, and the stepsize quality ratio max_ratio = max_i v_i tau /
    (p_i n), tau the sampling's cardinality cap. ``compute_v`` refuses an
    unknown name, a family name on another kind and an improper sampling.
    """
    for name, value in (("lambda_sc", lambda_sc), ("epsilon", epsilon)):
        if not 0 < value < math.inf:
            raise ValidationError(name, f"must be positive and finite, got {value}")
    tau = samplings.cardinality_cap(spec)
    nnz = max(data.nnz, 1)
    log_term = math.log(1.0 / epsilon)

    rows = []
    for name in formulas:
        result = eso.compute_v(data, spec, name)
        preprocessing = result.cost_estimate / nnz
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
    return TradeoffReport(tau=tau, lambda_sc=lambda_sc, epsilon=epsilon, rows=tuple(rows))
