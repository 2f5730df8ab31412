"""Correctness oracles written with numpy alone, from the generated triplets.

None of these import esokit: each recomputes what the program should have
returned from the benchmark's own inputs, so a wrong answer cannot check
itself. Tolerances follow float64 rounding and the reported standard errors;
Monte-Carlo output is only ever compared through a z-bound, never byte for
byte, so a different random-number scheme or a reordered sum passes.
"""

from __future__ import annotations

import numpy as np

# Entries of v for empty columns are floored at this (the package's documented
# numerical policy), so v > 0 always holds.
V_FLOOR = 1e-12

# Certificates pass at margin >= -1e-8 (documented numerical policy).
CERT_TOL = 1e-8

# Relative tolerance for v from closed forms: sums of at most a few hundred
# float64 terms in another order differ by far less than this.
CLOSED_FORM_RTOL = 1e-12

# Relative tolerance where a dense eigen-solve is involved (the package's
# residual policy is 1e-8).
EIGEN_RTOL = 1e-8

# z-bound on each Monte-Carlo probability-matrix entry, fixed in advance: with
# 20,000 draws of tau_nice(200, 8) the rarest entries have a Poisson count
# with mean 28, whose tail beyond 7 standard deviations, summed over the
# 20,100 distinct entries, stays below 1e-4 per run.
Z_BOUND = 7.0


class Triplets:
    """An m-by-n matrix as 0-based (rows, cols, values) arrays."""

    def __init__(self, m: int, n: int, rows, cols, values):
        self.m, self.n = int(m), int(n)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)

    def with_ridge_rows(self, ridge: float) -> "Triplets":
        """Append sqrt(ridge) * e_i rows, so the Gram matrix gains ridge * I."""
        extra = np.arange(self.n, dtype=np.int64)
        return Triplets(
            self.m + self.n,
            self.n,
            np.concatenate([self.rows, self.m + extra]),
            np.concatenate([self.cols, extra]),
            np.concatenate([self.values, np.full(self.n, np.sqrt(ridge))]),
        )

    def row_sizes(self) -> np.ndarray:
        """|J_j|: nonzeros per row."""
        return np.bincount(self.rows, minlength=self.m)

    def column_sq_norms(self) -> np.ndarray:
        return np.bincount(self.cols, weights=self.values**2, minlength=self.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.values * x[self.cols], minlength=self.m)

    def gram(self) -> np.ndarray:
        """A'A by scattering the products of every pair of entries sharing a row."""
        order = np.argsort(self.rows, kind="stable")
        rows, cols, vals = self.rows[order], self.cols[order], self.values[order]
        sizes = np.bincount(rows, minlength=self.m)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        reps = sizes[rows]
        first = np.repeat(np.arange(rows.size), reps)
        block_start = np.repeat(np.cumsum(reps) - reps, reps)
        second = starts[rows[first]] + (np.arange(first.size) - block_start)
        flat = cols[first] * self.n + cols[second]
        g = np.bincount(flat, weights=vals[first] * vals[second], minlength=self.n * self.n)
        return g.reshape(self.n, self.n)


def _row_weighted_v(t: Triplets, multipliers: np.ndarray) -> np.ndarray:
    v = np.bincount(t.cols, weights=multipliers[t.rows] * t.values**2, minlength=t.n)
    return np.where(v > 0.0, v, V_FLOOR)


def tau_nice_v(t: Triplets, tau: int) -> np.ndarray:
    """v_i = sum_j (1 + (|J_j| - 1)(tau - 1)/(n - 1)) A_ji^2."""
    sizes = t.row_sizes().astype(float)
    return _row_weighted_v(t, 1.0 + (sizes - 1.0) * (tau - 1) / max(t.n - 1, 1))


def generic_v(t: Triplets, tau: int) -> np.ndarray:
    """v_i = sum_j min(|J_j|, tau) A_ji^2, valid for any sampling with |S| <= tau."""
    return _row_weighted_v(t, np.minimum(t.row_sizes().astype(float), float(tau)))


def uncoupled_v(t: Triplets, gram: np.ndarray, lambda_prime_p: float) -> np.ndarray:
    """v_i = min(lambda'(P), lambda'(A'A)) w_i, with lambda' the top eigenvalue
    of the diagonally normalized matrix on its support."""
    d = np.diag(gram)
    keep = d > 0.0
    scale = 1.0 / np.sqrt(d[keep])
    lambda_prime_gram = np.linalg.eigvalsh(gram[np.ix_(keep, keep)] * np.outer(scale, scale))[-1]
    factor = min(float(lambda_prime_p), float(lambda_prime_gram))
    w = t.column_sq_norms()
    return np.where(w > 0.0, factor * w, V_FLOOR)


def tau_nice_p(n: int, tau: int) -> np.ndarray:
    """Closed-form P of tau_nice(n, tau)."""
    off = tau * (tau - 1) / (n * (n - 1))
    out = np.full((n, n), off)
    np.fill_diagonal(out, tau / n)
    return out


def mc_p_within_z(estimate: np.ndarray, exact: np.ndarray, samples: int) -> bool:
    """Every entry within Z_BOUND standard errors of the exact P, plus float
    rounding; the standard errors come from the exact entries."""
    sigma = np.sqrt(exact * (1.0 - exact) / samples)
    return bool(np.all(np.abs(np.asarray(estimate) - exact) <= Z_BOUND * sigma + 1e-12))


class Quadratic:
    """f(x) = 0.5||Ax||^2 + (ridge/2)||x||^2 - b'x, solved densely."""

    def __init__(self, t: Triplets, gram: np.ndarray, ridge: float, b: np.ndarray):
        self.t, self.ridge, self.b = t, float(ridge), np.asarray(b, dtype=float)
        self.x_star = np.linalg.solve(gram + ridge * np.eye(t.n), self.b)
        self.f_star = self.f(self.x_star)

    def f(self, x: np.ndarray) -> float:
        ax = self.t.matvec(x)
        return 0.5 * float(ax @ ax) + 0.5 * self.ridge * float(x @ x) - float(self.b @ x)

    def gap(self, x) -> float:
        return self.f(np.asarray(x, dtype=float)) - self.f_star

    def gap_slack(self) -> float:
        """Rounding allowance on a gap: two float64 objective evaluations."""
        return 1e-10 * max(1.0, abs(self.f_star))


def close(actual, expected, rtol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=rtol, atol=0.0)
    )
