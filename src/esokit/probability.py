"""Pairwise inclusion probability matrices P with P_ij = Prob({i,j} in S-hat).

P is the expectation of the 0/1 indicator matrix of the drawn set, so it is
symmetric, positive semidefinite, and carries the marginals on its diagonal.
Exact matrices exist for every kind and come from one set of rules,
:func:`exact_rule`: per-kind closed forms, support enumeration for graph and
explicit kinds, and the mixture, intersection and restriction rules for
composites. A rule gives P_ij at any index arrays, so :func:`prob_matrix`
evaluates it on the full grid and :func:`spectral.restricted_lambda_primes`
only on the blocks it needs. Monte-Carlo estimates are made only on request,
are tagged with their sample count and per-entry standard errors, and are
never accepted as PSD certificates. Enumerated matrices and
:func:`check_identities` read their sets from :func:`samplings.weighted_masks`;
Monte-Carlo matrices sum the raw rows of :func:`samplings.draw_masks`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import config, samplings
from .errors import CertificateUnavailableError, UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec

PROVENANCE_CLOSED = "closed_form"
PROVENANCE_ENUM = "enumerated"
PROVENANCE_MC = "monte_carlo"

_PROVENANCE_RANK = {PROVENANCE_CLOSED: 0, PROVENANCE_ENUM: 1, PROVENANCE_MC: 2}

_BLOCK_ROWS = 128
# Entries of one float32 block of unweighted masks in _outer_sum (below
# 2^24 rows at any n).
_COUNT_BLOCK_ENTRIES = 1 << 16
# Entries of the largest (sets, |S|, |S|) stack check_identities gathers.
_STACK_ENTRIES = 1 << 16

_CLOSED_FORM_KINDS = (
    samplings.KIND_ELEMENTARY,
    samplings.KIND_SERIAL,
    samplings.KIND_TAU_NICE,
    samplings.KIND_CTAU,
    samplings.KIND_DOUBLY_UNIFORM,
    samplings.KIND_PRODUCT,
)


@dataclass(frozen=True)
class ProbMatrix:
    """Symmetric n-by-n matrix of pairwise inclusion probabilities."""

    n: int
    entries: np.ndarray
    provenance: str
    mc_samples: int | None = None
    stderr: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (self.n, self.n):
            raise ValidationError("entries", f"expected shape ({self.n},{self.n})")
        if self.provenance not in _PROVENANCE_RANK:
            raise ValidationError("provenance", f"unknown tag {self.provenance!r}")
        if not entries.size:
            return
        slack = 1e-12 + (3.0 * self.max_stderr if self.provenance == PROVENANCE_MC else 0.0)
        if entries.min() < -slack or entries.max() > 1.0 + slack:
            raise ValidationError("entries", "entries outside [0, 1]")
        # One n x n buffer serves both pairwise checks. A NaN entry passes the
        # range check and fails the symmetry check, as it compares false.
        work = np.subtract(entries, entries.T)
        if not np.abs(work, out=work).max() <= 1e-12:
            raise ValidationError("entries", "matrix is not symmetric")
        diag = np.diag(entries)
        np.minimum.outer(diag, diag, out=work)
        if np.subtract(entries, work, out=work).max() > slack:
            raise ValidationError("entries", "off-diagonal exceeds min of its diagonal pair")

    @property
    def max_stderr(self) -> float:
        return float(self.stderr.max()) if self.stderr is not None and self.stderr.size else 0.0

    @property
    def is_exact(self) -> bool:
        return self.provenance != PROVENANCE_MC

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "provenance": self.provenance,
            "entries": self.entries.tolist(),
        }
        if self.mc_samples is not None:
            out["mc_samples"] = self.mc_samples
            out["max_stderr"] = self.max_stderr
        return out


def _worst_provenance(tags) -> str:
    return max(tags, key=lambda t: _PROVENANCE_RANK[t])


# ---------------------------------------------------------------------------
# Construction


def prob_matrix(
    spec: SamplingSpec,
    method: str = "auto",
    mc_samples: int = 100_000,
    rng_seed: int = 0,
    streams: int = 1,
) -> ProbMatrix:
    """Dense n x n probability matrix; refused above ``config.DENSE_EIG_CAP``.

    method:
      * ``auto`` - :func:`exact_rule` on the full grid (closed forms on
        leaves, enumeration where supports are explicit, combination rules on
        composites). It is exact for every kind and never draws.
      * ``closed_form`` - the same, only for the elementary, serial,
        tau-nice, (c,tau)-distributed, doubly-uniform and product kinds.
      * ``enumerate`` - exact expectation over the enumerated support.
      * ``monte_carlo`` - empirical mean of indicator matrices over
        ``mc_samples`` draws of :func:`samplings.draw_masks`, split across
        ``streams`` replica streams. The only method that draws.
    """
    if spec.n > config.DENSE_EIG_CAP:
        raise ValidationError("n", f"a dense probability matrix needs n <= {config.DENSE_EIG_CAP}")
    if method in ("auto", "closed_form"):
        if method == "closed_form" and spec.kind not in _CLOSED_FORM_KINDS:
            raise UnsupportedMethodError(f"no closed-form probability matrix for kind {spec.kind!r}")
        return exact_matrix(spec)
    if method == "enumerate":
        return ProbMatrix(spec.n, _outer_sum(*samplings.weighted_masks(spec)), PROVENANCE_ENUM)
    if method == "monte_carlo":
        return _monte_carlo(spec, mc_samples, rng_seed, streams)
    raise UnsupportedMethodError(f"unknown method {method!r}")


def exact_matrix(spec: SamplingSpec) -> ProbMatrix:
    """:func:`exact_rule` on the full grid at any n (no dense cap). The rule,
    and with it an enumerated P, is freed before the result is validated."""
    entry, tag = exact_rule(spec)
    idx = np.arange(spec.n)
    entries = entry(idx[:, None], idx[None, :])
    del entry
    return ProbMatrix(spec.n, entries, tag)


Entry = Callable[[np.ndarray, np.ndarray], np.ndarray]


def exact_rule(spec: SamplingSpec) -> tuple[Entry, str]:
    """The exact P of a sampling as a rule: (entry, provenance).

    ``entry(i, j)`` gives P_ij at integer index arrays that broadcast
    together, so a caller evaluates the whole grid or only the blocks it
    needs. Leaf kinds use their closed forms; a convex combination sums its
    nonzero-weight components in order, an intersection multiplies its two
    components' entries and a restriction masks its component's. Graph and
    explicit kinds enumerate their P once, when the rule is built.
    """
    k = spec.kind
    if k in _CLOSED_FORM_KINDS:
        return _closed_rule(spec), PROVENANCE_CLOSED
    if k == samplings.KIND_CONVEX:
        parts = [(w, exact_rule(comp)) for w, comp in zip(spec.weights, spec.components) if w != 0.0]

        def mixture(i, j):
            total = _zeros(i, j)
            for w, (entry, _) in parts:
                total += w * entry(i, j)
            return total

        return mixture, _worst_provenance([PROVENANCE_CLOSED] + [tag for _, (_, tag) in parts])
    if k == samplings.KIND_INTERSECTION:
        (first, t1), (second, t2) = map(exact_rule, spec.components)
        return (lambda i, j: first(i, j) * second(i, j)), _worst_provenance([t1, t2])
    if k == samplings.KIND_RESTRICTION:
        entry, tag = exact_rule(spec.components[0])
        mask = np.zeros(spec.n)
        mask[list(spec.set)] = 1.0
        return (lambda i, j: entry(i, j) * (mask[i] * mask[j])), tag
    # graph / explicit: support is explicit in the parameters.
    entries = _outer_sum(*samplings.weighted_masks(spec))
    return (lambda i, j: entries[i, j]), PROVENANCE_ENUM


def _closed_rule(spec: SamplingSpec) -> Entry:
    n = spec.n
    k = spec.kind
    p = samplings.marginals(spec)
    if k == samplings.KIND_ELEMENTARY:
        return lambda i, j: p[i] * p[j]
    if k == samplings.KIND_SERIAL:
        return lambda i, j: np.where(i == j, p[i], 0.0)
    if k == samplings.KIND_PRODUCT:
        block = _block_ids(n, spec.blocks)
        return lambda i, j: np.where(i == j, p[i], np.where(block[i] == block[j], 0.0, p[i] * p[j]))
    if k == samplings.KIND_DOUBLY_UNIFORM:
        first, second = samplings.cardinality_moments(spec)
        if first == 0.0:
            return _zeros
        return _uniform(first / n, (second / first - 1.0) / max(n - 1, 1))
    tau = spec.tau
    if tau == 0:
        return _zeros
    if k == samplings.KIND_TAU_NICE:
        return _uniform(tau / n, (tau - 1) / max(n - 1, 1))
    # (c,tau)-distributed
    s = len(spec.partition[0])
    diagonal, inner, outer = tau / s, tau * (tau - 1) / (s * max(s - 1, 1)), (tau / s) ** 2
    block = _block_ids(n, spec.partition)
    return lambda i, j: np.where(i == j, diagonal, np.where(block[i] == block[j], inner, outer))


def _zeros(i, j) -> np.ndarray:
    return np.zeros(np.broadcast(i, j).shape)


def _uniform(c: float, beta: float) -> Entry:
    """Entries of c * ((1 - beta) I + beta 11')."""
    return lambda i, j: c * ((1.0 - beta) * (i == j) + beta)


def _block_ids(n: int, blocks) -> np.ndarray:
    """Block number of each index of a partition of [n]."""
    out = np.empty(n, dtype=int)
    for b, members in enumerate(blocks):
        out[list(members)] = b
    return out


def _monte_carlo(spec: SamplingSpec, samples: int, rng_seed: int, streams: int) -> ProbMatrix:
    if samples < 1:
        raise ValidationError("mc_samples", "must be positive")
    masks = samplings.draw_masks(spec, samples, rng_seed, streams)
    # Integer counts sum exactly in any order: the mean is symmetric, in [0, 1].
    mean = _outer_sum(masks) / samples
    stderr = np.sqrt(mean * (1.0 - mean) / samples)
    return ProbMatrix(spec.n, mean, PROVENANCE_MC, mc_samples=samples, stderr=stderr)


def _outer_sum(masks: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_k weights[k] 1_{S_k} 1_{S_k}' (unit weights when None), over
    blocks of rows so the float copy of the masks stays small.

    Unit weights count co-occurrences in float32 blocks of at most
    ``_COUNT_BLOCK_ENTRIES`` entries, so of fewer than 2^24 rows: every
    partial sum is an integer below 2^24, exact in float32, and the float64
    total is the exact count, whatever the summation order.
    """
    n = masks.shape[1]
    out = np.zeros((n, n))
    if weights is None:
        step = max(1, _COUNT_BLOCK_ENTRIES // max(n, 1))
        for start in range(0, masks.shape[0], step):
            block = masks[start : start + step].astype(np.float32)
            out += block.T @ block
        return out
    for start in range(0, masks.shape[0], _BLOCK_ROWS):
        block = masks[start : start + _BLOCK_ROWS].astype(float)
        out += (block * weights[start : start + _BLOCK_ROWS, None]).T @ block
    return out


# ---------------------------------------------------------------------------
# Identity checks


@dataclass(frozen=True)
class IdentityReport:
    """Left/right values and discrepancies for the six expectation identities
    linking P to moments of the sampling."""

    mode: str  # exact | monte_carlo
    trials: int
    results: dict  # name -> {"lhs": float|None, "rhs": float|None, "discrepancy": float}

    @property
    def max_discrepancy(self) -> float:
        return max(r["discrepancy"] for r in self.results.values())

    def to_dict(self) -> dict:
        return {"mode": self.mode, "trials": self.trials, "results": self.results}


def check_identities(
    spec: SamplingSpec,
    m_matrix: np.ndarray,
    h: np.ndarray,
    trials: int = 0,
    rng_seed: int = 0,
) -> IdentityReport:
    """Verify the six identities tying P(S-hat) to expectations over draws.

    With ``trials == 0`` the expectations are computed exactly by summing over
    the enumerated support; otherwise they are Monte-Carlo averages over
    ``trials`` draws of stream 0 (requires trials >= 1000). Discrepancies are
    data, not errors.
    """
    m_matrix = np.asarray(m_matrix, dtype=float)
    h = np.asarray(h, dtype=float)
    n = spec.n
    if m_matrix.shape != (n, n):
        raise ValidationError("m_matrix", f"expected shape ({n},{n})")
    if h.shape != (n,):
        raise ValidationError("h", f"expected shape ({n},)")
    if 0 < trials < 1000:
        raise ValidationError("trials", "Monte-Carlo mode requires trials >= 1000")

    p_entries = exact_matrix(spec).entries
    e = np.ones(n)
    lhs = {
        "quadratic_form": float(h @ (p_entries * m_matrix) @ h),
        "square_of_sum": float(h @ p_entries @ h),
        "diagonal_linear": float(np.diag(p_entries) @ h),
        "second_moment": float(e @ p_entries @ e),
        "first_moment": float(np.trace(p_entries)),
    }
    # Each expectation sum_k w_k g(S_k) over stacks of equal-size sets, each
    # gathering at most _STACK_ENTRIES entries: sum_k |S_k|^2 work in all.
    masks, weights = samplings.weighted_masks(spec, trials, rng_seed)
    sizes = masks.sum(axis=1)
    p_hat = np.zeros(n * n)
    quad = square = linear = 0.0
    for s in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == s)
        step = max(1, _STACK_ENTRIES // (s * s))
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            # One nonzero over the raveled rows: far faster than the 2-D form.
            idx = (np.flatnonzero(masks[r]) % n).reshape(r.size, s)
            pairs = idx[:, :, None] * n + idx[:, None, :]
            w, h_s = weights[r], h[idx]
            p_hat += np.bincount(pairs.ravel(), np.repeat(w, s * s), n * n)
            quad += w @ np.einsum("ki,kij,kj->k", h_s, m_matrix.ravel()[pairs], h_s)
            totals = h_s.sum(axis=1)
            square += w @ (totals * totals)
            linear += w @ totals
    rhs = {
        "quadratic_form": float(quad),
        "square_of_sum": float(square),
        "diagonal_linear": float(linear),
        "second_moment": float(weights @ (sizes * sizes)),
        "first_moment": float(weights @ sizes),
    }
    hadamard = np.max(np.abs(p_entries * m_matrix - m_matrix * p_hat.reshape(n, n)))
    results = {"hadamard_matrix": {"lhs": None, "rhs": None, "discrepancy": float(hadamard)}}
    for name, value in lhs.items():
        results[name] = {"lhs": value, "rhs": rhs[name], "discrepancy": abs(value - rhs[name])}
    return IdentityReport(mode="monte_carlo" if trials else "exact", trials=trials, results=results)


# ---------------------------------------------------------------------------
# Persistence


def write_csv(matrix: ProbMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# prob_matrix n={matrix.n} provenance={matrix.provenance}\n")
        for row in matrix.entries:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_csv(path) -> ProbMatrix:
    """Read a :func:`write_csv` file; malformed text raises ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# prob_matrix"):
            raise ValidationError("header", "missing prob_matrix header")
        lines = [line for line in fh if line.strip()]
    try:
        fields = dict(part.split("=", 1) for part in header.split()[2:])
        n = int(fields["n"])
    except (KeyError, ValueError) as e:
        raise ValidationError("header", f"expected n=<int> and key=value tokens, got {header!r}") from e
    try:
        rows = [[float(x) for x in line.split(",")] for line in lines]
    except ValueError as e:
        raise ValidationError("entries", f"non-numeric entry: {e}") from e
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValidationError("entries", f"expected {n} rows of {n} entries")
    return ProbMatrix(n, np.asarray(rows, dtype=float), fields.get("provenance", PROVENANCE_ENUM))


def require_exact(matrix: ProbMatrix, purpose: str) -> ProbMatrix:
    """Reject Monte-Carlo matrices where a deterministic certificate is needed."""
    if not matrix.is_exact:
        raise CertificateUnavailableError(
            f"{purpose} needs an exact probability matrix; this one is a Monte-Carlo "
            f"estimate ({matrix.mc_samples} samples)"
        )
    return matrix
