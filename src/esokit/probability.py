"""Pairwise inclusion probability matrices P with P_ij = Prob({i,j} in S-hat).

P is the expectation of the 0/1 indicator matrix of the drawn set, so it is
symmetric, positive semidefinite, and carries the marginals on its diagonal.
Exact matrices exist for every kind and come from one set of rules,
:func:`exact_rule`: per-kind closed forms, support enumeration for graph and
explicit kinds, and the mixture, intersection and restriction rules for
composites. A rule gives P_ij at any index arrays, so :func:`exact_grid`
evaluates it on the full grid (for :func:`prob_matrix` and the PSD
certificate) and :func:`spectral.restricted_lambda_primes` only on the
blocks it needs. Monte-Carlo estimates are made only on request,
are tagged with their sample count and per-entry standard errors, and are
never accepted as PSD certificates. Enumerated matrices and
:func:`check_identities` read their sets from :func:`samplings.weighted_sets`,
and Monte-Carlo matrices the raw draws of :func:`samplings.draw_sets`, all
as CSR index lists. Every P built from sets is summed by the index-pair
kernel :func:`csr._pair_sum`, the one that builds A'A from the rows of A:
it scatters each set's weight into its index pairs, O(sum_k |S_k|^2) work
without BLAS, so the enumerated P of a graph or explicit sampling is
exactly symmetric and the same at any BLAS thread count, and a Monte-Carlo
P is the exact integer counts over the sample count.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import config, csr, samplings
from .errors import CertificateUnavailableError, UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec

PROVENANCE_CLOSED = "closed_form"
PROVENANCE_ENUM = "enumerated"
PROVENANCE_MC = "monte_carlo"

_PROVENANCE_RANK = {PROVENANCE_CLOSED: 0, PROVENANCE_ENUM: 1, PROVENANCE_MC: 2}

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
        ``mc_samples`` draws of :func:`samplings.draw_sets`, split across
        ``streams`` replica streams. The only method that draws.
    """
    if spec.n > config.DENSE_EIG_CAP:
        raise ValidationError("n", f"a dense probability matrix needs n <= {config.DENSE_EIG_CAP}")
    if method in ("auto", "closed_form"):
        if method == "closed_form" and spec.kind not in _CLOSED_FORM_KINDS:
            raise UnsupportedMethodError(f"no closed-form probability matrix for kind {spec.kind!r}")
        return ProbMatrix(spec.n, *exact_grid(spec))
    if method == "enumerate":
        return ProbMatrix(spec.n, csr._pair_sum(spec.n, *samplings.weighted_sets(spec)), PROVENANCE_ENUM)
    if method == "monte_carlo":
        return _monte_carlo(spec, mc_samples, rng_seed, streams)
    raise UnsupportedMethodError(f"unknown method {method!r}")


def exact_grid(spec: SamplingSpec) -> tuple[np.ndarray, str]:
    """:func:`exact_rule` on the full grid, unvalidated (the test suite checks
    every rule's grid): (entries, provenance), the entries one fresh n x n
    float64 array that the caller may overwrite."""
    entry, tag = exact_rule(spec)
    idx = np.arange(spec.n)
    return entry(idx[:, None], idx[None, :]), tag


Entry = Callable[[np.ndarray, np.ndarray], np.ndarray]


def exact_rule(spec: SamplingSpec) -> tuple[Entry, str]:
    """The exact P of a sampling as a rule: (entry, provenance).

    ``entry(i, j)`` gives P_ij at integer index arrays that broadcast
    together, so a caller evaluates the whole grid or only the blocks it
    needs. Leaf kinds use their closed forms; a convex combination sums its
    nonzero-weight components in order, an intersection multiplies its two
    components' entries and a restriction masks its component's. Graph and
    explicit kinds enumerate their P once, when the rule is built. Every
    rule is exactly symmetric: entry(i, j) and entry(j, i) are the same bits.
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
    entries = csr._pair_sum(spec.n, *samplings.weighted_sets(spec))
    return (lambda i, j: entries[i, j]), PROVENANCE_ENUM


def _closed_rule(spec: SamplingSpec) -> Entry:
    n = spec.n
    k = spec.kind
    if k in (samplings.KIND_ELEMENTARY, samplings.KIND_SERIAL, samplings.KIND_PRODUCT):
        p = samplings.marginals(spec)
    if k == samplings.KIND_ELEMENTARY:
        return lambda i, j: p[i] * p[j]
    if k == samplings.KIND_SERIAL:
        return lambda i, j: np.where(i == j, p[i], 0.0)
    if k == samplings.KIND_PRODUCT:
        block = csr._block_ids(n, spec.blocks)
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
    block = csr._block_ids(n, spec.partition)
    return lambda i, j: np.where(i == j, diagonal, np.where(block[i] == block[j], inner, outer))


def _zeros(i, j) -> np.ndarray:
    return np.zeros(np.broadcast(i, j).shape)


def _uniform(c: float, beta: float) -> Entry:
    """Entries of c * ((1 - beta) I + beta 11'): its two values, each by
    the scalar form of c * ((1 - beta) * [i == j] + beta), in one np.where."""
    on, off = (c * ((1.0 - beta) * same + beta) for same in (1.0, 0.0))
    return lambda i, j: np.where(i == j, on, off)


def _monte_carlo(spec: SamplingSpec, samples: int, rng_seed: int, streams: int) -> ProbMatrix:
    if samples < 1:
        raise ValidationError("mc_samples", "must be positive")
    # Integer counts: the mean is exactly symmetric, in [0, 1].
    mean = csr._pair_sum(spec.n, *samplings.draw_sets(spec, samples, rng_seed, streams)) / samples
    stderr = np.sqrt(mean * (1.0 - mean) / samples)
    return ProbMatrix(spec.n, mean, PROVENANCE_MC, mc_samples=samples, stderr=stderr)


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
    data, not errors. The one-pair case of :func:`_identity_reports`.
    """
    return _identity_reports(spec, [(m_matrix, h)], trials, rng_seed)[0]


def _identity_reports(spec: SamplingSpec, pairs, trials: int = 0, rng_seed: int = 0) -> list[IdentityReport]:
    """:func:`check_identities` for each (M, h) of ``pairs``, in order. The
    sampling's side (the exact P, the weighted sets and p-hat) is built once,
    and each stack of equal-size sets (at most ``csr._STACK_ENTRIES`` entries) is
    gathered once for all pairs: sum_k |S_k|^2 work per pair in all."""
    n = spec.n
    checked = [(np.asarray(m_matrix, dtype=float), np.asarray(h, dtype=float)) for m_matrix, h in pairs]
    for m_matrix, h in checked:
        if m_matrix.shape != (n, n):
            raise ValidationError("m_matrix", f"expected shape ({n},{n})")
        if h.shape != (n,):
            raise ValidationError("h", f"expected shape ({n},)")
    if 0 < trials < 1000:
        raise ValidationError("trials", "Monte-Carlo mode requires trials >= 1000")

    p_entries, _ = exact_grid(spec)
    e = np.ones(n)
    ptr, indices, weights = samplings.weighted_sets(spec, trials, rng_seed)
    sizes = np.diff(ptr)
    p_hat = csr._pair_sum(n, ptr, indices, weights)
    sums = [[0.0, 0.0, 0.0] for _ in checked]  # quadratic form, square of sum, linear
    for sets, idx in csr._size_stacks(ptr, indices, csr._STACK_ENTRIES):
        w = weights[sets]
        for (m_matrix, h), acc in zip(checked, sums):
            h_s = h[idx]
            acc[0] += w @ np.einsum("ki,kij,kj->k", h_s, m_matrix[idx[:, :, None], idx[:, None, :]], h_s)
            totals = h_s.sum(axis=1)
            acc[1] += w @ (totals * totals)
            acc[2] += w @ totals
    moments = {
        "second_moment": (float(e @ p_entries @ e), float(weights @ (sizes * sizes))),
        "first_moment": (float(np.trace(p_entries)), float(weights @ sizes)),
    }
    reports = []
    for (m_matrix, h), (quad, square, linear) in zip(checked, sums):
        sides = {
            "quadratic_form": (float(h @ (p_entries * m_matrix) @ h), float(quad)),
            "square_of_sum": (float(h @ p_entries @ h), float(square)),
            "diagonal_linear": (float(np.diag(p_entries) @ h), float(linear)),
            **moments,
        }
        hadamard = np.max(np.abs(p_entries * m_matrix - m_matrix * p_hat))
        results = {"hadamard_matrix": {"lhs": None, "rhs": None, "discrepancy": float(hadamard)}}
        for name, (lhs, rhs) in sides.items():
            results[name] = {"lhs": lhs, "rhs": rhs, "discrepancy": abs(lhs - rhs)}
        reports.append(IdentityReport("monte_carlo" if trials else "exact", trials, results))
    return reports


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
