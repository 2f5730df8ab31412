"""Pairwise inclusion probability matrices P with P_ij = Prob({i,j} in S-hat).

P is the expectation of the 0/1 indicator matrix of the drawn set, so it is
symmetric, positive semidefinite, and carries the marginals on its diagonal.
Exact matrices exist for every kind and come from one set of rules,
:func:`exact_rule`: per-kind closed forms, support enumeration for graph and
explicit kinds, and the mixture, intersection and restriction rules for
composites, each a field of the kind's one ``samplings.KINDS`` record (a new
kind adds a record, not a branch here). A rule gives P_ij at any index arrays,
so :func:`exact_grid` evaluates it on the full grid (for :func:`prob_matrix`
and the PSD certificate) and :func:`spectral.restricted_lambda_primes` only on
the blocks it needs. Monte-Carlo estimates are made only on request, are
tagged with their sample count and per-entry standard errors, and are never
accepted as PSD certificates. Enumerated matrices and :func:`check_identities`
read their sets from :func:`samplings.weighted_sets`, and Monte-Carlo matrices
the raw draws of :func:`samplings.draw_sets`, all as CSR index lists. Every P
built from sets is summed by the index-pair kernel :func:`csr._pair_sum`, the
one that builds A'A from the rows of A: it scatters each set's weight into its
index pairs, O(sum_k |S_k|^2) work without BLAS, so the enumerated P of a
graph or explicit sampling is exactly symmetric and the same at any BLAS
thread count, and a Monte-Carlo P is the exact integer counts over the sample
count. :func:`_enumerated_stack` sums the enumerated P of many samplings in
stacked kernel calls, with the bits of :func:`prob_matrix` ``"enumerate"`` on
each, and runs :class:`ProbMatrix`'s checks (:func:`_check_entries`) over the
whole stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import config, csr, samplings
from .errors import UnsupportedMethodError, ValidationError, _is_int
from .samplings import PROVENANCE_ENUM, PROVENANCE_MC, _PROVENANCE_RANK, Entry, SamplingSpec, _Report


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
        _check_entries(entries, 1e-12 + (3.0 * self.max_stderr if self.provenance == PROVENANCE_MC else 0.0))

    @property
    def max_stderr(self) -> float:
        return float(self.stderr.max()) if self.stderr is not None and self.stderr.size else 0.0

    def to_dict(self) -> dict:
        """Not a :class:`samplings._Report` form: ``mc_samples`` and
        ``max_stderr`` appear only for a Monte-Carlo matrix, and ``stderr``
        never appears."""
        out = {
            "n": self.n,
            "provenance": self.provenance,
            "entries": self.entries.tolist(),
        }
        if self.mc_samples is not None:
            out["mc_samples"] = self.mc_samples
            out["max_stderr"] = self.max_stderr
        return out


def _check_entries(entries: np.ndarray, slack: float) -> None:
    """The checks of a P, or of every P of a (k, n, n) stack at once: each
    entry in [-slack, 1 + slack], symmetry within 1e-12, and no entry above
    the smaller of its two diagonal entries by more than slack."""
    if not entries.size:
        return
    if entries.min() < -slack or entries.max() > 1.0 + slack:
        raise ValidationError("entries", "entries outside [0, 1]")
    # One buffer serves both pairwise checks. A NaN entry passes the range
    # check and fails the symmetry check, as it compares false.
    work = np.subtract(entries, np.swapaxes(entries, -1, -2))
    if not np.abs(work, out=work).max() <= 1e-12:
        raise ValidationError("entries", "matrix is not symmetric")
    diag = np.diagonal(entries, axis1=-2, axis2=-1)
    np.minimum(diag[..., :, None], diag[..., None, :], out=work)
    if np.subtract(entries, work, out=work).max() > slack:
        raise ValidationError("entries", "off-diagonal exceeds min of its diagonal pair")


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
        if method == "closed_form" and not samplings.KINDS[spec.kind].closed_p:
            raise UnsupportedMethodError(f"no closed-form probability matrix for kind {spec.kind!r}")
        return ProbMatrix(spec.n, *exact_grid(spec))
    if method == "enumerate":
        return ProbMatrix(spec.n, csr._pair_sum(spec.n, *samplings.weighted_sets(spec)), PROVENANCE_ENUM)
    if method == "monte_carlo":
        return _monte_carlo(spec, mc_samples, rng_seed, streams)
    raise UnsupportedMethodError(f"unknown method {method!r}")


def _enumerated_stack(specs) -> np.ndarray:
    """``prob_matrix(spec, "enumerate").entries`` of every spec, all of one
    n, as a (len(specs), n, n) stack with the same bits: each spec's
    enumerated support (the sets and weights of its
    :func:`samplings.weighted_sets`) goes into its own matrix of a stacked
    :func:`csr._pair_sum` call, and the stack passes the checks of
    :class:`ProbMatrix` as one. The specs go to the kernel in runs that end
    once they hold ``csr._STACK_ENTRIES`` indices, so one run's indices and
    one spec's support are the most held at once."""
    n = specs[0].n
    if n > config.DENSE_EIG_CAP:
        raise ValidationError("n", f"a dense probability matrix needs n <= {config.DENSE_EIG_CAP}")
    stack = np.empty((len(specs), n, n))
    first, sizes, indices, probs, slot = 0, [], [], [], []
    for k, spec in enumerate(specs):
        sets, weights = zip(*samplings.enumerate_support(spec))
        sizes += map(len, sets)
        indices += itertools.chain(*sets)
        probs += weights
        slot += [k - first] * len(sets)
        if len(indices) >= csr._STACK_ENTRIES or k == len(specs) - 1:
            ptr, held = csr._ptr(sizes), np.array(indices, dtype=np.intp)
            stack[first : k + 1] = csr._pair_sum(
                n, ptr, held, np.array(probs), slot=np.array(slot), slots=k + 1 - first
            )
            first, sizes, indices, probs, slot = k + 1, [], [], [], []
    _check_entries(stack, 1e-12)
    return stack


def exact_grid(spec: SamplingSpec) -> tuple[np.ndarray, str]:
    """:func:`exact_rule` on the full grid, unvalidated (the test suite checks
    every rule's grid): (entries, provenance), the entries one fresh n x n
    float64 array that the caller may overwrite."""
    entry, tag = exact_rule(spec)
    idx = np.arange(spec.n)
    return entry(idx[:, None], idx[None, :]), tag


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
    return samplings.KINDS[spec.kind].rule(spec)


def _monte_carlo(spec: SamplingSpec, samples: int, rng_seed: int, streams: int) -> ProbMatrix:
    if not (_is_int(samples) and samples >= 1):
        raise ValidationError("mc_samples", f"must be positive and an integer, got {samples!r}")
    # Integer counts: the mean is exactly symmetric, in [0, 1].
    mean = csr._pair_sum(spec.n, *samplings.draw_sets(spec, samples, rng_seed, streams)) / samples
    stderr = np.sqrt(mean * (1.0 - mean) / samples)
    return ProbMatrix(spec.n, mean, PROVENANCE_MC, mc_samples=samples, stderr=stderr)


# ---------------------------------------------------------------------------
# Identity checks


@dataclass(frozen=True)
class IdentityReport(_Report):
    """Left/right values and discrepancies for the six expectation identities
    linking P to moments of the sampling."""

    mode: str  # exact | monte_carlo
    trials: int
    results: dict  # name -> {"lhs": float|None, "rhs": float|None, "discrepancy": float}

    @property
    def max_discrepancy(self) -> float:
        return max(r["discrepancy"] for r in self.results.values())


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
    and each stack of equal-size sets (within the one stack budget of
    ``csr._size_stacks``) is gathered once for all pairs: sum_k |S_k|^2 work
    per pair in all."""
    n = spec.n
    checked = [(np.asarray(m_matrix, dtype=float), np.asarray(h, dtype=float)) for m_matrix, h in pairs]
    for m_matrix, h in checked:
        if m_matrix.shape != (n, n):
            raise ValidationError("m_matrix", f"expected shape ({n},{n})")
        if h.shape != (n,):
            raise ValidationError("h", f"expected shape ({n},)")
        for name, value in (("m_matrix", m_matrix), ("h", h)):
            if not np.all(np.isfinite(value)):
                raise ValidationError(name, "non-finite entries")
    if 0 < trials < 1000:
        raise ValidationError("trials", "Monte-Carlo mode requires trials >= 1000")

    p_entries, _ = exact_grid(spec)
    e = np.ones(n)
    ptr, indices, weights = samplings.weighted_sets(spec, trials, rng_seed)
    sizes = np.diff(ptr)
    p_hat = csr._pair_sum(n, ptr, indices, weights)
    sums = [[0.0, 0.0, 0.0] for _ in checked]  # quadratic form, square of sum, linear
    for sets, idx in csr._size_stacks(ptr, indices):
        w = weights[sets]
        for (m_matrix, h), acc in zip(checked, sums):
            h_s = h[idx]
            acc[0] += w @ csr._quadratic_forms(m_matrix, h_s, idx)
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
    """``np.loadtxt(path, delimiter=",", comments="#")`` reads the entries back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# prob_matrix n={matrix.n} provenance={matrix.provenance}\n")
        for row in matrix.entries:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
