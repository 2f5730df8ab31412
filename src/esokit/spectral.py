"""Largest and diagonally-normalized largest eigenvalues of PSD matrices.

``lambda_max(M)`` maximizes h'Mh over the unit ball; ``lambda_prime(M)``
maximizes it subject to h'Diag(M)h <= 1 and equals the top eigenvalue of
D^{-1/2} M D^{-1/2} on the support of the diagonal. For probability matrices
of samplings these quantities drive every stepsize formula, and cheap
structural bounds on them (cardinality caps, moment ratios, restriction
propositions) substitute for eigen-solves on large problems. The restricted
values lambda'(J intersect S-hat) of the coupled formula are eigen-solved on
|J|-by-|J| blocks of P evaluated from :func:`probability.exact_rule`, so they
need no n-by-n matrix unless the sampling's support is enumerated. Sets J
arrive as CSR ``(ptr, indices)``, set k being ``indices[ptr[k]:ptr[k + 1]]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config, csr, probability, samplings
from .errors import UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec

METHOD_DENSE = "dense_exact"
METHOD_POWER = "power_method"
METHOD_FORMULA = "closed_form"
METHOD_BOUND = "bound"

# restricted_lambda_primes eigen-solves its restricted matrices in stacks of
# at most this many entries, so temporaries stay bounded for long rows.
_STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class EigenEstimate:
    """A (possibly safeguarded or bounded) eigenvalue estimate.

    ``residual`` is the absolute eigenpair residual ||Mv - lambda v||_2 of
    :func:`lambda_max` in dense mode and the last-two-iterate relative gap in
    power mode; formula values carry 0.0, and pure bounds and the dense
    lambda' values, which come from a values-only eigen-solve, carry None.
    """

    value: float
    method: str
    residual: float | None = 0.0
    iterations: int | None = None
    safeguard: float | None = None
    bound_source: str | None = None
    candidates: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "residual": self.residual,
            "bound_source": self.bound_source,
        }
        if self.iterations is not None:
            out["iterations"] = self.iterations
        if self.safeguard is not None:
            out["safeguard"] = self.safeguard
        if self.candidates:
            out["candidates"] = dict(self.candidates)
        return out


def _check_square_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix", "must be square")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix", "contains NaN or infinite entries")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    asymmetry = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asymmetry > 1e-10 * scale:
        raise ValidationError("matrix", "not symmetric within 1e-10")
    # An exactly symmetric m is its own symmetrization, and m + m' could overflow.
    return m if asymmetry == 0.0 else 0.5 * (m + m.T)


def lambda_max(
    m: np.ndarray,
    method: str = METHOD_DENSE,
    power_iterations: int = config.POWER_ITERATIONS,
    safeguard: float = config.POWER_SAFEGUARD,
) -> EigenEstimate:
    """Largest eigenvalue of a symmetric PSD matrix."""
    _check_power_inputs(method, power_iterations, safeguard)
    return _top_eigenvalue(_check_square_symmetric(m), method, power_iterations, safeguard)


def _check_power_inputs(method: str, iterations: int, safeguard: float) -> None:
    """The method is dense or power, checked before any early return; the
    power method takes at least one iteration and scales its Rayleigh
    quotient by a finite safeguard of at least 1."""
    if method not in (METHOD_DENSE, METHOD_POWER):
        raise UnsupportedMethodError(f"unknown eigenvalue method {method!r}")
    if method == METHOD_POWER and iterations < 1:
        raise ValidationError("power_iterations", f"must be at least 1, got {iterations}")
    if method == METHOD_POWER and not (np.isfinite(safeguard) and safeguard >= 1.0):
        raise ValidationError("safeguard", f"must be finite and at least 1, got {safeguard}")


def _top_eigenvalue(
    m: np.ndarray, method: str, power_iterations: int, safeguard: float
) -> EigenEstimate:
    """:func:`lambda_max` of a matrix that is already checked and symmetric."""
    if m.size == 0 or not np.any(m):
        return EigenEstimate(0.0, method, 0.0)
    if method == METHOD_DENSE:
        eigvals, eigvecs = np.linalg.eigh(m)
        value, vector = float(eigvals[-1]), eigvecs[:, -1]
        residual = float(np.linalg.norm(m @ vector - value * vector))
        return EigenEstimate(max(value, 0.0), METHOD_DENSE, residual)
    return _power_method(m, power_iterations, safeguard)


def _power_method(m: np.ndarray, iterations: int, safeguard: float) -> EigenEstimate:
    n = m.shape[0]
    x = np.ones(n) / np.sqrt(n)
    y = m @ x
    if np.linalg.norm(y) <= 1e-300:
        # All-ones start is (numerically) in the kernel: perturb deterministically.
        x = 1.0 + np.arange(n) / max(n, 1)
        x /= np.linalg.norm(x)
        y = m @ x
        if np.linalg.norm(y) <= 1e-300:
            return EigenEstimate(0.0, METHOD_POWER, 0.0, iterations, safeguard)
    rayleigh_prev = float(x @ y)
    rayleigh = rayleigh_prev
    for _ in range(iterations):
        norm = np.linalg.norm(y)
        if norm <= 1e-300:
            break
        x = y / norm
        y = m @ x
        rayleigh_prev = rayleigh
        rayleigh = float(x @ y)
    gap = abs(rayleigh - rayleigh_prev) / max(abs(rayleigh), 1e-300)
    return EigenEstimate(
        max(rayleigh, 0.0) * safeguard, METHOD_POWER, gap, iterations, safeguard
    )


def lambda_prime(
    m: np.ndarray,
    method: str = METHOD_DENSE,
    power_iterations: int = config.POWER_ITERATIONS,
    safeguard: float = config.POWER_SAFEGUARD,
) -> EigenEstimate:
    """Diagonally normalized largest eigenvalue.

    Computed on the support {i : M_ii > 0}; the zero matrix maps to 0 by
    convention. A zero diagonal entry with a nonzero row violates positive
    semidefiniteness and is rejected.
    """
    _check_power_inputs(method, power_iterations, safeguard)
    m = _check_square_symmetric(m)
    diag = np.diag(m)
    atol = 1e-12 * max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if np.any(diag < -atol):
        raise ValidationError("matrix", "negative diagonal entry; not PSD")
    support = np.flatnonzero(diag > 0.0)
    off_support = np.flatnonzero(diag <= 0.0)
    if off_support.size and np.max(np.abs(m[off_support, :])) > atol:
        raise ValidationError(
            "matrix", "zero diagonal entry with nonzero row; not positive semidefinite"
        )
    if support.size == 0:
        return EigenEstimate(0.0, method, 0.0)
    sub = m if support.size == m.shape[0] else m[np.ix_(support, support)]
    scale = 1.0 / np.sqrt(diag[support])
    # Exactly symmetric, as m is: lambda_max's check would change nothing.
    normalized = sub * np.outer(scale, scale)
    if method == METHOD_DENSE:
        # Values only: lambda' needs no eigenvector (and the unit diagonal is nonzero).
        value = float(np.linalg.eigvalsh(normalized)[-1])
        return EigenEstimate(max(value, 0.0), METHOD_DENSE, None)
    return _top_eigenvalue(normalized, method, power_iterations, safeguard)


# ---------------------------------------------------------------------------
# Bounds for sampling eigenvalues


@dataclass(frozen=True)
class BoundsReport:
    """Structural bounds on lambda(P) and lambda'(P) for a sampling."""

    lambda_prime_lower: float | None
    lambda_prime_upper: float
    lambda_lower: float
    lambda_upper: float
    tau: int
    uniform_sharpened: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "lambda_prime_lower": self.lambda_prime_lower,
            "lambda_prime_upper": self.lambda_prime_upper,
            "lambda_lower": self.lambda_lower,
            "lambda_upper": self.lambda_upper,
            "tau": self.tau,
            "uniform_sharpened": self.uniform_sharpened,
            "notes": list(self.notes),
        }


def lambda_bounds(spec: SamplingSpec) -> BoundsReport:
    """Moment-based sandwich bounds on the sampling eigenvalues.

    The lower bound on lambda' is the second-to-first cardinality moment
    ratio (undefined for nil samplings - reported, not raised); the upper
    bound is the certified cardinality cap. lambda is sandwiched between
    E|S|^2/n and E|S|, with the sharper E|S| tau/n upper bound applied for
    structurally uniform kinds. The moments are exact for every kind (see
    :func:`samplings.cardinality_moments`), so every bound is certified; no
    Monte-Carlo estimate enters.
    """
    first, second = samplings.cardinality_moments(spec)
    tau = samplings.cardinality_cap(spec)
    notes: list[str] = []
    if first == 0.0:
        lp_lower = None
        notes.append("nil sampling: lambda' lower bound undefined")
    else:
        lp_lower = second / first
    uniform = samplings.is_certified_uniform(spec)
    lam_upper = first * tau / spec.n if uniform else first
    return BoundsReport(
        lambda_prime_lower=lp_lower,
        lambda_prime_upper=float(tau),
        lambda_lower=second / spec.n,
        lambda_upper=lam_upper,
        tau=tau,
        uniform_sharpened=uniform,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Restricted samplings


def tau_nice_restricted_value(n: int, tau: int, j_size):
    """Exact lambda'(J intersect S-hat) for the tau-nice sampling; ``j_size``
    = |J| may be an array of sizes."""
    if tau == 0:
        return 0.0 * j_size
    return 1.0 + (j_size - 1) * (tau - 1) / max(n - 1, 1)


def restricted_closed_form(spec: SamplingSpec, ptr, indices) -> tuple[np.ndarray, str] | None:
    """lambda'(J intersect S-hat) for each set J of ``(ptr, indices)`` by the
    sampling family's proposition (exact for tau-nice, an upper bound for the
    (c,tau)-distributed and doubly-uniform families), with the proposition's
    name; None for other kinds and the nil doubly-uniform sampling. Each set
    holds distinct indices, as a :class:`DataMatrix`'s rows do."""
    k = spec.kind
    sizes = (ptr[1:] - ptr[:-1]).astype(float)
    if k == samplings.KIND_CTAU:
        # ctau_restricted_bound's arithmetic on every set at once, in O(nnz):
        # omega counts the distinct (set, block) keys; empty sets and tau = 0 give 0.
        tau, s, c = spec.tau, len(spec.partition[0]), len(spec.partition)
        s1 = max(s - 1, 1)
        keys = np.unique(csr._row_of(ptr) * c + csr._block_ids(spec.n, spec.partition)[indices])
        omega = np.maximum(np.bincount(keys // c, minlength=sizes.size), 1)
        bound = 1.0 + (sizes - 1) * (tau - 1) / s1 + sizes * (tau / s - (tau - 1) / s1) * (omega - 1) / omega
        return np.where((sizes > 0) & (tau > 0), bound, 0.0), "ctau_restriction"
    if k == samplings.KIND_TAU_NICE:
        return tau_nice_restricted_value(spec.n, spec.tau, sizes), "tau_nice_restriction"
    if k == samplings.KIND_DOUBLY_UNIFORM:
        first, second = samplings.cardinality_moments(spec)
        if first == 0.0:
            return None
        beta = (second / first - 1.0) / max(spec.n - 1, 1)
        return 1.0 + (sizes - 1.0) * beta, "doubly_uniform_restriction"
    return None


def lambda_prime_restricted(spec: SamplingSpec, j, method: str = "exact") -> EigenEstimate:
    """lambda' of the restriction of a sampling to the nonempty set ``j``
    (a repeated index counts once).

    * ``exact``  - eigen-solve on the restricted probability matrix.
    * ``formula``- tau-nice closed form (an equality, not a bound).
    * ``bound``  - tightest applicable structural upper bound; the winning
      proposition is recorded in ``bound_source`` and all candidates in
      ``candidates``.

    :func:`restricted_lambda_primes` gives the same values for many sets at
    once; this one-set form is its reference.
    """
    j_idx = sorted({int(i) for i in j})
    if not j_idx:
        raise ValidationError("set", "restriction set must be nonempty")
    if j_idx[0] < 0 or j_idx[-1] >= spec.n:
        raise ValidationError("set", f"indices must lie in [0, {spec.n})")

    if method == "exact":
        j = np.array(j_idx)
        return lambda_prime(probability.exact_rule(spec)[0](j[:, None], j[None, :]))

    if method == "formula":
        if spec.kind != samplings.KIND_TAU_NICE:
            raise UnsupportedMethodError(
                f"restricted closed form only exists for tau-nice samplings, not {spec.kind!r}"
            )
        value = tau_nice_restricted_value(spec.n, spec.tau, len(j_idx))
        return EigenEstimate(value, METHOD_FORMULA, 0.0, bound_source="tau_nice_restriction")

    if method == "bound":
        bounds = _bound_candidates(spec, np.array([0, len(j_idx)]), j_idx)
        candidates = {name: float(c[0]) for name, c in bounds.items()}
        source = min(candidates, key=candidates.get)
        return EigenEstimate(
            candidates[source],
            METHOD_BOUND,
            None,
            bound_source=source,
            candidates=candidates,
        )

    raise UnsupportedMethodError(f"unknown restricted-eigenvalue method {method!r}")


def _bound_candidates(spec: SamplingSpec, ptr, indices) -> dict[str, np.ndarray]:
    """Upper bounds on lambda'(J intersect S-hat) for each set J, by source."""
    sizes = np.diff(ptr).astype(float)
    candidates = {"generic_cardinality": np.minimum(sizes, samplings.cardinality_cap(spec))}
    family = restricted_closed_form(spec, ptr, indices)
    if family is not None:
        candidates[family[1]] = family[0]
    return candidates


def restricted_lambda_primes(spec: SamplingSpec, ptr, indices, method: str = "exact") -> np.ndarray:
    """lambda'(J intersect S-hat) for every set J of ``(ptr, indices)`` of a
    proper sampling, by the ``exact`` or ``bound`` method of
    :func:`lambda_prime_restricted` and bit-identical to it; an empty set
    gives 0. Indices outside [0, n), and a set that repeats an index, raise
    ``ValidationError``; the sets need not be sorted.

    The restricted matrices of the sets of one size are evaluated from
    :func:`probability.exact_rule` in stacks of at most ``_STACK_ENTRIES``
    entries, each normalized as the one-set form treats its block (every
    rule is exactly symmetric, so the one-set form's symmetrization changes
    no bit); ``exact`` makes one values-only ``eigvalsh`` call per stack. No
    n x n matrix is built unless the sampling's support is enumerated. A
    proper sampling has a positive diagonal, so every restricted matrix is
    normalized on its whole set.
    """
    ptr, indices = np.asarray(ptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= spec.n):
        raise ValidationError("set", f"indices must lie in [0, {spec.n})")
    keys = np.sort(csr._row_of(ptr) * spec.n + indices)
    repeated = np.unique(keys[1:][keys[1:] == keys[:-1]] % spec.n)
    if repeated.size:
        raise ValidationError("set", f"a set repeats the indices {repeated.tolist()}")
    if method == "bound":
        return np.min(list(_bound_candidates(spec, ptr, indices).values()), axis=0)
    if method != "exact":
        raise UnsupportedMethodError(f"unknown restricted-eigenvalue method {method!r}")
    entry, _ = probability.exact_rule(spec)
    out = np.zeros(len(ptr) - 1)
    for sets, idx in csr._size_stacks(ptr, indices, _STACK_ENTRIES):
        # lambda_prime's normalization, so each value is bit-identical to
        # the one-set form.
        j = np.sort(idx, axis=1)
        sub = entry(j[:, :, None], j[:, None, :])
        scale = 1.0 / np.sqrt(np.diagonal(sub, axis1=1, axis2=2))
        m = sub * (scale[:, :, None] * scale[:, None, :])
        out[sets] = np.maximum(np.linalg.eigvalsh(m)[:, -1], 0.0)
    return out


def ctau_restricted_bound(spec: SamplingSpec, j_idx) -> float:
    """Restriction bound for the (c,tau)-distributed sampling; tight when the
    blocks hit by J each contribute at most one coordinate."""
    if spec.kind != samplings.KIND_CTAU:
        raise UnsupportedMethodError("requires a (c,tau)-distributed sampling")
    tau = spec.tau
    if tau == 0:
        return 0.0
    s = len(spec.partition[0])
    s1 = max(s - 1, 1)
    j_set = set(int(i) for i in j_idx)
    omega = sum(1 for block in spec.partition if j_set.intersection(block))
    j_size = len(j_set)
    return (
        1.0
        + (j_size - 1) * (tau - 1) / s1
        + j_size * (tau / s - (tau - 1) / s1) * (omega - 1) / omega
    )
