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

Every dense extreme eigenvalue of the package, here and in ``eso.certify``
and ``QuadraticProblem.strong_convexity``, comes from :func:`_extreme`,
whose policy README "Numerical policy" states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config, csr, probability, samplings
from .errors import UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec, _Report, tau_nice_restricted_value

METHOD_DENSE = "dense_exact"
METHOD_CERTIFIED = "certified_upper"
METHOD_POWER = "power_method"
METHOD_FORMULA = "closed_form"
METHOD_BOUND = "bound"


@dataclass(frozen=True)
class EigenEstimate(_Report):
    """A (possibly safeguarded or bounded) eigenvalue estimate.

    ``residual`` is the absolute eigenpair residual ||Mv - lambda v||_2 of
    :func:`lambda_max` in dense mode and the last-two-iterate relative gap in
    power mode; formula values carry 0.0, and pure bounds and the dense
    lambda' values, which come from a values-only eigen-solve, carry None.

    Method ``certified_upper`` marks a dense lambda' that :func:`_extreme`
    proved: ``value`` is a proven upper bound on lambda', within about 1e-9
    relative of it, ``iterations`` the Lanczos steps taken, and ``residual``
    the residual norm of the Lanczos Ritz pair in the diagonally normalized
    matrix.
    """

    value: float
    method: str
    residual: float | None = 0.0
    iterations: int | None = None
    safeguard: float | None = None
    bound_source: str | None = None
    candidates: dict = field(default_factory=dict, compare=False)


# The side of the square tiles in which the symmetry check compares m with m'.
_TILE = 128


def _check_square_symmetric(m) -> tuple[np.ndarray, float]:
    """``(m, scale)``: ``m`` as a float array, made exactly symmetric, and
    scale = max(1, max_ij |m_ij|) of that array. A matrix that is not
    real, square and finite, or whose asymmetry max |m - m'| exceeds 1e-10
    of the scale, is refused with ``ValidationError("matrix", ...)``.

    Finiteness and the scale come from one max and one min (NaN and +-inf
    propagate through both). The asymmetry is the largest |m[a, c] -
    m[c, a]'| over the pairs of ``_TILE``-square tiles with a <= c: the same
    number as max |m - m'|, as fl(x - y) = -fl(y - x), held in one tile
    rather than an n x n temporary. An exactly symmetric ``m`` is returned
    as it is; a nearly symmetric one as 0.5 m + 0.5 m' (halving first keeps
    the sum finite), with the scale taken again from the result.
    """
    m = _real_matrix(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix", "must be square")
    if not m.size:
        return m, 1.0
    scale = _scale(m)
    if not math.isfinite(scale):
        raise ValidationError("matrix", "contains NaN or infinite entries")
    n = m.shape[0]
    tile = np.empty((min(n, _TILE), min(n, _TILE)))
    asymmetry = 0.0
    # A difference that overflows is inf, which is refused below.
    with np.errstate(over="ignore"):
        for a in range(0, n, _TILE):
            for c in range(a, n, _TILE):
                upper = m[a : a + _TILE, c : c + _TILE]
                diff = tile[: upper.shape[0], : upper.shape[1]]
                np.subtract(upper, m[c : c + _TILE, a : a + _TILE].T, out=diff)
                asymmetry = max(asymmetry, float(np.max(np.abs(diff, out=diff))))
    if asymmetry > 1e-10 * scale:
        raise ValidationError("matrix", "not symmetric within 1e-10")
    if asymmetry == 0.0:
        return m, scale
    m = 0.5 * m + 0.5 * m.T
    return m, _scale(m)


def _scale(m: np.ndarray) -> float:
    """max(1, max_ij |m_ij|) of a nonempty ``m``, from its max and min: NaN
    when ``m`` holds a NaN, inf when it holds an infinity."""
    high, low = float(np.max(m)), float(np.min(m))
    return high if math.isnan(high) else max(1.0, high, -low)


def _real_matrix(raw) -> np.ndarray:
    """``raw`` as a float array. A complex, string or other non-numeric
    array is refused, not converted; an object array is read entry by entry
    as ``samplings._real`` reads a number."""
    try:
        m = np.asarray(raw)
        if m.dtype == object:
            m = np.array([samplings._real(x) for x in m.flat], dtype=float).reshape(m.shape)
    except (TypeError, ValueError) as e:
        raise ValidationError("matrix", f"must hold real numbers: {e}") from e
    if not np.isdtype(m.dtype, ("bool", "integral", "real floating")):
        raise ValidationError("matrix", f"must hold real numbers, not {m.dtype} entries")
    return m.astype(float, copy=False)


def lambda_max(
    m: np.ndarray,
    method: str = METHOD_DENSE,
    power_iterations: int = config.POWER_ITERATIONS,
    safeguard: float = config.POWER_SAFEGUARD,
) -> EigenEstimate:
    """Largest eigenvalue of a symmetric PSD matrix."""
    _check_power_inputs(method, power_iterations, safeguard)
    return _top_eigenvalue(_check_square_symmetric(m)[0], method, power_iterations, safeguard)


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
    m, largest = _check_square_symmetric(m)
    diag = np.diag(m)
    atol = 1e-12 * largest
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
    weights = diag[support]
    if method == METHOD_POWER:
        scale = 1.0 / np.sqrt(weights)
        # Exactly symmetric, as m is: lambda_max's check would change nothing.
        return _top_eigenvalue(sub * np.outer(scale, scale), method, power_iterations, safeguard)
    # M on the support, in a buffer this call owns for _extreme to consume;
    # every reference to m is dropped first, so a caller that passed a
    # temporary (such as a Gram matrix) holds no copy of it meanwhile.
    owned = (sub.copy() if sub is m else sub)[None]
    del m, sub, diag
    values, proofs = _extreme(owned, weights[None], top=True)
    value = max(float(values[0]), 0.0)
    if proofs:
        return EigenEstimate(value, METHOD_CERTIFIED, *proofs[0])
    return EigenEstimate(value, METHOD_DENSE, None)


def _extreme(x: np.ndarray, weights: np.ndarray | None = None, top: bool = False) -> tuple[np.ndarray, dict]:
    """The smallest eigenvalue of the pencil (X, Diag(w)) for each matrix X
    of the (k, s, s) stack ``x``, or the largest with ``top``; w is the
    matching row of the (k, s) positive ``weights``, all ones for None.
    Every X must be exactly symmetric; ``x`` is consumed. This is the
    package's one eigen policy (README "Numerical policy"):

    * above ``config.CERTIFIED_EIG_ORDER``, the value is the proven bound
      of :func:`_certified_lowest` on X, or on -X for ``top`` (negation is
      exact);
    * at or below the order, and for each X whose proof gives up, it is
      ``eigvalsh``'s of W^-1/2 X W^-1/2, from one stacked call, which
      solves each matrix as a one-matrix call does, bit for bit.

    Returns the k values and, for each proven one by its index, the
    ``(residual, steps)`` of its proof.
    """
    values, proofs = np.empty(len(x)), {}
    if x.shape[1] > config.CERTIFIED_EIG_ORDER:
        for b, block in enumerate(x):
            if top:
                np.negative(block, out=block)
            proof = _certified_lowest(block, np.ones(len(block)) if weights is None else weights[b])
            if proof is not None:
                low, residual, steps = proof
                values[b], proofs[b] = (-low if top else low), (residual, steps)
            elif top:
                np.negative(block, out=block)
    rest = [b for b in range(len(x)) if b not in proofs] if proofs else slice(None)
    solved = x[rest]
    if weights is not None:
        scale = 1.0 / np.sqrt(weights[rest])
        solved *= scale[:, :, None] * scale[:, None, :]
    # Values only: no caller needs an eigenvector.
    eigenvalues = np.linalg.eigvalsh(solved)
    values[rest] = eigenvalues[:, -1] if top else eigenvalues[:, 0]
    return values, proofs


# float64's unit roundoff and its smallest positive (subnormal) number.
_UNIT_ROUNDOFF = 2.0**-53
_TINIEST = 2.0**-1074


def _lanczos_start(n: int) -> np.ndarray:
    """The fixed unit start vector of :func:`_certified_lowest`: a ramp, so
    no random generator is read and every call takes the same steps."""
    q = 1.0 + np.arange(n) / n
    return q / np.linalg.norm(q)


# The Ritz schedule of _certified_lowest (see its step 1).
_RITZ_EVERY_STEP = 16
_RITZ_STRIDE = 4


def _certified_lowest(x: np.ndarray, weights: np.ndarray) -> tuple[float, float, int] | None:
    """A proven lower bound ``low`` on the smallest eigenvalue of the pencil
    (X, W), W = Diag(weights) with positive weights: X - low W is positive
    semidefinite, X being ``x``, which must be exactly symmetric (every
    matrix :func:`_extreme` is handed is: a symmetrized matrix, a Gram
    matrix, a block of an exactly symmetric rule, or P o A'A with a diagonal
    added). Returns ``(low, residual, steps)``, or None when the caller
    should eigen-solve instead: Lanczos reached
    ``config.LANCZOS_STEPS`` or the factorization failed. ``x`` is left as
    it was given.

    1. Lanczos with full reorthogonalization (Gram-Schmidt twice) on
       W^-1/2 X W^-1/2 from :func:`_lanczos_start`, until the smallest Ritz
       value theta has converged: its error estimate min(r, r^2 / gap) is at
       most ``config.LANCZOS_RTOL`` times the largest Ritz value in
       magnitude (r the Ritz pair's residual norm, ``residual``; gap the
       distance to the next Ritz value). The tridiagonal Ritz problem is
       solved, and the test made, at each of the first ``_RITZ_EVERY_STEP``
       steps, then at every ``_RITZ_STRIDE``-th step and at the last one,
       so the test may pass up to ``_RITZ_STRIDE - 1`` steps after it first
       could. A step whose new Lanczos vector has norm beta at most
       ``config.LANCZOS_RTOL`` times the last solve's largest Ritz value
       (0 when the Krylov space is exhausted) is solved at once: the
       largest Ritz value in magnitude never falls from step to step
       (interlacing) and r <= beta, so the test then passes, and no vector
       is ever divided by a vanishing beta.
    2. One Cholesky factorization of F = X - shift W, shift below theta by
       twice the error estimate and the factorization's rounding allowance,
       computed in ``x`` itself (its diagonal shifted in place) and read
       through ``x.T``, which holds the same values and in column-major
       order spares numpy the transposed copy it makes of a row-major
       array.
    3. If it runs to completion, Rump's theorem proves the bound (see
       :func:`_proven_loss`): low = shift - loss. A floor that Lanczos has
       not found (a start vector orthogonal to the lowest eigenvector, a
       Ritz value not yet converged) makes F indefinite, so the
       factorization fails and None is returned: no bound is ever claimed
       from the estimate alone.
    """
    n = x.shape[0]
    steps = config.LANCZOS_STEPS
    root = np.sqrt(weights)
    basis = np.empty((steps + 1, n))
    basis[0] = _lanczos_start(n)
    alphas, betas = np.zeros(steps), np.zeros(steps)
    size = 0.0
    for k in range(steps):
        w = (x @ (basis[k] / root)) / root
        alphas[k] = basis[k] @ w
        done = basis[: k + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        betas[k] = np.linalg.norm(w)
        scheduled = k < _RITZ_EVERY_STEP or (k + 1) % _RITZ_STRIDE == 0 or k + 1 == steps
        if scheduled or betas[k] <= config.LANCZOS_RTOL * size:
            ritz, vectors = np.linalg.eigh(np.diag(alphas[: k + 1]) + np.diag(betas[:k], 1) + np.diag(betas[:k], -1))
            residual = betas[k] * abs(vectors[-1, 0])
            gap = ritz[1] - ritz[0] if k else 0.0
            error = min(residual, residual * residual / gap) if gap > 0.0 else residual
            size = max(abs(ritz[0]), abs(ritz[-1]))
            if error <= config.LANCZOS_RTOL * size:
                break
        basis[k + 1] = w / betas[k]
    else:
        return None
    del basis, done, w
    theta = float(ritz[0])
    diag = x.diagonal().copy()
    rounding = _cholesky_rounding(n)
    shift = theta - 2.0 * (error + rounding * float(np.sum(np.abs(diag / weights - theta)))) - _UNIT_ROUNDOFF * size
    scaled = shift * weights
    x.flat[:: n + 1] = diag - scaled
    shifted = x.diagonal().copy()
    try:
        np.linalg.cholesky(x.T)
    except np.linalg.LinAlgError:
        return None
    finally:
        x.flat[:: n + 1] = diag
    low = np.nextafter(shift - _proven_loss(shifted, scaled, weights, rounding), -np.inf)
    return float(low), float(residual), k + 1


def _cholesky_rounding(n: int) -> float:
    """alpha = gamma_k / (1 - gamma_k) = k u / (1 - 2 k u), gamma_k = k u /
    (1 - k u), for k = n + 2 and u the unit roundoff (see :func:`_proven_loss`)."""
    k = n + 2
    return k * _UNIT_ROUNDOFF / (1.0 - 2.0 * k * _UNIT_ROUNDOFF)


def _proven_loss(shifted: np.ndarray, scaled: np.ndarray, weights: np.ndarray, rounding: float) -> float:
    """How far below ``shift`` the smallest eigenvalue of the pencil (X, W)
    can lie, once floating-point Cholesky has run to completion on F, the
    matrix X with diagonal ``shifted`` = fl(x_ii - ``scaled``_i), ``scaled``_i
    = fl(shift w_i); ``rounding`` is :func:`_cholesky_rounding` of the order n.

    The factorization's rounding. S. M. Rump, *Verification of positive
    definiteness*, BIT Numerical Mathematics 46 (2006) 433-452, after
    Demmel's bound: if floating-point Cholesky (rounding to nearest, inner
    products in any order) of a symmetric F of order n runs to completion,
    then F + dF = R'R is positive semidefinite with |dF_ij| <= alpha
    sqrt(f_ii f_jj), alpha = gamma_{n+1} / (1 - gamma_{n+1}), gamma_k = k u /
    (1 - k u), 2 (n + 1) u < 1, plus terms for underflow. LAPACK's ``potrf``
    scales by the reciprocal of each pivot, one rounding more than a
    division, so alpha here takes gamma_{n+2}. Underflow adds at most eta
    (the smallest subnormal) times 2 (1 + max f_ii) per operation of an
    entry, at most n + 2 of them, so the allowance U = 4 (n + 2)^2 (1 + max
    f_ii) eta bounds its 2-norm (and the underflow of each scaled_i).
    By Cauchy-Schwarz, for every h,
        h'Fh >= -alpha (sum_i sqrt(f_ii) |h_i|)^2 - U |h|^2
             >= -(alpha sum_i f_ii / w_i + U / min_i w_i) h'Wh.

    The shift's rounding. X - shift W = F + E with E diagonal, |E_ii| <= 2 u
    (|scaled_i| + |f_ii|): two roundings, each within u / (1 - u) of its
    result. So X - (shift - loss) W is positive semidefinite for

        loss = alpha sum_i f_ii / w_i + max_i |E_ii| / w_i + U / min_i w_i.

    Computed in rounding to nearest, the sum of positive terms is within
    gamma_{n-1} of its value and the few other operations within u each;
    the factor 1 + 4 (n + 2) u covers them all. The caller rounds
    shift - loss down.
    """
    n = shifted.size
    u = _UNIT_ROUNDOFF
    spread = rounding * float(np.sum(shifted / weights))
    diagonal = float(np.max(2.0 * u * (np.abs(scaled) + np.abs(shifted)) / weights))
    underflow = (1.0 + float(np.max(shifted))) * _TINIEST * 4.0 * (n + 2) ** 2 / float(np.min(weights))
    return (spread + diagonal + underflow) * (1.0 + 4.0 * (n + 2) * u)


# ---------------------------------------------------------------------------
# Bounds for sampling eigenvalues


@dataclass(frozen=True)
class BoundsReport(_Report):
    """Structural bounds on lambda(P) and lambda'(P) for a sampling."""

    lambda_prime_lower: float | None
    lambda_prime_upper: float
    lambda_lower: float
    lambda_upper: float
    tau: int
    uniform_sharpened: bool
    notes: tuple[str, ...] = ()


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
    uniform = samplings.KINDS[spec.kind].uniform
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


def restricted_closed_form(spec: SamplingSpec, ptr, indices) -> tuple[np.ndarray, str] | None:
    """lambda'(J intersect S-hat) for each set J of ``(ptr, indices)`` by the
    sampling family's proposition (exact for tau-nice, an upper bound for the
    (c,tau)-distributed and doubly-uniform families), with the proposition's
    name; None for other kinds and the nil doubly-uniform sampling. Each set
    holds distinct indices, as a :class:`DataMatrix`'s rows do."""
    restricted = samplings.KINDS[spec.kind].restricted
    return None if restricted is None else restricted(spec, ptr, indices, (ptr[1:] - ptr[:-1]).astype(float))


def _restriction_set(spec: SamplingSpec, j) -> list[int]:
    """The distinct indices of J, ascending, read as a payload set; an empty J
    or one outside [0, n) is refused."""
    j_idx = sorted(set(samplings._read("set", j)))
    if not j_idx:
        raise ValidationError("set", "restriction set must be nonempty")
    if j_idx[0] < 0 or j_idx[-1] >= spec.n:
        raise ValidationError("set", f"indices must lie in [0, {spec.n})")
    return j_idx


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
    j_idx = _restriction_set(spec, j)
    if method == "exact":
        j = np.array(j_idx)
        return lambda_prime(probability.exact_rule(spec)[0](j[:, None], j[None, :]))

    if method == "formula":
        if not samplings.KINDS[spec.kind].restricted_exact:
            raise UnsupportedMethodError(
                f"restricted closed form only exists for tau-nice samplings, not {spec.kind!r}"
            )
        values, source = restricted_closed_form(spec, np.array([0, len(j_idx)]), np.array(j_idx))
        return EigenEstimate(float(values[0]), METHOD_FORMULA, 0.0, bound_source=source)

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
    ``ValidationError``; the sets need not be sorted. An integer array is
    taken as it is; a fractional, bool or string entry is refused, not truncated.

    The restricted matrices of the sets of one size are evaluated from
    :func:`probability.exact_rule` in the stacks of ``csr._size_stacks``,
    within its one stack budget (which the identity reports share), each
    normalized as the one-set form treats its block (every rule is exactly
    symmetric, so the one-set form's symmetrization changes no bit).
    ``exact`` solves one block for a whole stack whose blocks are all
    bitwise equal to the first block of their size, as they are for every
    sampling whose P depends only on whether i = j (tau-nice, doubly
    uniform and their mixtures): one eigen-solve per distinct size. Any
    other stack goes to :func:`_extreme` whole, which keeps each value's
    bits. No n x n matrix is built unless the sampling's support is
    enumerated. A proper sampling has a positive diagonal, so every
    restricted matrix is normalized on its whole set.
    """
    ptr, indices = samplings._index_array("ptr", ptr), samplings._index_array("set", indices)
    if indices.ndim != 1:
        raise ValidationError("set", f"indices must be 1-d, not of shape {indices.shape}")
    if ptr.ndim != 1 or not ptr.size or ptr[0] != 0 or np.any(np.diff(ptr) < 0) or ptr[-1] != indices.size:
        raise ValidationError("ptr", f"must rise from 0 to len(indices) = {indices.size}")
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
    size = 0
    for sets, idx in csr._size_stacks(ptr, indices):
        j = np.sort(idx, axis=1)
        sub = entry(j[:, :, None], j[:, None, :])
        bits = sub.view(np.int64)
        if j.shape[1] != size:
            # The first block of a new size, and its value once solved.
            size, first, value = j.shape[1], bits[0].copy(), None
        if not np.all(bits == first):
            out[sets] = _stack_primes(sub)
            continue
        if value is None:
            value = _stack_primes(sub[:1])[0]
        out[sets] = value
    return out


def _stack_primes(sub: np.ndarray) -> np.ndarray:
    """lambda' of each block of a (sets, s, s) stack of restricted matrices,
    which it consumes, each bit-identical to :func:`lambda_prime`'s."""
    weights = np.diagonal(sub, axis1=1, axis2=2).copy()
    return np.maximum(_extreme(sub, weights, top=True)[0], 0.0)


def ctau_restricted_bound(spec: SamplingSpec, j_idx) -> float:
    """Restriction bound for the (c,tau)-distributed sampling on a nonempty J
    in [0, n); tight when the blocks hit by J each contribute at most one coordinate."""
    if spec.kind != samplings.KIND_CTAU:
        raise UnsupportedMethodError("requires a (c,tau)-distributed sampling")
    j_set = set(_restriction_set(spec, j_idx))
    tau = spec.tau
    if tau == 0:
        return 0.0
    s = len(spec.partition[0])
    s1 = max(s - 1, 1)
    omega = sum(1 for block in spec.partition if j_set.intersection(block))
    j_size = len(j_set)
    return (
        1.0
        + (j_size - 1) * (tau - 1) / s1
        + j_size * (tau / s - (tau - 1) / s1) * (omega - 1) / omega
    )
