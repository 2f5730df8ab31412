"""Stepsize parameter computation: the vectors v for which the expected
separable overapproximation holds.

Every formula here produces v such that P(S-hat) o (A'A) <= Diag(v o p) in the
PSD order, which is the sufficient condition certifying the overapproximation
for all functions whose curvature is dominated by A'A. The formulas trade
tightness against preprocessing cost:

* uncoupled      - two global eigenvalues, v_i = min(l'(P), l'(A'A)) w_i; l'(P)
                   is solved only when its moment bound cannot rule it out
* coupled        - per-row restricted eigenvalues, v_i = sum_j l'(J_j ^ S) A_ji^2,
                   each l' eigen-solved exactly or replaced by a structural bound
* specialized    - closed forms per sampling family, no eigen-solves
* conservative   - min(tau, max row support) * w, a one-pass upper envelope
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import config, probability, samplings, spectral
from .datamatrix import DataMatrix
from .errors import UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec

FORMULA_UNCOUPLED = "UNCOUPLED"
FORMULA_COUPLED_EXACT = "COUPLED_EXACT"
FORMULA_COUPLED_BOUND = "COUPLED_BOUND"
FORMULA_GENERIC_TAU = "GENERIC_TAU"
FORMULA_CTAU = "CTAU_DISTRIBUTED"
FORMULA_TAU_NICE = "TAU_NICE"
FORMULA_DOUBLY_UNIFORM = "DOUBLY_UNIFORM"
FORMULA_GRAPH = "GRAPH"
FORMULA_SERIAL = "SERIAL"
FORMULA_CONSERVATIVE = "CONSERVATIVE"


@dataclass(frozen=True)
class EsoResult:
    """Stepsize parameters with their provenance and optional PSD margin."""

    v: np.ndarray
    p: np.ndarray
    formula_id: str
    certificate_margin: float | None = None
    cost_estimate: float = 0.0

    def to_dict(self) -> dict:
        return {
            "v": self.v.tolist(),
            "p": self.p.tolist(),
            "formula_id": self.formula_id,
            "certificate_margin": self.certificate_margin,
            "cost_estimate": self.cost_estimate,
        }

    def with_margin(self, margin: float) -> "EsoResult":
        return EsoResult(self.v, self.p, self.formula_id, margin, self.cost_estimate)


def _require_proper(spec: SamplingSpec) -> np.ndarray:
    p = samplings.marginals(spec)
    if not p.min() > 0.0:
        dead = int(np.argmin(p))
        raise ValidationError(
            "spec", f"sampling is not proper: coordinate {dead} is never selected"
        )
    return p


_OVERFLOW = "the stepsizes overflow the float range; rescale A"


def _floor(v: np.ndarray) -> np.ndarray:
    # Every formula's v passes here. Empty columns get an epsilon so v > 0
    # holds; they never move the objective.
    out = np.asarray(v, dtype=float).copy()
    # v >= 0, so its max (NaN propagates) is finite exactly when every entry is.
    if not out.max() < math.inf:
        raise ValidationError("data", _OVERFLOW)
    out[out <= 0.0] = config.V_FLOOR
    return out


def _require_finite_gram(data: DataMatrix) -> None:
    """Refuse A whose A'A overflows, before A'A is built, by the verdict the
    matrix keeps (see :attr:`DataMatrix.largest_sq_norm`)."""
    if not data.largest_sq_norm < math.inf:
        raise ValidationError("data", "A'A overflows the float range; rescale A")


def _scaled_norms(data: DataMatrix, factor: float) -> np.ndarray:
    """factor * w for a factor >= 0, refused before it can overflow (it is
    finite exactly when factor * max_i w_i is)."""
    if not factor * data.largest_sq_norm < math.inf:
        raise ValidationError("data", _OVERFLOW)
    return factor * data.column_sq_norms


def _accumulate_rows(data: DataMatrix, multipliers: np.ndarray) -> np.ndarray:
    """v_i = sum_j multipliers_j A_ji^2; an overflow gives inf without a
    warning, and ``_floor`` refuses it.

    Every multiplier the package passes is at most 2 |J_j| (the (c,tau)
    bound's worst case; the others are at most |J_j|), so where the matrix's
    verdict :attr:`DataMatrix.scaled_squares_are_finite` holds no product
    can overflow and no ``np.errstate`` is entered; ``np.bincount``'s sums
    never warn.
    """

    def accumulate():
        return np.bincount(data.cols, weights=multipliers[data.rows] * data.values**2, minlength=data.n)

    if data.scaled_squares_are_finite:
        return accumulate()
    with np.errstate(over="ignore", invalid="ignore"):
        return accumulate()


# ---------------------------------------------------------------------------
# Formula: no coupling between sampling and data


def eso_uncoupled(
    data: DataMatrix,
    spec: SamplingSpec,
    lambda_prime_ata: float | None = None,
) -> EsoResult:
    """v_i = min(lambda'(P), lambda'(A'A)) * w_i.

    lambda'(A'A) comes first: eigen-solved on the Gram matrix, or supplied as
    ``lambda_prime_ata``, which must be at least 1 (lambda' of any nonzero PSD
    matrix is; NaN is rejected, +inf is a vacuous bound). lambda'(P) is needed
    only when it can be the minimum. The all-ones vector gives the exact
    moment bound lambda'(P) >= E|S|^2 / E|S|, so when lambda'(A'A) lies below
    it by more than a relative 1e-9, far above the rounding of ``eigvalsh``, the
    minimum is lambda'(A'A) and P is not solved. Otherwise lambda'(P) is
    eigen-solved on the exact probability matrix when n is at most the dense
    cap, and replaced by the cardinality cap beyond it. P is built at most
    once: kinds without closed-form moments read the bound off the same P
    the solve uses, and the others build it only for the solve.
    ``cost_estimate`` is the worst case, with every eigen-solve.
    """
    p = _require_proper(spec)
    _require_finite_gram(data)
    cost = 2.0 * data.nnz
    dense_p = spec.n <= config.DENSE_EIG_CAP
    if dense_p:
        cost += float(spec.n) ** 3

    if lambda_prime_ata is None:
        if data.n > config.DENSE_EIG_CAP:
            raise ValidationError(
                "n", "A'A beyond dense cap; pass lambda_prime_ata computed externally"
            )
        lambda_prime_ata = spectral.lambda_prime(data.gram()).value
        cost += float(data.n) ** 3
    else:
        lambda_prime_ata = float(lambda_prime_ata)
        if not lambda_prime_ata >= 1.0:
            raise ValidationError(
                "lambda_prime_ata",
                f"must be at least 1, as lambda' of a nonzero PSD matrix is; got {lambda_prime_ata}",
            )

    if not dense_p:
        # Past the dense cap, the cardinality-cap upper bound stands in for
        # lambda'(P): any upper bound keeps the overapproximation valid.
        factor = min(float(samplings.cardinality_cap(spec)), lambda_prime_ata)
    else:
        # Kinds without closed-form moments read them off P; the solve reuses it.
        pm = None
        moments = samplings.closed_form_moments(spec)
        if moments is None:
            pm = probability.prob_matrix(spec, "auto")
            moments = samplings.matrix_moments(pm.entries, pm.provenance)
        if _rules_out_sampling(moments, lambda_prime_ata):
            factor = lambda_prime_ata
        else:
            pm = pm or probability.prob_matrix(spec, "auto")
            factor = min(spectral.lambda_prime(pm.entries).value, lambda_prime_ata)
    return EsoResult(_floor(_scaled_norms(data, factor)), p, FORMULA_UNCOUPLED, cost_estimate=cost)


def _rules_out_sampling(moments: samplings.Moments, lambda_prime_ata: float) -> bool:
    """True when lambda_prime_ata is below the moment bound E|S|^2 / E|S| <=
    lambda'(P) (``lambda_bounds``' lambda_prime_lower, undefined for a nil
    sampling) by more than a relative 1e-9, so min(lambda'(P),
    lambda_prime_ata) is lambda_prime_ata without solving for lambda'(P)."""
    first, second = moments
    return first != 0.0 and lambda_prime_ata < second / first * (1.0 - 1e-9)


def eso_conservative(data: DataMatrix, spec: SamplingSpec) -> EsoResult:
    """One-pass envelope v_i = min(tau, max_j |J_j|) * w_i, tau the cardinality cap."""
    p = _require_proper(spec)
    factor = float(min(samplings.cardinality_cap(spec), data.max_row_support))
    return _one_pass(data, p, _scaled_norms(data, factor), FORMULA_CONSERVATIVE)


# ---------------------------------------------------------------------------
# Formula: coupling the sampling with the data row supports


_COUPLED_IDS = {"exact": FORMULA_COUPLED_EXACT, "bound": FORMULA_COUPLED_BOUND}


def eso_coupled(data: DataMatrix, spec: SamplingSpec, restricted_eig_method: str = "exact") -> EsoResult:
    """v_i = sum_j lambda'(J_j intersect S-hat) * A_ji^2.

    The restricted eigenvalues of all row supports come from one
    :func:`spectral.restricted_lambda_primes` call with the requested method:
    ``exact`` eigen-solves them, ``bound`` takes the tightest structural
    upper bound. Either gives a valid v; ``exact`` gives the tightest.
    """
    formula_id = _COUPLED_IDS.get(restricted_eig_method)
    if formula_id is None:
        raise UnsupportedMethodError(f"unknown restricted eigenvalue method {restricted_eig_method!r}")
    p = _require_proper(spec)
    cost = 2.0 * data.nnz
    if restricted_eig_method == "exact":
        cost += float(np.sum(data.row_sizes**3))
    multipliers = spectral.restricted_lambda_primes(spec, data.row_ptr, data.cols, restricted_eig_method)
    return EsoResult(
        _floor(_accumulate_rows(data, multipliers)), p, formula_id, cost_estimate=cost
    )


# ---------------------------------------------------------------------------
# Closed forms requiring no eigenvalues


def eso_specialized(data: DataMatrix, spec: SamplingSpec, case: str = "auto") -> EsoResult:
    """Dispatch to the per-family closed form; at most two passes over data.

    ``case='generic'`` forces the cardinality-cap formula
    v_i = sum_j min(|J_j|, tau) A_ji^2, tau the sampling's cardinality cap,
    even when a sharper family form exists.
    Raises UnsupportedMethodError when no case applies (callers fall back to
    the coupled formula).
    """
    p = _require_proper(spec)
    if case == "generic":
        return _generic_tau(data, spec, p)
    if case != "auto":
        raise UnsupportedMethodError(f"unknown specialization case {case!r}")

    kind = spec.kind
    if kind == samplings.KIND_GRAPH:
        _check_graph_matches_data(data, spec)
    if kind in (samplings.KIND_GRAPH, samplings.KIND_SERIAL):
        return _one_pass(data, p, data.column_sq_norms, _FAMILY_IDS[kind])
    family = spectral.restricted_closed_form(spec, data.row_ptr, data.cols)
    if family is not None:
        return _one_pass(data, p, _accumulate_rows(data, family[0]), _FAMILY_IDS[kind])
    if samplings.cardinality_cap(spec) <= 1 and math.fsum(p) == 1.0:
        # |S-hat| <= 1 surely and E|S-hat| = 1, so |S-hat| = 1 surely: the
        # serial case in disguise, told in O(n) without the pairwise law.
        return _one_pass(data, p, data.column_sq_norms, FORMULA_SERIAL)
    return _generic_tau(data, spec, p)


def _one_pass(data: DataMatrix, p: np.ndarray, v: np.ndarray, formula_id: str) -> EsoResult:
    return EsoResult(_floor(v), p, formula_id, cost_estimate=2.0 * data.nnz)


def _generic_tau(data, spec, p) -> EsoResult:
    # A proper sampling over n >= 1 coordinates draws a nonempty set, so tau >= 1.
    multipliers = np.minimum(data.row_sizes.astype(float), float(samplings.cardinality_cap(spec)))
    return _one_pass(data, p, _accumulate_rows(data, multipliers), FORMULA_GENERIC_TAU)


def _check_graph_matches_data(data: DataMatrix, spec: SamplingSpec) -> None:
    # The graph closed form needs every drawable set to hit each row support
    # at most once; check that directly by counting each set's hits per row.
    for member, weight in zip(spec.members, spec.weights):
        if weight == 0.0:
            continue
        member_mask = np.zeros(data.n, dtype=bool)
        member_mask[list(member)] = True
        hits = np.bincount(data.rows, weights=member_mask[data.cols], minlength=data.m)
        if hits.max() > 1:
            raise UnsupportedMethodError(
                f"graph sampling set {tuple(sorted(member))} meets row {np.argmax(hits > 1)} support in more "
                "than one coordinate; its conflict graph does not cover this data"
            )


# ---------------------------------------------------------------------------
# The PSD certificate


def _require_same_n(data: DataMatrix, spec: SamplingSpec) -> None:
    """Refuse a sampling over another n than the data's, before anything sized by n is built."""
    if data.n != spec.n:
        raise ValidationError(
            "sampling", f"spec is over {spec.n} coordinates (indices in [0, {spec.n})), data has {data.n}"
        )


def certificate_matrix(data: DataMatrix, spec: SamplingSpec, v: np.ndarray) -> np.ndarray:
    """Diag(v o p) - P o (A'A), PSD exactly when v certifies the overapproximation
    for every function whose curvature is dominated by A'A. Needs the exact
    probability matrix, read from :func:`probability.exact_rule` in one
    buffer: an estimate cannot certify a matrix inequality."""
    v = np.asarray(v, dtype=float)
    if v.shape != (data.n,):
        raise ValidationError("v", f"expected shape ({data.n},)")
    _require_same_n(data, spec)
    if data.n > config.DENSE_EIG_CAP:
        raise ValidationError("n", f"certification needs n <= {config.DENSE_EIG_CAP}")
    _require_finite_gram(data)
    return _certificate(data.gram(), spec, v)


def _certificate(gram: np.ndarray, spec: SamplingSpec, v: np.ndarray) -> np.ndarray:
    """:func:`certificate_matrix` from the Gram matrix A'A, its inputs
    unchecked; a non-finite result (from a non-finite v or A'A) is refused.

    Assembled in the one fresh buffer of :func:`probability.exact_grid` (the
    exact P, no ``ProbMatrix``); ``gram`` is only read, as the read-only
    array :meth:`DataMatrix.gram` may keep and hand to every caller.
    0 - x (not -x) keeps the zeros of P o G positive, and adding v o p to
    the diagonal afterwards rounds as subtracting from it does, so the
    result is bit-identical to Diag(v o p) - P o G.
    """
    c, _ = probability.exact_grid(spec)
    np.multiply(c, gram, out=c)
    np.subtract(0.0, c, out=c)
    c.flat[:: spec.n + 1] += v * samplings.marginals(spec)
    # The diagonal v_i p_i - p_i G_ii is finite exactly when v and the
    # diagonal of A'A are, and that diagonal bounds every entry of A'A.
    if not np.isfinite(c.diagonal()).all():
        raise ValidationError("certificate", "overflows the float range: v or A'A is not finite")
    return c


def certify(data: DataMatrix, spec: SamplingSpec, v: np.ndarray) -> float:
    """Smallest eigenvalue of :func:`certificate_matrix`; nonnegative (within
    -1e-8) certifies the overapproximation."""
    return float(np.linalg.eigvalsh(certificate_matrix(data, spec, v))[0])


# ---------------------------------------------------------------------------
# The formula table: every name compute_v, the CLI and the estimator accept


@dataclass(frozen=True)
class Formula:
    """One formula by name: the id it reports (None: the sampling decides),
    ``run(data, spec, lambda_prime_ata)`` (only ``uncoupled`` reads the
    last), and the sampling kind it requires (None: any)."""

    formula_id: str | None
    run: Callable[[DataMatrix, SamplingSpec, float | None], EsoResult]
    kind: str | None = None


def _auto(data, spec, lambda_prime_ata):
    try:
        return eso_specialized(data, spec)
    except UnsupportedMethodError:
        return eso_coupled(data, spec, "bound")


def _specialized(data, spec, lambda_prime_ata):
    return eso_specialized(data, spec)


FORMULAS: dict[str, Formula] = {
    "auto": Formula(None, _auto),
    "uncoupled": Formula(FORMULA_UNCOUPLED, eso_uncoupled),
    "coupled-exact": Formula(FORMULA_COUPLED_EXACT, lambda d, s, _: eso_coupled(d, s, "exact")),
    "coupled-bound": Formula(FORMULA_COUPLED_BOUND, lambda d, s, _: eso_coupled(d, s, "bound")),
    "generic": Formula(FORMULA_GENERIC_TAU, lambda d, s, _: eso_specialized(d, s, "generic")),
    "specialized": Formula(None, _specialized),
    "taunice": Formula(FORMULA_TAU_NICE, _specialized, samplings.KIND_TAU_NICE),
    "ctau": Formula(FORMULA_CTAU, _specialized, samplings.KIND_CTAU),
    "doubly-uniform": Formula(FORMULA_DOUBLY_UNIFORM, _specialized, samplings.KIND_DOUBLY_UNIFORM),
    "graph": Formula(FORMULA_GRAPH, _specialized, samplings.KIND_GRAPH),
    "serial": Formula(FORMULA_SERIAL, _specialized, samplings.KIND_SERIAL),
    "conservative": Formula(FORMULA_CONSERVATIVE, lambda d, s, _: eso_conservative(d, s)),
}

_FAMILY_IDS = {f.kind: f.formula_id for f in FORMULAS.values() if f.kind is not None}


def compute_v(
    data: DataMatrix,
    spec: SamplingSpec,
    formula: str = "auto",
    lambda_prime_ata: float | None = None,
) -> EsoResult:
    """Compute stepsizes by a name of :data:`FORMULAS`.

    The coupled formula has two names: ``coupled-exact`` eigen-solves every
    restricted lambda', ``coupled-bound`` replaces it by a structural bound.
    ``auto`` runs :func:`eso_specialized`, whose generic case covers every
    proper sampling. It falls back to ``coupled-bound`` only when that raises
    UnsupportedMethodError, for a graph sampling whose conflict graph does not
    cover the data.
    """
    entry = FORMULAS.get(formula)
    if entry is None:
        raise UnsupportedMethodError(f"unknown formula {formula!r}")
    if entry.kind is not None and spec.kind != entry.kind:
        raise UnsupportedMethodError(
            f"formula {formula!r} applies to {entry.kind} samplings, not {spec.kind!r}"
        )
    _require_same_n(data, spec)
    return entry.run(data, spec, lambda_prime_ata)
