"""Stepsize parameter computation: the vectors v for which the expected
separable overapproximation holds.

Every formula here produces v such that P(S-hat) o (A'A) <= Diag(v o p) in the
PSD order, which is the sufficient condition certifying the overapproximation
for all functions whose curvature is dominated by A'A. The formulas trade
tightness against preprocessing cost:

* uncoupled      - one global eigenvalue pair, v_i = min(l'(P), l'(A'A)) w_i
* coupled        - per-row restricted eigenvalues, v_i = sum_j l'(J_j ^ S) A_ji^2
* specialized    - closed forms per sampling family, no eigen-solves
* conservative   - min(tau, max row support) * w, a one-pass upper envelope
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config, probability, samplings, spectral
from .datamatrix import DataMatrix
from .errors import UnsupportedMethodError, ValidationError
from .samplings import SamplingSpec

FORMULA_UNCOUPLED = "UNCOUPLED"
FORMULA_COUPLED_EXACT = "COUPLED_EXACT"
FORMULA_COUPLED_BOUND = "COUPLED_BOUND"
FORMULA_COUPLED_POWER = "COUPLED_POWER"
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
    row_methods: tuple[str, ...] = field(default=(), compare=False)

    def to_dict(self) -> dict:
        return {
            "v": self.v.tolist(),
            "p": self.p.tolist(),
            "formula_id": self.formula_id,
            "certificate_margin": self.certificate_margin,
            "cost_estimate": self.cost_estimate,
        }

    def with_margin(self, margin: float) -> "EsoResult":
        return EsoResult(
            self.v, self.p, self.formula_id, margin, self.cost_estimate, self.row_methods
        )


def _require_proper(spec: SamplingSpec) -> np.ndarray:
    p = samplings.marginals(spec)
    if np.any(p <= 0.0):
        dead = int(np.argmin(p))
        raise ValidationError(
            "spec", f"sampling is not proper: coordinate {dead} is never selected"
        )
    return p


def _floor(v: np.ndarray) -> np.ndarray:
    # Empty columns get an epsilon so v > 0 holds; they never move the objective.
    out = np.asarray(v, dtype=float).copy()
    out[out <= 0.0] = config.V_FLOOR
    return out


def _accumulate_rows(data: DataMatrix, multipliers: np.ndarray) -> np.ndarray:
    v = np.zeros(data.n)
    for j, (idx, vals) in enumerate(data.row_entries):
        if idx.size:
            v[idx] += multipliers[j] * vals**2
    return v


# ---------------------------------------------------------------------------
# Formula: no coupling between sampling and data


def eso_uncoupled(
    data: DataMatrix,
    spec: SamplingSpec,
    lambda_prime_ata: float | None = None,
    cap: int = config.ENUMERATION_CAP,
    dense_cap: int = config.DENSE_EIG_CAP,
) -> EsoResult:
    """v_i = min(lambda'(P), lambda'(A'A)) * w_i.

    lambda'(P) is eigen-solved on the exact probability matrix when n is
    small enough, otherwise replaced by the cardinality cap bound.
    lambda'(A'A) may be supplied to skip the dense solve.
    """
    p = _require_proper(spec)
    w = data.column_sq_norms
    cost = 2.0 * data.nnz

    # Past the dense cap, the cardinality-cap upper bound stands in for
    # lambda'(P): any upper bound keeps the overapproximation valid.
    lp_sampling = float(samplings.cardinality_cap(spec))
    if spec.n <= dense_cap:
        pm = probability.prob_matrix(spec, "auto", cap=cap)
        probability.require_exact(pm, "the uncoupled formula")
        lp_sampling = spectral.lambda_prime(pm.entries).value
        cost += float(spec.n) ** 3

    if lambda_prime_ata is None:
        if data.n > dense_cap:
            raise ValidationError(
                "n", "A'A beyond dense cap; pass lambda_prime_ata computed externally"
            )
        lambda_prime_ata = spectral.lambda_prime(data.gram(dense_cap)).value
        cost += float(data.n) ** 3

    factor = min(lp_sampling, float(lambda_prime_ata))
    return EsoResult(_floor(factor * w), p, FORMULA_UNCOUPLED, cost_estimate=cost)


def eso_conservative(
    data: DataMatrix, spec: SamplingSpec, tau_cap: int | None = None
) -> EsoResult:
    """One-pass envelope v_i = min(tau, max_j |J_j|) * w_i."""
    p = _require_proper(spec)
    tau = int(tau_cap) if tau_cap is not None else samplings.cardinality_cap(spec)
    factor = float(min(tau, data.max_row_support))
    return EsoResult(
        _floor(factor * data.column_sq_norms),
        p,
        FORMULA_CONSERVATIVE,
        cost_estimate=2.0 * data.nnz,
    )


# ---------------------------------------------------------------------------
# Formula: coupling the sampling with the data row supports


_COUPLED_IDS = {
    "exact": FORMULA_COUPLED_EXACT,
    "bound": FORMULA_COUPLED_BOUND,
    "formula": FORMULA_TAU_NICE,
    "power": FORMULA_COUPLED_POWER,
}


def eso_coupled(
    data: DataMatrix,
    spec: SamplingSpec,
    restricted_eig_method: str = "exact",
    power_iterations: int = config.POWER_ITERATIONS,
    safeguard: float = config.POWER_SAFEGUARD,
    cap: int = config.ENUMERATION_CAP,
) -> EsoResult:
    """v_i = sum_j lambda'(J_j intersect S-hat) * A_ji^2.

    The per-row restricted eigenvalue comes from the requested method (exact
    eigen-solve, safeguarded power iteration, tau-nice closed form, or the
    tightest structural bound). Rows sharing a support reuse the multiplier.
    """
    if restricted_eig_method not in _COUPLED_IDS:
        raise UnsupportedMethodError(
            f"unknown restricted eigenvalue method {restricted_eig_method!r}"
        )
    p = _require_proper(spec)

    precomputed = None
    cost = 2.0 * data.nnz
    if restricted_eig_method in ("exact", "power"):
        pm = probability.prob_matrix(spec, "auto", cap=cap)
        precomputed = probability.require_exact(pm, "coupled restricted eigenvalue")
        sum_sq = float(sum(len(s) ** 2 for s in data.row_supports))
        if restricted_eig_method == "power":
            cost += power_iterations * sum_sq
        else:
            cost += float(sum(len(s) ** 3 for s in data.row_supports))

    multipliers = np.zeros(data.m)
    methods: list[str] = []
    memo: dict[tuple[int, ...], tuple[float, str]] = {}
    for j, support in enumerate(data.row_supports):
        if not support:
            methods.append("empty")
            continue
        cached = memo.get(support)
        if cached is None:
            est = spectral.lambda_prime_restricted(
                spec,
                support,
                method=restricted_eig_method,
                power_iterations=power_iterations,
                safeguard=safeguard,
                precomputed=precomputed,
                cap=cap,
            )
            tag = est.bound_source or est.method
            cached = (est.value, f"{restricted_eig_method}:{tag}")
            memo[support] = cached
        multipliers[j] = cached[0]
        methods.append(cached[1])

    return EsoResult(
        _floor(_accumulate_rows(data, multipliers)),
        p,
        _COUPLED_IDS[restricted_eig_method],
        cost_estimate=cost,
        row_methods=tuple(methods),
    )


# ---------------------------------------------------------------------------
# Closed forms requiring no eigenvalues


def eso_specialized(
    data: DataMatrix,
    spec: SamplingSpec,
    tau_cap: int | None = None,
    case: str = "auto",
) -> EsoResult:
    """Dispatch to the per-family closed form; at most two passes over data.

    ``case='generic'`` forces the cardinality-cap formula
    v_i = sum_j min(|J_j|, tau) A_ji^2 even when a sharper family form exists.
    Raises UnsupportedMethodError when no case applies (callers fall back to
    the coupled formula).
    """
    p = _require_proper(spec)
    sizes = np.array([len(s) for s in data.row_supports], dtype=float)
    cost = 2.0 * data.nnz

    if case == "generic":
        return _generic_tau(data, spec, tau_cap, p, sizes, cost)
    if case != "auto":
        raise UnsupportedMethodError(f"unknown specialization case {case!r}")

    kind = spec.kind
    if kind == samplings.KIND_GRAPH:
        _check_graph_matches_data(data, spec)
        return EsoResult(_floor(data.column_sq_norms), p, FORMULA_GRAPH, cost_estimate=cost)
    if kind == samplings.KIND_SERIAL:
        return EsoResult(_floor(data.column_sq_norms), p, FORMULA_SERIAL, cost_estimate=cost)
    if kind == samplings.KIND_CTAU:
        multipliers = np.array(
            [
                spectral.ctau_restricted_bound(spec, s) if s else 0.0
                for s in data.row_supports
            ]
        )
        return EsoResult(
            _floor(_accumulate_rows(data, multipliers)),
            p,
            FORMULA_CTAU,
            cost_estimate=cost,
        )
    if kind == samplings.KIND_TAU_NICE:
        multipliers = np.array(
            [spectral.tau_nice_restricted_value(spec.n, spec.tau, len(s)) for s in data.row_supports]
        )
        return EsoResult(
            _floor(_accumulate_rows(data, multipliers)),
            p,
            FORMULA_TAU_NICE,
            cost_estimate=cost,
        )
    if kind == samplings.KIND_DOUBLY_UNIFORM:
        first, second = samplings.cardinality_moments(spec)
        beta = (second / first - 1.0) / max(spec.n - 1, 1)
        multipliers = 1.0 + (sizes - 1.0) * beta
        return EsoResult(
            _floor(_accumulate_rows(data, multipliers)),
            p,
            FORMULA_DOUBLY_UNIFORM,
            cost_estimate=cost,
        )
    first, second = samplings.cardinality_moments(spec)
    if (first, second) == (1.0, 1.0):
        # |S-hat| = 1 almost surely: the serial case in disguise.
        return EsoResult(_floor(data.column_sq_norms), p, FORMULA_SERIAL, cost_estimate=cost)
    return _generic_tau(data, spec, tau_cap, p, sizes, cost)


def _generic_tau(data, spec, tau_cap, p, sizes, cost) -> EsoResult:
    tau = int(tau_cap) if tau_cap is not None else samplings.cardinality_cap(spec)
    if tau <= 0:
        raise UnsupportedMethodError("generic case needs a positive certified cardinality cap")
    multipliers = np.minimum(sizes, float(tau))
    return EsoResult(
        _floor(_accumulate_rows(data, multipliers)),
        p,
        FORMULA_GENERIC_TAU,
        cost_estimate=cost,
    )


def _check_graph_matches_data(data: DataMatrix, spec: SamplingSpec) -> None:
    # The graph closed form needs every drawable set to hit each row support
    # at most once; check that directly on the supplied support sets.
    supports = [frozenset(s) for s in data.row_supports]
    for member, weight in zip(spec.members, spec.weights):
        if weight == 0.0:
            continue
        mset = set(member)
        for j, support in enumerate(supports):
            if len(mset & support) > 1:
                raise UnsupportedMethodError(
                    f"graph sampling set {tuple(sorted(mset))} meets row {j} support in more "
                    "than one coordinate; its conflict graph does not cover this data"
                )


# ---------------------------------------------------------------------------
# The PSD certificate


def certify(
    data: DataMatrix,
    spec: SamplingSpec,
    v: np.ndarray,
    cap: int = config.ENUMERATION_CAP,
    dense_cap: int = config.DENSE_EIG_CAP,
) -> float:
    """Smallest eigenvalue of Diag(v o p) - P o (A'A).

    Nonnegative (within -1e-8) certifies the overapproximation for every
    function whose curvature is dominated by A'A. Requires an exactly
    computed probability matrix; statistical estimates cannot certify a
    deterministic matrix inequality.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (data.n,):
        raise ValidationError("v", f"expected shape ({data.n},)")
    if data.n > dense_cap:
        raise ValidationError("n", f"certification needs n <= {dense_cap}")
    pm = probability.prob_matrix(spec, "auto", cap=cap)
    probability.require_exact(pm, "the PSD certificate")
    p = samplings.marginals(spec)
    certificate = np.diag(v * p) - pm.entries * data.gram(dense_cap)
    return float(np.linalg.eigvalsh(certificate)[0])


# ---------------------------------------------------------------------------
# Name-based dispatch (CLI and estimator facade)

FORMULA_CHOICES = (
    "auto",
    "uncoupled",
    "coupled-exact",
    "coupled-bound",
    "coupled-power",
    "coupled-formula",
    "generic",
    "specialized",
    "taunice",
    "ctau",
    "doubly-uniform",
    "graph",
    "serial",
    "conservative",
)

_FAMILY_FORMULAS = {
    "taunice": samplings.KIND_TAU_NICE,
    "ctau": samplings.KIND_CTAU,
    "doubly-uniform": samplings.KIND_DOUBLY_UNIFORM,
    "graph": samplings.KIND_GRAPH,
    "serial": samplings.KIND_SERIAL,
}


def compute_v(
    data: DataMatrix,
    spec: SamplingSpec,
    formula: str = "auto",
    tau_cap: int | None = None,
    power_iterations: int = config.POWER_ITERATIONS,
    safeguard: float = config.POWER_SAFEGUARD,
    lambda_prime_ata: float | None = None,
) -> EsoResult:
    """Compute stepsizes by formula name.

    ``auto`` prefers the per-family closed form and falls back to the coupled
    bound formula for kinds without one.
    """
    if formula == "auto":
        try:
            return eso_specialized(data, spec, tau_cap=tau_cap)
        except UnsupportedMethodError:
            return eso_coupled(data, spec, "bound")
    if formula == "uncoupled":
        return eso_uncoupled(data, spec, lambda_prime_ata=lambda_prime_ata)
    if formula == "coupled-exact":
        return eso_coupled(data, spec, "exact")
    if formula == "coupled-bound":
        return eso_coupled(data, spec, "bound")
    if formula == "coupled-power":
        return eso_coupled(data, spec, "power", power_iterations, safeguard)
    if formula == "coupled-formula":
        return eso_coupled(data, spec, "formula")
    if formula == "generic":
        return eso_specialized(data, spec, tau_cap=tau_cap, case="generic")
    if formula == "specialized":
        return eso_specialized(data, spec, tau_cap=tau_cap)
    if formula in _FAMILY_FORMULAS:
        if spec.kind != _FAMILY_FORMULAS[formula]:
            raise UnsupportedMethodError(
                f"formula {formula!r} applies to {_FAMILY_FORMULAS[formula]} samplings, "
                f"not {spec.kind!r}"
            )
        return eso_specialized(data, spec, tau_cap=tau_cap)
    if formula == "conservative":
        return eso_conservative(data, spec, tau_cap=tau_cap)
    raise UnsupportedMethodError(f"unknown formula {formula!r}")
