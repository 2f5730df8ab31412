"""Empirical and exhaustive validation of the overapproximation inequality.

The quadratic check evaluates, for f(x) = 0.5 ||Ax||^2, the full three-term
inequality

    E[f(x + h_S)] <= f(x) + sum_i p_i grad_i f(x) h_i + 0.5 sum_i p_i v_i h_i^2

over the enumerated support (exact) or over seeded draws (statistical, with a
one-sided z-slack), both from :func:`samplings.weighted_sets`, as
f(x + h_S) = f(x) + grad f(x)'h_S + 0.5 h_S'(A'A)h_S on the CSR sets: no
dense A, no m-by-trials array and no sets-by-n one. Draws collapse to their
distinct sets weighted by count, so the cost grows with the sets a sampling
can draw, not with the trials; f(x) and grad f(x) are computed once per
distinct x, and the quadratic term once per distinct h, in O(sum_k |S_k|^2)
from the equal-size stacks of :func:`csr._size_stacks`. Beyond A'A, memory
is O(distinct sets + one stack). The matrix-form check re-exports the PSD
certificate and produces a violating direction when the margin is negative.
The identity battery sweeps random samplings and matrices against
brute-force expectation oracles.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field

import numpy as np

from . import config, csr, eso, probability, samplings
from .datamatrix import DataMatrix
from .errors import ValidationError, _is_int
from .samplings import SamplingSpec, _Report

EXHAUSTIVE_TOL = 1e-10


@dataclass(frozen=True)
class EsoCheckReport(_Report):
    """Worst-point summary of the quadratic inequality check."""

    mode: str  # exhaustive | monte_carlo
    trials: int
    lhs_mean: float
    lhs_stderr: float
    rhs: float
    slack: float
    passed: bool
    points_tested: int
    details: tuple[dict, ...] = field(default=(), compare=False)


def _canonical_points(certificate: np.ndarray, rng_seed: int) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """The canonical (x, h) grid: x in {0, ones, random unit}, h in the basis
    vectors, ones, a random unit vector, and the certificate's bottom
    eigenvector."""
    n = certificate.shape[0]
    rng = config.rng_for_stream(rng_seed, 0)
    x_rand = rng.standard_normal(n)
    x_rand /= np.linalg.norm(x_rand)
    h_rand = rng.standard_normal(n)
    h_rand /= np.linalg.norm(h_rand)

    _, vecs = np.linalg.eigh(certificate)
    hs = [(e, f"e{i}") for i, e in enumerate(np.eye(n))]
    hs += [(np.ones(n), "ones"), (h_rand, "random_unit"), (vecs[:, 0], "certificate_bottom")]

    xs = [(np.zeros(n), "zero"), (np.ones(n), "ones"), (x_rand, "random_unit")]
    return [(x, h, f"x={xl},h={hl}") for x, xl in xs for h, hl in hs]


def check_eso_quadratic(
    data: DataMatrix,
    spec: SamplingSpec,
    v: np.ndarray,
    points: list[tuple[np.ndarray, np.ndarray]] | None = None,
    mode: str = "exhaustive",
    trials: int = 100_000,
    rng_seed: int = 0,
    streams: int = 1,
) -> EsoCheckReport:
    """Check the three-term inequality at each point; the report summarizes
    the worst point and carries per-point details in the order of the
    points. Needs n <= ``config.DENSE_EIG_CAP``: it reads the Gram matrix.

    In Monte-Carlo mode the expectation is the weighted sum over the
    distinct drawn sets, with weight count / trials, and the standard error
    is that of the trials raw draws, sqrt(sum_s w_s (value_s - lhs)^2 /
    (trials - 1)), or 0 for a single trial. Per distinct h the quadratic
    terms cost O(sum_k |S_k|^2); memory beyond A'A is O(distinct sets + one stack).
    """
    v = np.asarray(v, dtype=float)
    n = data.n
    if v.shape != (n,):
        raise ValidationError("v", f"expected shape ({n},)")
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValidationError("v", "stepsize parameters must be finite and positive")
    eso._require_same_n(data, spec)
    if n > config.DENSE_EIG_CAP:
        raise ValidationError("n", f"the quadratic check needs n <= {config.DENSE_EIG_CAP}")
    if mode not in ("exhaustive", "monte_carlo"):
        raise ValidationError("mode", f"unknown mode {mode!r}")
    exhaustive = mode == "exhaustive"
    if not exhaustive and not (_is_int(trials) and trials >= 1):
        raise ValidationError("trials", f"must be positive and an integer, got {trials!r}")
    if points is not None and not len(points):
        raise ValidationError("points", "needs at least one point")
    eso._require_finite_gram(data)
    gram = data.gram()
    if points is None:
        labelled = _canonical_points(eso._certificate(gram, spec, v), rng_seed)
    else:
        labelled = [(np.asarray(x, float), np.asarray(h, float), f"point{i}") for i, (x, h) in enumerate(points)]
        for x, h, _ in labelled:
            if x.shape != (n,) or h.shape != (n,):
                raise ValidationError("points", f"points must have shape ({n},)")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h))):
                raise ValidationError("points", "points must be finite")

    trials_used = 0 if exhaustive else trials
    ptr, indices, weights = samplings.weighted_sets(spec, trials_used, rng_seed, streams)
    p = samplings.marginals(spec)
    rows, row_of = weights.size, csr._row_of(ptr)
    stacks = list(csr._size_stacks(ptr, indices))

    # f(x + h_S) = f(x) + grad'h_S + 0.5 h_S'(A'A)h_S on the sets' indices.
    # f(x) and grad f(x) do not depend on h, nor the quadratic term on x, so
    # each is computed once per distinct x or h and read by every point that
    # shares it.
    # Finite data and points can still overflow a sum or a product here;
    # every such overflow reaches a slack or a standard error, which are
    # checked once at the end instead of warning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        at_x: dict[bytes, tuple[float, np.ndarray]] = {}
        for x, _, _ in labelled:
            if x.tobytes() not in at_x:
                ax = data.matvec(x)
                at_x[x.tobytes()] = 0.5 * float(np.dot(ax, ax)), data.rmatvec(ax)
        groups: dict[bytes, list[int]] = {}
        for k, (_, h, _) in enumerate(labelled):
            groups.setdefault(h.tobytes(), []).append(k)
        details = [None] * len(labelled)
        for group in groups.values():
            h = labelled[group[0]][1]
            # h_S'(A'A)h_S stack by stack of equal-size sets; 0 on an empty set.
            quad = np.zeros(rows)
            for sets, idx in stacks:
                quad[sets] = csr._quadratic_forms(gram, h[idx], idx)
            for k in group:
                x, _, label = labelled[k]
                fx, grad = at_x[x.tobytes()]
                rhs = fx + float(np.sum(p * grad * h)) + 0.5 * float(np.sum(p * v * h * h))
                linear = np.bincount(row_of, weights=(h * grad)[indices], minlength=rows)
                values = fx + linear + 0.5 * quad
                lhs = float(weights @ values)
                if exhaustive:
                    stderr = 0.0
                    ok = (rhs - lhs) >= -EXHAUSTIVE_TOL
                else:
                    # The sample standard error over the draws: each distinct set
                    # stands for its count = weight * trials draws.
                    spread = float(weights @ np.square(values - lhs))
                    stderr = math.sqrt(spread / (trials - 1)) if trials > 1 else 0.0
                    ok = (rhs - lhs) >= -3.0 * stderr
                details[k] = {
                    "label": label,
                    "lhs": lhs,
                    "rhs": rhs,
                    "slack": rhs - lhs,
                    "stderr": stderr,
                    "pass": bool(ok),
                }
    if not all(math.isfinite(d["slack"]) and math.isfinite(d["stderr"]) for d in details):
        raise ValidationError("data", "the quadratic check overflows the float range; rescale A or the points")

    worst = min(details, key=lambda d: d["slack"])
    return EsoCheckReport(
        mode=mode,
        trials=trials_used,
        lhs_mean=worst["lhs"],
        lhs_stderr=worst["stderr"],
        rhs=worst["rhs"],
        slack=worst["slack"],
        passed=all(d["pass"] for d in details),
        points_tested=len(details),
        details=tuple(details),
    )


# ---------------------------------------------------------------------------
# Matrix-form check with witness


@dataclass(frozen=True)
class MatrixFormReport(_Report):
    margin: float
    passed: bool
    witness: np.ndarray | None
    witness_gap: float | None


def check_eso_matrix_form(
    data: DataMatrix, spec: SamplingSpec, v: np.ndarray, tol: float = 1e-8
) -> MatrixFormReport:
    """The margin of :func:`eso.certify`, passing at ``margin >= -tol``; a
    failing check also reports the certificate's bottom eigenvector as a
    violating direction, with its gap w'Cw. ``tol`` is read by
    :func:`_tolerance`."""
    tol = _tolerance(tol)
    margin = eso.certify(data, spec, v)
    if margin >= -tol:
        return MatrixFormReport(margin, True, None, None)
    certificate = eso.certificate_matrix(data, spec, v)
    witness = np.linalg.eigh(certificate)[1][:, 0]
    return MatrixFormReport(margin, False, witness, float(witness @ certificate @ witness))


def _tolerance(raw) -> float:
    """A tolerance: a finite number of at least 0. NaN, an infinity, a
    negative value, a bool or a non-number is refused with
    ``ValidationError("tolerance", ...)``; NaN and +inf passed every check."""
    tol = samplings._read("tolerance", raw, samplings._real)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError("tolerance", f"must be finite and at least 0, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# Identity battery


@dataclass(frozen=True)
class BatteryReport(_Report):
    """Max discrepancy per structural check across a random corpus."""

    checks: dict  # name -> {"max_discrepancy": float, "cases": int, "pass": bool}
    tolerance: float
    seed: int
    sizes: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())


def run_identity_battery(
    rng_seed: int = 0,
    sizes: tuple[int, ...] = (3, 4, 5),
    specs_per_size: int = 20,
    pairs_per_spec: int = 3,
    tolerance: float = EXHAUSTIVE_TOL,
) -> BatteryReport:
    """Exercise the expectation identities, the doubly-uniform decomposition
    and the mixture/intersection/restriction rules against enumeration
    oracles over random samplings and matrices.

    The specs of a size run in batches, each in two phases. The first
    draws every spec, (M, h) pair, Dirichlet weight and restriction set of
    the batch, in the order of checking each spec as it is drawn (the
    checks draw nothing), and builds the mixture and the intersection of
    each. The second checks the specs in that order, reading the six
    enumerated P of each spec (the mixture and its two components, the
    intersection and its two factors) from one stack that
    :func:`probability._enumerated_stack` sums, in one :func:`csr._pair_sum`
    call unless the batch's supports hold more than ``csr._STACK_ENTRIES``
    indices. A batch holds as many specs as fit their P in that one stack
    budget (at least one), so neither the stack nor the draws held grow
    with ``specs_per_size``, and each P has the bits of
    ``prob_matrix(spec, "enumerate")``. ``tolerance`` is read by
    :func:`_tolerance`."""
    tolerance = _tolerance(tolerance)
    sizes = tuple(sizes)
    if not sizes or not all(_is_int(n) and n >= 1 for n in sizes):
        raise ValidationError("sizes", f"must be a nonempty list of integers of at least 1, not {sizes!r}")
    for name, count in (("specs_per_size", specs_per_size), ("pairs_per_spec", pairs_per_spec)):
        if not (_is_int(count) and count >= 1):
            raise ValidationError(name, f"must be an integer of at least 1, not {count!r}")
    rng = config.rng_for_stream(rng_seed, 0)
    tracker: dict[str, float] = {}
    counts: dict[str, int] = {}

    def record(name: str, discrepancy: float) -> None:
        tracker[name] = max(tracker.get(name, 0.0), float(discrepancy))
        counts[name] = counts.get(name, 0) + 1

    for n in sizes:
        batch = max(1, csr._STACK_ENTRIES // (6 * n * n))
        for lo in range(0, specs_per_size, batch):
            drawn = [_battery_case(rng, n, pairs_per_spec) for _ in range(min(batch, specs_per_size - lo))]
            stack = probability._enumerated_stack([e for *_, enumerated in drawn for e in enumerated])
            for (spec, pairs, q, w, j, _), ps in zip(drawn, stack.reshape(-1, 6, n, n)):
                mix_p, *comp_ps, lhs, first, second = ps
                for report in probability._identity_reports(spec, pairs):
                    for name, res in report.results.items():
                        record(f"identity:{name}", res["discrepancy"])

                # Doubly-uniform = cardinality-weighted mixture of tau-nice laws.
                du = samplings.doubly_uniform(q)
                mix = samplings.convex_combination(q, [samplings.tau_nice(n, t) for t in range(n + 1)])
                record(
                    "doubly_uniform_decomposition",
                    _support_distance(samplings.enumerate_support(du), samplings.enumerate_support(mix)),
                )

                # Mixture rule for probability matrices.
                rhs = sum(wi * pc for wi, pc in zip(w, comp_ps))
                record("convex_combination_rule", np.max(np.abs(mix_p - rhs)))

                # Intersection rule: enumerate the joint law vs Hadamard product.
                record("intersection_rule", np.max(np.abs(lhs - first * second)))

                # Restriction distributes over mixtures.
                mask = np.zeros(n)
                mask[j] = 1.0
                outer = np.outer(mask, mask)
                restricted_mix = mix_p * outer
                mix_restricted = sum(wi * (pc * outer) for wi, pc in zip(w, comp_ps))
                record("restriction_chain", np.max(np.abs(restricted_mix - mix_restricted)))

    checks = {
        name: {
            "max_discrepancy": tracker[name],
            "cases": counts[name],
            "pass": tracker[name] <= tolerance,
        }
        for name in sorted(tracker)
    }
    return BatteryReport(checks=checks, tolerance=tolerance, seed=rng_seed, sizes=sizes)


def _battery_case(rng: np.random.Generator, n: int, pairs_per_spec: int):
    """One spec's draws for the identity battery, in the battery's order:
    the spec, its (M, h) pairs, the doubly-uniform law q, the mixture's
    components and weights, the intersection's factors and the restriction
    set; with the mixture, its components, the intersection and its
    factors, whose enumerated P the rule checks read."""
    spec = samplings.random_spec(rng, n)
    pairs = [(rng.standard_normal((n, n)), rng.standard_normal(n)) for _ in range(pairs_per_spec)]
    q = rng.dirichlet(np.ones(n + 1))
    q = q / q.sum()
    comps = [samplings.random_spec(rng, n) for _ in range(2)]
    w = rng.dirichlet(np.ones(2))
    w = w / w.sum()
    factors = [samplings.random_spec(rng, n), samplings.random_spec(rng, n)]
    j = np.flatnonzero(rng.random(n) < 0.6)
    if j.size == 0:
        j = np.array([int(rng.integers(n))])
    enumerated = [samplings.convex_combination(w, comps), *comps, samplings.intersection(*factors), *factors]
    return spec, pairs, q, w, j, enumerated


def _support_distance(first, second) -> float:
    lhs = dict(first)
    rhs = dict(second)
    keys = set(lhs) | set(rhs)
    return max(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in keys)


def write_junit(report: BatteryReport, path) -> None:
    """Minimal junit-style summary for CI consumption."""
    failures = sum(0 if c["pass"] else 1 for c in report.checks.values())
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<testsuite name="identity_battery" tests="{len(report.checks)}" failures="{failures}">',
    ]
    for name, check in report.checks.items():
        lines.append(
            f'  <testcase name="{html.escape(name, quote=True)}" classname="identity_battery">'
            + (
                ""
                if check["pass"]
                else f'<failure message="max discrepancy {check["max_discrepancy"]:.3e} '
                f'exceeds {report.tolerance:.1e}"/>'
            )
            + "</testcase>"
        )
    lines.append("</testsuite>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
