"""Command-line front door.

Subcommands: compute-v, verify, probmatrix, solve, tradeoff, design-serial,
battery. ``--formula`` (compute-v, solve) and ``--formulas`` (tradeoff) take
the names of ``eso.FORMULAS``. All randomness flows from --seed; reports are
deterministic JSON (byte-identical across runs apart from the generated_at
timestamp) carrying a schema_version and the resolved configuration, with
the RNG scheme (``config.RNG_SCHEME``) and, where Monte-Carlo draws are
split across streams, the --threads value that sets them.

Exit codes: 0 success/pass, 1 a check failed, 2 input error, 3 unsupported
formula/spec combination.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import config, eso, probability, samplings, solver, validation, verify
from .datamatrix import read_matrix
from .errors import (
    CapacityError,
    DivergenceError,
    ParseError,
    UnsupportedMethodError,
    ValidationError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3

SCHEMA_VERSION = 1


def _require_object(payload, source: str) -> dict:
    if not isinstance(payload, dict):
        raise ParseError(f"{source} must hold a JSON object, not a {type(payload).__name__}")
    return payload


def _load_sampling(arg: str) -> samplings.SamplingSpec:
    """The spec of inline JSON or of a JSON file, read as the estimators read it."""
    text = arg
    if not arg.strip().startswith("{"):
        path = Path(arg)
        if not path.exists():
            raise ParseError(f"sampling file not found: {arg}")
        text = path.read_text(encoding="utf-8")
    return validation.as_sampling_spec(text)


def _read_json(path: str):
    p = Path(path)
    if not p.exists():
        raise ParseError(f"file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON in {path}: {e.msg}", e.lineno) from e


def _load_json(path: str) -> dict:
    return _require_object(_read_json(path), path)


def _numbers(raw, what: str) -> np.ndarray:
    """raw as a float array of finite numbers; anything else, true, false and
    "0.2" too (which np.asarray converts), is an input error naming ``what``."""
    if any(isinstance(e, (bool, str)) for e in np.asarray(raw, dtype=object).flat):
        raise ParseError(f"{what} holds true, false or a string where a number belongs")
    try:
        out = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{what} is not a number or a vector of numbers") from e
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{what} has non-finite entries")
    return out


def _load_v(path: str, n: int) -> np.ndarray:
    """Accept a bare vector, {"v": [...]}, or a full compute-v report."""
    raw = _read_json(path)
    if isinstance(raw, dict) and "result" in raw:
        raw = raw["result"]
    if isinstance(raw, dict):
        if "v" not in raw:
            raise ParseError(f"no 'v' vector found in {path}")
        raw = raw["v"]
    v = _numbers(raw, f"v in {path}")
    if v.shape != (n,):
        raise ParseError(f"v has length {v.size}, expected {n}")
    return v


def _write_report(args: argparse.Namespace, command: str, keys: list[str], result: dict) -> None:
    """The JSON report of a subcommand, to ``args.out`` or stdout; its config
    holds the arguments named by ``keys`` and the RNG scheme."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {**{k: getattr(args, k) for k in keys}, "rng_scheme": config.RNG_SCHEME},
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "result": result,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_compute_v(args) -> int:
    data = read_matrix(args.matrix)
    spec = _load_sampling(args.sampling)
    result = eso.compute_v(data, spec, formula=args.formula)
    if args.certify:
        result = result.with_margin(eso.certify(data, spec, result.v))
    tau = samplings.cardinality_cap(spec)
    max_ratio = float(np.max(result.v * tau / (result.p * data.n)))
    payload = result.to_dict()
    payload["max_ratio"] = max_ratio
    _write_report(args, "compute-v", ["matrix", "sampling", "formula", "seed"], payload)
    v = result.v
    print(
        f"v: min={v.min():.6g} max={v.max():.6g} mean={v.mean():.6g}  "
        f"max_i v_i*tau/(p_i*n) = {max_ratio:.6g}  [{result.formula_id}]"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    data = read_matrix(args.matrix)
    spec = _load_sampling(args.sampling)
    v = _load_v(args.v, data.n)

    results: dict = {}
    passed = True
    if args.mode in ("matrix", "exhaustive", "monte-carlo"):
        matrix_report = verify.check_eso_matrix_form(data, spec, v, tol=args.tolerance)
        results["matrix_form"] = matrix_report.to_dict()
        passed &= matrix_report.passed
        if not matrix_report.passed and matrix_report.witness is not None:
            print("certificate violated; witness direction:")
            print(np.array2string(matrix_report.witness, precision=6))
    if args.mode in ("exhaustive", "monte-carlo"):
        # The exhaustive mode reads neither trials nor streams.
        report = verify.check_eso_quadratic(
            data,
            spec,
            v,
            mode=args.mode.replace("-", "_"),
            trials=args.trials,
            rng_seed=args.seed,
            streams=args.threads,
        )
        results["quadratic"] = report.to_dict()
        passed &= report.passed
    results["pass"] = passed
    keys = ["matrix", "sampling", "v", "mode", "trials", "seed", "threads", "tolerance"]
    _write_report(args, "verify", keys, results)
    print(f"verify: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_probmatrix(args) -> int:
    spec = _load_sampling(args.sampling)
    method = args.method.replace("-", "_")
    pm = probability.prob_matrix(
        spec, method, mc_samples=args.samples, rng_seed=args.seed, streams=args.threads
    )
    if args.out and args.out.endswith(".csv"):
        probability.write_csv(pm, args.out)
        print(f"wrote {args.out} (n={pm.n}, provenance={pm.provenance})")
    else:
        _write_report(args, "probmatrix", ["sampling", "method", "samples", "seed", "threads"], pm.to_dict())
    return EXIT_OK


def cmd_solve(args) -> int:
    data = read_matrix(args.matrix)
    spec = _load_sampling(args.sampling)
    sidecar = _load_json(args.problem) if args.problem else {}
    ridge, b, x0 = (
        _numbers(sidecar[key], f"{key} in {args.problem}") if key in sidecar else None
        for key in ("lambda", "b", "x0")
    )
    if ridge is not None and ridge.ndim:
        raise ParseError(f"lambda in {args.problem} is not a number")
    problem = solver.QuadraticProblem(data, ridge=args.ridge if ridge is None else float(ridge), b=b)

    if args.v:
        v = _load_v(args.v, data.n)
    else:
        v = problem.stepsizes(spec, formula=args.formula).v

    traces = solver.solve_many(
        problem,
        spec,
        v,
        n_runs=args.seeds,
        rng_seed=args.seed,
        x0=x0,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
    )
    final_gaps = [t.final_gap for t in traces]
    summary = {
        "runs": len(traces),
        "mean_final_gap": float(np.mean(final_gaps)),
        "max_final_gap": float(np.max(final_gaps)),
        "converged": all(t.converged for t in traces),
        "theoretical_iteration_bound": traces[0].theoretical_iteration_bound,
        "traces": [t.to_dict() for t in traces],
    }
    keys = ["matrix", "sampling", "problem", "formula", "epsilon", "max_iter", "seeds", "seed"]
    _write_report(args, "solve", keys, summary)
    if args.trace_csv:
        traces[0].write_csv(args.trace_csv)
    print(
        f"solve: {len(traces)} run(s), mean final gap {summary['mean_final_gap']:.3e}, "
        f"bound {summary['theoretical_iteration_bound']:.1f} iterations"
    )
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    data = read_matrix(args.matrix)
    spec = _load_sampling(args.sampling)
    report = solver.tradeoff_report(
        data,
        spec,
        formulas=tuple(args.formulas.split(",")),
        lambda_sc=args.lambda_sc,
        epsilon=args.epsilon,
    )
    _write_report(args, "tradeoff", ["matrix", "sampling", "formulas", "lambda_sc", "epsilon"], report.to_dict())
    for row in report.rows:
        print(
            f"{row['formula']:>13}: preprocessing {row['preprocessing_passes']:10.2f} passes, "
            f"max ratio {row['max_ratio']:10.4f}, iteration passes {row['iteration_passes']:.1f}"
        )
    return EXIT_OK


def cmd_design_serial(args) -> int:
    data = read_matrix(args.matrix)
    payload = _load_json(args.points)
    missing = [key for key in ("x0", "xstar") if key not in payload]
    if missing:
        raise ParseError(f"{args.points} lacks {' and '.join(missing)}")
    x0, xstar = (_numbers(payload[key], f"{key} in {args.points}") for key in ("x0", "xstar"))
    design = solver.optimal_serial_sampling(data, x0, xstar)
    _write_report(args, "design-serial", ["matrix", "points"], design.to_dict())
    print(f"design-serial: C_opt={design.c_opt:.6g} C_unif={design.c_unif:.6g} ratio={design.ratio:.6g}")
    return EXIT_OK


def cmd_battery(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError as e:
        raise ParseError(f"--sizes takes comma-separated integers, not {args.sizes!r}") from e
    report = verify.run_identity_battery(
        rng_seed=args.seed,
        sizes=sizes,
        specs_per_size=args.specs_per_size,
        pairs_per_spec=args.pairs_per_spec,
        tolerance=args.tolerance,
    )
    _write_report(args, "battery", ["sizes", "specs_per_size", "pairs_per_spec", "seed", "tolerance"], report.to_dict())
    if args.junit:
        verify.write_junit(report, args.junit)
    for name, check in report.checks.items():
        status = "ok" if check["pass"] else "FAIL"
        print(f"{status:>4}  {name}: max discrepancy {check['max_discrepancy']:.2e}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esokit",
        description="Stepsize parameters and solver tooling for randomized "
        "coordinate descent with arbitrary samplings.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    parser.add_argument("--threads", type=int, default=1, help="Monte-Carlo streams for probmatrix and verify")
    parser.add_argument("--tolerance", type=float, default=1e-8, help="certificate tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute-v", help="compute stepsize parameters for a sampling and matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sampling", required=True, help="spec file path or inline JSON")
    p.add_argument("--formula", default="auto", choices=list(eso.FORMULAS))
    p.add_argument("--certify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compute_v)

    p = sub.add_parser("verify", help="check the overapproximation inequality for given v")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sampling", required=True)
    p.add_argument("--v", required=True, help="JSON file with a v vector (or an EsoResult)")
    p.add_argument("--mode", default="exhaustive", choices=["exhaustive", "monte-carlo", "matrix"])
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probmatrix", help="compute the pairwise inclusion probability matrix")
    p.add_argument("--sampling", required=True)
    p.add_argument("--method", default="auto", choices=["auto", "closed-form", "enumerate", "monte-carlo"])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--out", default=None, help=".csv for the CSV format, otherwise JSON")
    p.set_defaults(func=cmd_probmatrix)

    p = sub.add_parser("solve", help="run the coordinate descent solver")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sampling", required=True)
    p.add_argument("--problem", default=None, help="JSON sidecar {lambda, b, x0}")
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--v", default=None, help="JSON v vector; computed from --formula when absent")
    p.add_argument("--formula", default="auto", choices=list(eso.FORMULAS))
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=1_000_000, dest="max_iter")
    p.add_argument("--seeds", type=int, default=1, help="number of independent runs (at least 1)")
    p.add_argument("--trace-csv", default=None, dest="trace_csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tradeoff", help="preprocessing vs iteration cost per formula")
    p.add_argument("--matrix", required=True)
    p.add_argument("--sampling", required=True)
    p.add_argument("--formulas", default="conservative,generic,coupled-exact", help="comma-separated --formula names")
    p.add_argument("--lambda-sc", type=float, default=1.0, dest="lambda_sc")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("design-serial", help="complexity-optimal serial sampling")
    p.add_argument("--matrix", required=True)
    p.add_argument("--points", required=True, help="JSON file {x0, xstar}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_design_serial)

    p = sub.add_parser("battery", help="run the structural identity battery")
    p.add_argument("--sizes", default="3,4,5")
    p.add_argument("--specs-per-size", type=int, default=20, dest="specs_per_size")
    p.add_argument("--pairs-per-spec", type=int, default=3, dest="pairs_per_spec")
    p.add_argument("--junit", default=None, help="write a junit-style XML summary here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_battery)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (UnsupportedMethodError, CapacityError) as e:
        print(f"unsupported combination: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except DivergenceError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
