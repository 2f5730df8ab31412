"""Spans around the calls into esokit's public functions, recorded from outside.

The tracer replaces module attributes and class methods with wrappers while
it is installed and puts the originals back when it is removed; no source
file of the package changes. Modules look their collaborators up as module
attributes (``probability.prob_matrix``, ``samplings.validate_spec``), so a
call made inside the package passes through the same wrapper as one made by
the benchmark. Spans are (name, start, end, parent) tuples kept in memory and
written once, at the end of the run. One thread only: the stack that gives
each span its parent is not shared between threads.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

import esokit.cli as cli
import esokit.datamatrix as datamatrix
import esokit.eso as eso
import esokit.probability as probability
import esokit.samplings as samplings
import esokit.solver as solver
import esokit.spectral as spectral
import esokit.verify as verify

LAYERS = ("datamatrix", "samplings", "probability", "spectral", "eso", "verify", "solver", "cli")
CLI_COMMANDS = ("compute-v", "verify", "probmatrix", "solve", "tradeoff", "design-serial", "battery")
FORMULAS = ("auto", "coupled-exact", "uncoupled", "taunice")
PROVENANCES = ("closed_form", "enumerated", "monte_carlo")


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _cli_command(argv) -> str:
    return next((a for a in argv if a in CLI_COMMANDS), "unknown")


class Tracer:
    """Span recorder plus the exact counters read at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """Wrap fn in a span. name is a string or name(args, kwargs, result),
        asked once the call returns (with result None if it raised); after
        (args, kwargs, result) updates counters when the call succeeds."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(("", 0.0, 0.0, parent))
            tracer._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs, result)
                tracer.spans[index] = (label, start, end, parent)
                if after is not None and result is not None:
                    after(args, kwargs, result)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, after=None):
        self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, after))

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        c = self.counters
        dm = datamatrix.DataMatrix

        read = self._wrap(datamatrix.read_matrix, "datamatrix.read_matrix")
        self._patch(datamatrix, "read_matrix", read)
        self._patch(cli, "read_matrix", read)
        for attr in ("row_supports", "row_entries", "column_entries"):
            # cached properties: the span covers the first access per matrix.
            view = cached_property(self._wrap(dm.__dict__[attr].func, "datamatrix.views"))
            view.__set_name__(dm, attr)
            self._patch(dm, attr, view)
        self._span(dm, "gram", "datamatrix.gram")

        def dense_done(args, kwargs, result):
            c["datamatrix.to_dense.bytes_computed"] += args[0].m * args[0].n * 8

        self._span(dm, "to_dense", "datamatrix.to_dense", dense_done)

        def moments_done(args, kwargs, result):
            c["samplings.cardinality_moments.mc_fallbacks"] += result.method == "monte_carlo"

        self._span(samplings, "cardinality_moments", "samplings.cardinality_moments", moments_done)
        self._span(samplings, "enumerate_support", "samplings.enumerate_support")
        # Called about once per matrix row by the coupled formula: counted, no span.
        validate = samplings.validate_spec

        @functools.wraps(validate)
        def counted_validate(*args, **kwargs):
            c["samplings.validate_spec.calls"] += 1
            return validate(*args, **kwargs)

        self._patch(samplings, "validate_spec", counted_validate)

        def pm_name(args, kwargs, result):
            return f"probability.prob_matrix.{result.provenance if result is not None else 'failed'}"

        def pm_done(args, kwargs, result):
            c["probability.prob_matrix.monte_carlo.samples"] += result.mc_samples or 0

        self._span(probability, "prob_matrix", pm_name, pm_done)
        self._span(spectral, "lambda_prime", "spectral.lambda_prime")
        self._span(spectral, "lambda_prime_restricted", "spectral.lambda_prime_restricted")

        def cv_name(args, kwargs, result):
            return f"eso.compute_v.{_arg(args, kwargs, 2, 'formula', 'auto')}"

        def cv_done(args, kwargs, result):
            name = cv_name(args, kwargs, result)
            c[f"{name}.cost_estimate"] += result.cost_estimate
            if name.startswith("eso.compute_v.coupled"):
                c["eso.coupled.rows"] += args[0].m

        self._span(eso, "compute_v", cv_name, cv_done)
        self._span(eso, "certify", "eso.certify")

        def check_name(args, kwargs, result):
            return f"verify.check_eso_quadratic.{_arg(args, kwargs, 4, 'mode', 'exhaustive')}"

        def check_done(args, kwargs, result):
            if result.mode == "monte_carlo":
                c["verify.check_eso_quadratic.monte_carlo.trials"] += result.trials

        self._span(verify, "check_eso_quadratic", check_name, check_done)
        self._span(verify, "run_identity_battery", "verify.run_identity_battery")

        def solve_done(args, kwargs, result):
            c["solver.iterations"] += result.iterations

        self._span(solver.QuadraticProblem, "x_star", "solver.x_star")
        self._span(solver, "solve", "solver.solve", solve_done)
        self._span(solver, "solve_many", "solver.solve_many")

        def cli_name(args, kwargs, result):
            return f"cli.{_cli_command(_arg(args, kwargs, 0, 'argv', ()))}"

        def cli_done(args, kwargs, result):
            argv = list(_arg(args, kwargs, 0, "argv", ()))
            if "--out" in argv:
                c["cli.report_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])

        self._span(cli, "main", cli_name, cli_done)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived metrics -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to measure one round from: (first span index, counters so far)."""
        return len(self.spans), Counter(self.counters)

    def round_metrics(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since mark."""
        first, before = mark
        spans = self.spans[first:]
        counts = self.counters - before
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                children[parent] += end - start

        time_by: dict[str, float] = defaultdict(float)
        calls_by: Counter = Counter()
        self_by: dict[str, float] = defaultdict(float)
        out: dict[str, float] = {}
        coupled_solves = 0
        for offset, (name, start, end, parent) in enumerate(spans):
            index = first + offset
            duration = end - start
            own = duration - children[index]
            time_by[name] += duration
            calls_by[name] += 1
            self_by[name.split(".")[0]] += own
            if name.startswith("cli."):
                self_by[f"{name}.self"] += own
            if name == "spectral.lambda_prime_restricted":
                ancestor = parent
                while ancestor >= first and not spans[ancestor - first][0].startswith("eso.compute_v"):
                    ancestor = spans[ancestor - first][3]
                coupled_solves += ancestor >= first and spans[ancestor - first][0].startswith(
                    "eso.compute_v.coupled"
                )

        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by[layer]
        out["datamatrix.read_matrix.s"] = time_by["datamatrix.read_matrix"]
        out["datamatrix.views.s"] = time_by["datamatrix.views"]
        out["datamatrix.gram.s"] = time_by["datamatrix.gram"]
        for name in (
            "datamatrix.gram",
            "datamatrix.to_dense",
            "samplings.cardinality_moments",
            "samplings.enumerate_support",
            "spectral.lambda_prime",
            "spectral.lambda_prime_restricted",
            "eso.certify",
        ):
            out[f"{name}.calls"] = calls_by[name]
        for key in (
            "datamatrix.to_dense.bytes_computed",
            "samplings.cardinality_moments.mc_fallbacks",
            "samplings.validate_spec.calls",
            "solver.iterations",
        ):
            out[key] = counts[key]
        out["samplings.cardinality_moments.s"] = time_by["samplings.cardinality_moments"]
        out["samplings.enumerate_support.s"] = time_by["samplings.enumerate_support"]
        for prov in PROVENANCES:
            out[f"probability.prob_matrix.{prov}.s"] = time_by[f"probability.prob_matrix.{prov}"]
            out[f"probability.prob_matrix.{prov}.calls"] = calls_by[f"probability.prob_matrix.{prov}"]
        out["probability.prob_matrix.monte_carlo.samples_per_s"] = _rate(
            counts["probability.prob_matrix.monte_carlo.samples"],
            time_by["probability.prob_matrix.monte_carlo"],
        )
        out["spectral.lambda_prime.s"] = time_by["spectral.lambda_prime"]
        out["spectral.lambda_prime_restricted.s"] = time_by["spectral.lambda_prime_restricted"]

        for formula in FORMULAS:
            name = f"eso.compute_v.{formula}"
            out[f"{name}.s"] = time_by[name]
            out[f"{name}.cost_estimate_per_s"] = _rate(counts[f"{name}.cost_estimate"], time_by[name])
        out["eso.certify.s"] = time_by["eso.certify"]
        out["eso.coupled.solves_per_row"] = _rate(coupled_solves, counts["eso.coupled.rows"])

        out["verify.check_eso_quadratic.monte_carlo.s"] = time_by["verify.check_eso_quadratic.monte_carlo"]
        out["verify.check_eso_quadratic.monte_carlo.trials_per_s"] = _rate(
            counts["verify.check_eso_quadratic.monte_carlo.trials"],
            time_by["verify.check_eso_quadratic.monte_carlo"],
        )
        out["verify.check_eso_quadratic.exhaustive.s"] = time_by["verify.check_eso_quadratic.exhaustive"]
        out["verify.run_identity_battery.s"] = time_by["verify.run_identity_battery"]

        out["solver.x_star.s"] = time_by["solver.x_star"]
        out["solver.solve.s"] = time_by["solver.solve"]
        out["solver.solve.us_per_iter"] = 1e6 * _rate(time_by["solver.solve"], counts["solver.iterations"])
        for command in ("compute-v", "solve", "battery"):
            out[f"cli.{command}.s"] = time_by[f"cli.{command}"]
            out[f"cli.{command}.self_s"] = self_by[f"cli.{command}.self"]
        out["cli.report_bytes"] = counts["cli.report_bytes"]
        return out

    def dump(self) -> list[list]:
        return [[name, start, end, parent] for name, start, end, parent in self.spans]


def _rate(amount: float, base: float) -> float:
    """amount / base, 0 where nothing ran."""
    return amount / base if base > 0 else 0.0
