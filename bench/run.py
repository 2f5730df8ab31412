"""esokit benchmark: time to certified stepsizes, time to solution and
Monte-Carlo throughput, end to end and per layer.

    python3 bench/run.py --workload sparse-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # every workload, untraced then traced

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and prints the per-layer metrics of the
traced ones (see spans.py), plus the tracing overhead. Each metric is printed
on its own line with its unit and sample count; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The full result, with
the run's metadata, goes to .esobench/results/ in the checkout, and a traced
run writes its spans next to it.

Workloads (closed loop, one caller, threads at 1; see workloads.py):
  sparse-large  parsing, DataMatrix views, dense gram/to_dense and O(m+n)
                solver iterations dominate; hardly any sampling work.
  small-solver  a 20 x 10 problem: per-iteration overhead and the draw
                dominate; the data layer is negligible.
  monte-carlo   per-draw Python loops dominate; data layer and solver bypassed.

End-to-end metrics (medians over the timed rounds, after one warm-up round;
each round's times are scaled to a nominal core speed, see pace.py, and the
unscaled wall times go to the result file):
  setup_s             start-up and imports of a fresh interpreter plus one
                      fixture build, each the median of 3
  preprocess_s        time to certified stepsizes
  time_to_solution_s  solver runs to epsilon 1e-6, or the Monte-Carlo
                      estimates at their stated sample counts
  mc_draws_per_s      sampling draws consumed by that stage / its time
  total_s             every call of one round
  peak_rss_mb         peak resident memory of this process (getrusage)
  ops_failed_frac     operations that raised or missed their oracle, out of
                      those attempted (the last line's failed / attempted)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Threads at 1 for every BLAS, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".esobench"
WORKLOAD_NAMES = ("sparse-large", "small-solver", "monte-carlo")
SETUP_REPS = 3

# Per-layer metrics that are exact counts read from outside the program
# (computed, not timed).
COMPUTED_SUFFIXES = (".calls", ".mc_fallbacks", ".bytes_computed", ".iterations", ".solves_per_row", ".report_bytes")


def layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith(("bytes_computed", "report_bytes")):
        return "B"
    if name.endswith(("_speedup", "_ratio", "per_row")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Run metadata


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Threads OpenBLAS reports, asked through the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = nonblank = 0
    for path in sources:
        text = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + text)
        rows = text.decode("utf-8").splitlines()
        lines += len(rows)
        nonblank += sum(1 for row in rows if row.strip())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_nonblank_lines": nonblank,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 caller",
    }


# ---------------------------------------------------------------------------
# One workload in this process


def _median_metric(values: list[float], unit: str, source: str = "measured") -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values), "source": source}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    if not (SRC / "esokit" / "__init__.py").is_file():
        print(f"error: esokit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resource

    from pace import Pace

    pace = Pace()
    # Start-up and imports, timed in fresh interpreters so that they can be
    # repeated; this process then imports the same modules untimed.
    argv = [sys.executable, "-c", "import numpy, esokit"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    import_times = [
        pace.timed(lambda: subprocess.run(argv, env=env, check=True, timeout=120))[1] for _ in range(SETUP_REPS)
    ]

    import spans
    import workloads

    workdir = OUT / "work" / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPS):
        wl = workloads.WORKLOADS[name](seed, workdir)
        setup_times.append(pace.timed(wl.setup)[1])

    # One untimed round first, so that caches fill and lazy set-up ends;
    # its operations are still checked and counted.
    warmup = workloads.Round(pace)
    wl.run_round(warmup)
    warmup.finish()
    warmup.verify()

    tracer = spans.Tracer() if trace else None
    rounds: list = []
    layer_rounds: list[dict] = []
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        r = workloads.Round(pace)
        if traced:
            tracer.install()
            mark = tracer.mark()
        try:
            wl.run_round(r)
        finally:
            if traced:
                tracer.remove()
        if traced:
            layer_rounds.append(tracer.round_metrics(mark))
        r.traced = traced
        r.finish()
        r.verify()
        rounds.append(r)
        if perf_counter() >= deadline and (tracer is None or layer_rounds):
            break

    attempted = warmup.attempted + sum(r.attempted for r in rounds)
    failed = len(warmup.failures) + sum(len(r.failures) for r in rounds)
    untraced = [r for r in rounds if not r.traced]
    metrics: dict[str, dict] = {}
    if tracer is None:
        metrics["setup_s"] = {
            "value": statistics.median(import_times) + statistics.median(setup_times),
            "unit": "s",
            "samples": len(setup_times),
            "source": "measured",
        }
        metrics["preprocess_s"] = _median_metric([r.stage_time("preprocess") for r in rounds], "s")
        metrics["time_to_solution_s"] = _median_metric([r.stage_time("solution") for r in rounds], "s")
        metrics["mc_draws_per_s"] = _median_metric([r.draws / r.times["solution"] for r in rounds], "1/s")
        metrics["total_s"] = _median_metric([r.total for r in rounds], "s")
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
            "samples": 1,
            "source": "measured",
        }
    else:
        for key in layer_rounds[0]:
            source = "computed" if key.endswith(COMPUTED_SUFFIXES) else "measured"
            metrics[key] = _median_metric([lr[key] for lr in layer_rounds], layer_unit(key), source)
        for key, value in {"solver.solve_many.threads2_speedup": 0.0, **wl.extra_metrics()}.items():
            metrics[key] = {"value": value, "unit": "ratio", "samples": 1, "source": "measured"}
        traced_totals = [r.total for r in rounds if r.traced]
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_totals) / statistics.median(r.total for r in untraced),
            "unit": "ratio",
            "samples": len(traced_totals),
            "source": "measured",
        }
    ops_failed_frac = failed / attempted

    for key, m in metrics.items():
        print(f"{key:<58} {m['value']:>16.6g} {m['unit']:<6} (median of {m['samples']}, {m['source']})")
    print(f"{'ops_failed_frac':<58} {ops_failed_frac:>16.6g} {'frac':<6} ({failed} of {attempted} operations)")
    for r in (warmup, *rounds):
        for label, detail in r.failures:
            print(f"FAILED {label}:\n{detail}", file=sys.stderr)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    record = {
        "metadata": run_metadata(name, seed, seconds, trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": ops_failed_frac,
        "rounds": [
            {
                "warmup": r is warmup,
                "scale": r.scale,
                "traced": r.traced,
                "total_s": r.total,
                "draws": r.draws,
                **{f"{k}_s": v for k, v in r.times.items()},
                **{f"{k}_wall_s": v for k, v in r.wall.items()},
                **{f"{k}_pass_wall_s": v for k, v in r.pass_wall.items()},
            }
            for r in (warmup, *rounds)
        ],
        "metrics": metrics,
        "failures": [label for r in (warmup, *rounds) for label, _ in r.failures],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh process


def run_all(seed: int, seconds: int) -> int:
    """Untraced then traced run of each workload, one fresh process each (so
    peak_rss_mb is the workload's own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            print(f"== {name} (trace {trace})")
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines:
                print(f"error: {name} exited with {done.returncode}", file=sys.stderr)
                return done.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
