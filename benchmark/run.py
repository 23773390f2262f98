"""Benchmark of the gsmloc package: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload rural-gp --seed 0 --seconds 6 --trace 0

Workloads (see ``workloads.py``): ``rural-gp``, ``urban-track`` and
``rural-sweep``.  ``--seed`` selects the synthetic world; ``--seconds`` is
the time given to the online phase, split evenly between the techniques.

With ``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``.  With ``--trace 1`` it runs the workload twice, first
untraced and then traced with the same number of estimator calls, reports
the per-layer metrics, prints each module's self time and the tracing
overhead (traced minus untraced wall time), and writes the spans to
``.bench_out/``.  The package is imported from ``src/`` of the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record: versions, processor and BLAS thread counts, seeds and
the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

from spans import Recorder, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("synth", "geo", "radiomap", "estimators", "gp", "bench")

# Metrics kept per-layer rather than end-to-end, or renamed, and why;
# printed with every traced run.
MOVED = (
    ("gp.ms_p50, gp.err_m_p50", "end-to-end metrics must be reported by every workload; "
     "only rural-gp runs GP"),
    ("bench.sweep_s", "only rural-sweep runs sweeps"),
    ("*.err_m_p50, *.err_m_p95", "accuracy is fixed by the seed but differs 5-40% between "
     "seeds (quartile spread over median), beyond any allowed bound; the gate checks "
     "estimates against a reference and bench.evaluate instead"),
    ("*.ms_p99 (reported as *.ms_p98)", "latency percentiles are taken over windows, each "
     "timed as the best of its calls; the rural test trace has 573 windows, so p98 is the "
     "highest percentile with ten windows beyond it"),
    ("prob.ms_p98, hybrid.ms_p98", "a window whose calls all fell in slow stretches of the "
     "machine moves the tail: its spread over ten seeds reached 0.55 of its median, so the "
     "tails are per-layer (estimators.*.ms_p98)"),
    ("io_s", "its calls last 0.1-0.3 s and rarely fall wholly in a fast stretch, so over ten "
     "seeds its spread reached 0.34 of its median, beyond the largest allowed bound"),
)


def _fail(message: str, code: int) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return code


def _blas_threads() -> tuple[int, int]:
    """Processor count and the OpenBLAS thread count, capped at it.

    Set before numpy is imported, so the count recorded is the one in use.
    """
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return nproc, threads


def _run_record(args, run, nproc: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "world_seed": run.world_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": nproc,
        "blas_threads": blas_threads,
        "src_lines": src_lines,
    }


def _trace_metrics(untraced, traced, rec) -> dict[str, tuple[float, str]]:
    selfs = self_times(rec.spans)
    out: dict[str, tuple[float, str]] = {}
    for module in MODULES:
        seconds, count = selfs.get(module, (0.0, 0))
        out[f"{module}.self_s"] = (seconds, "s")
        out[f"{module}.spans"] = (float(count), "count")
    harness = sum(selfs.get(m, (0.0, 0))[0] for m in ("workload", "stage"))
    out["harness.self_s"] = (harness, "s")
    out["trace.spans"] = (float(len(rec.spans)), "count")
    out["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return out


def _print_report(run, traced_metrics=None) -> None:
    print(f"workload {run.name}: preset {run.workload.preset}, seed {run.seed}, "
          f"world seed {run.world_seed} ({run.worlds_rejected} worlds rejected)")
    for technique, res in run.techniques.items():
        line = (f"  {technique:13s} calls {res.calls:7d}  failed {res.failed}  "
                f"p50 {res.latency_ms(50):.4f} ms  p98 {res.latency_ms(98):.4f} ms  "
                f"err p50 {res.error_m(50):.2f} m  p95 {res.error_m(95):.2f} m")
        if res.first_error:
            line += f"  first error: {res.first_error}"
        print(line)
    print(f"  gate: {run.checks} checks, {len(run.mismatches)} mismatches, "
          f"{run.tie_skips} reference near-ties skipped")
    for what in run.mismatches[:20]:
        print(f"    MISMATCH {what}")
    if traced_metrics is not None:
        print("  module self time (traced run):")
        for module in MODULES + ("harness",):
            seconds = traced_metrics[f"{module}.self_s"][0]
            spans = traced_metrics.get(f"{module}.spans", (0.0,))[0]
            print(f"    {module:10s} {seconds:10.4f} s  {int(spans):8d} spans")
        print(f"  tracing overhead: {traced_metrics['trace.overhead_s'][0]:+.4f} s over "
              f"{int(traced_metrics['trace.spans'][0])} spans (traced minus untraced wall "
              "time; the machine's own drift between the two passes adds to it)")
        for names, why in MOVED:
            print(f"  note: {names}: {why}")


def _select(metrics: dict[str, tuple[float, str]], spec: list[dict]) -> dict:
    out = {}
    for entry in spec:
        name = entry["name"]
        if name not in metrics:
            raise KeyError(f"metric {name!r} was not measured")
        value, unit = metrics[name]
        if unit != entry["unit"] or not math.isfinite(value):
            raise ValueError(f"metric {name!r}: {value} {unit}, expected unit {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0", 2)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gsmloc" / "__init__.py").is_file() or not spec_path.is_file():
        return _fail(f"no package source under {SRC} or no {spec_path.name}", 2)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    nproc, blas_threads = _blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, WorkloadRun

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", 2)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = WorkloadRun(args.workload, args.seed, args.seconds, Recorder(False), str(workdir)).run()
        record = _run_record(args, run, nproc, blas_threads)
        _print_report(run)
        runs = [run]
        if args.trace:
            calls = {t: res.calls for t, res in run.techniques.items()}
            rec = Recorder(True)
            traced = WorkloadRun(args.workload, args.seed, args.seconds, rec, str(workdir), calls).run()
            runs.append(traced)
            metrics = traced.per_layer()
            trace_metrics = _trace_metrics(run, traced, rec)
            metrics.update(trace_metrics)
            _print_report(traced, trace_metrics)
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump({
                    "run_record": record,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": rec.spans,
                }, fh)
        else:
            metrics = run.end_to_end(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        selected = _select(metrics, spec["per_layer" if args.trace else "end_to_end"])
    except (KeyError, ValueError) as exc:
        return _fail(str(exc), 3)

    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": selected,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
