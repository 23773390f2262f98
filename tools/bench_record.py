"""Record, compare or pair runs of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 tools/bench_record.py run BENCH_<n>.json
    python3 tools/bench_record.py compare BENCH_old.json BENCH_new.json
    python3 tools/bench_record.py pair PARENT_DIR OUT.json --pairs N [--workload NAME ...]

``run`` runs ``benchmark/run.py --seed 0 --seconds 6`` once per workload
listed in ``BENCHMARK.json`` and writes each run record, gate result and
end-to-end metrics, plus the ``src/`` line count, the public option count,
the start-up cost and the benchmark's known blind spots.  The option count,
``public_options``, is the number of parameters with a default over every
public function and class that ``gsmloc`` exports.  The start-up cost is
``import_s``, the median wall time of 5 fresh ``python -c "import gsmloc"``
processes, and ``import_rss_mb``, the median of those processes' peak RSS
(``ru_maxrss``).
``compare`` prints these four, without a bound, and then, per workload and
end-to-end metric, the change from the first file to the second, signed so
that positive is worse, and flags every change beyond the metric's bound.
One run per side is not enough to tell a change within the run-to-run
spread from noise, and two files recorded at different times also differ
by the machine's speed.
It exits 1 when a metric passes its bound, or when a run of the second
file fails its gate or fails a larger share of its operations than the
first file's run.

``pair`` runs each workload ``N`` times from a parent checkout (for
example one made with ``git worktree add``) and from this checkout,
alternating which side goes first, and writes every run to ``OUT.json``.
``--workload NAME``, which may be repeated, limits it to the named
workloads, in the given order; without it every workload in
``BENCHMARK.json`` runs.
Per workload and end-to-end metric it prints both medians, the change
between them (positive is worse), the parent's interquartile range over
its median, and in how many pairs the change beat the parent.  It flags
WORSE when the change passes the metric's bound, and UNRESOLVED when the
parent's spread alone passes it, unless every run of the change beats every
run of the parent: runs that do not overlap resolve the comparison however
wide the parent's spread.  It exits 1 on WORSE or when a run of the change
fails its gate or fails a larger share of its operations.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 6
IMPORT_RUNS = 5
_IMPORT_PROBE = "import gsmloc, resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"

BLIND_SPOTS = [
    "gp.lml_evals reports towers x 45 candidates, not the factorizations the fit runs",
    "setup_s cannot resolve its 0.25 bound: over the ten parent runs CHANGES.md quotes next "
    "to BENCH_21.json, its IQR/median read 0.426 on rural-gp (34 ms median) and 0.382 on "
    "urban-track (110 ms)",
    "radiomap.mean_asu_s and radiomap.point_arrays_s time plain accessors: the map builds "
    "those arrays at construction, so their work is in radiomap.build_s",
    "radiomap.table_bytes counts the log table's floor row for unknown towers, one row more "
    "than the map's towers (+1/n_towers against files before BENCH_9.json)",
    "estimators.det.cells_compared counts n_cells per call, but the screen reads only the "
    "window's heard towers per cell and then re-scores about k cells over all towers "
    "(from BENCH_14.json on)",
    "synth.tower_evals counts scans x towers, but synthesis runs the exact path loss only on "
    "the pairs a numpy estimate finds audible (seed 0: 9.9% urban, 16.7% rural), more than "
    "synth.useful_frac's readings, as a scan keeps at most 7 (from BENCH_17.json on)",
    "build_s sums a separate best-of for each BUILD_PARTS entry: best of 60 on the histogram "
    "workloads but best of 1 (GP_BUILD_REPS) on rural-gp, so rural-gp build_s carries the GP "
    "fit's whole run-to-run spread (parent medians 0.55-0.67 s in the pairs CHANGES.md quotes "
    "next to BENCH_31.json to BENCH_33.json)",
    "rural-gp peak_rss_mb (about 160 MB) includes the about 69 MB scipy.stats import of the "
    "first gp_locate",
]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(checkout: Path, workload: str) -> dict:
    """One benchmark run of ``workload`` from ``checkout``: run record and result."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    *_, run_record, result = proc.stdout.strip().splitlines()
    return {**json.loads(run_record), **json.loads(result)}


def _import_cost() -> tuple[float, float]:
    """Median wall time (s) and peak RSS (MB) of fresh processes that import gsmloc."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times, rss_mb = [], []
    for _ in range(IMPORT_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        times.append(time.perf_counter() - start)
        rss_mb.append(int(proc.stdout) / 1024.0)
    return round(statistics.median(times), 4), round(statistics.median(rss_mb), 1)


def _public_options() -> int:
    """Parameters with a default over the functions and classes ``gsmloc`` exports."""
    sys.path.insert(0, str(ROOT / "src"))
    import gsmloc

    count = 0
    for name, obj in vars(gsmloc).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # exception classes have no signature
            continue
        count += sum(p.default is not p.empty for p in params)
    return count


def record(out: Path) -> int:
    workloads = {}
    for workload in (w["name"] for w in _spec()["workloads"]):
        workloads[workload] = _run(ROOT, workload)
        print(f"{workload}: correct={workloads[workload]['correct']} "
              f"failed={workloads[workload]['failed']}", flush=True)
    import_s, import_rss_mb = _import_cost()
    bench = {
        "command": f"benchmark/run.py --seed {SEED} --seconds {SECONDS}",
        "src_lines": next(iter(workloads.values()))["run_record"]["src_lines"],
        "public_options": _public_options(),
        "import_s": import_s,
        "import_rss_mb": import_rss_mb,
        "notes": BLIND_SPOTS,
        "workloads": workloads,
    }
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(old_path: Path, new_path: Path) -> int:
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (old_path, new_path))
    end_to_end = _spec()["end_to_end"]
    for key in ("src_lines", "public_options", "import_s", "import_rss_mb"):
        print(f"{key} {old.get(key, 'n/a')} -> {new.get(key, 'n/a')}")
    worse = 0
    for workload, after in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in {old_path}")
            continue
        if after["correct"] is not True or _failed_share([after]) > _failed_share([before]):
            worse += 1
            print(f"{workload}: GATE correct={after['correct']} failed={after['failed']}")
        for metric in end_to_end:
            a = before["metrics"][metric["name"]]["value"]
            b = after["metrics"][metric["name"]]["value"]
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "WORSE" if change > metric["bound"] else ""
            worse += bool(flag)
            print(f"{workload:12s} {metric['name']:14s} {a:10.4g} -> {b:10.4g} "
                  f"{change:+7.1%} (bound {metric['bound']:.0%}) {flag}")
    return 1 if worse else 0


def pair(parent: Path, out: Path, pairs: int, workloads: list[str]) -> int:
    spec = _spec()
    runs: dict[str, dict[str, list[dict]]] = {}
    for workload in workloads:
        runs[workload] = {"parent": [], "change": []}
        for k in range(pairs):
            sides = (("parent", parent), ("change", ROOT))
            for side, checkout in sides if k % 2 == 0 else sides[::-1]:
                runs[workload][side].append(_run(checkout, workload))
            print(f"{workload}: pair {k + 1}/{pairs} done", file=sys.stderr, flush=True)
    out.write_text(json.dumps({
        "command": f"benchmark/run.py --seed {SEED} --seconds {SECONDS}",
        "parent": str(parent), "pairs": pairs, "workloads": runs,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    worse = 0
    print(f"{'workload':12s} {'metric':14s} {'parent':>10s} {'change':>10s} {'change':>8s} "
          f"{'IQR/med':>8s} {'wins':>6s} {'bound':>6s}")
    for workload, sides in runs.items():
        before, after = sides["parent"], sides["change"]
        if (any(r["correct"] is not True for r in after)
                or _failed_share(after) > _failed_share(before)):
            worse += 1
            print(f"{workload}: GATE correct={[r['correct'] for r in after]} "
                  f"failed={[r['failed'] for r in after]}")
        for metric in spec["end_to_end"]:
            a = [r["metrics"][metric["name"]]["value"] for r in before]
            b = [r["metrics"][metric["name"]]["value"] for r in after]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a_med, b_med = statistics.median(a), statistics.median(b)
            change = sign * (b_med - a_med) / a_med
            q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
            spread = (q3 - q1) / a_med
            wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
            separated = max(sign * y for y in b) < min(sign * x for x in a)
            flag = ("WORSE" if change > metric["bound"]
                    else "UNRESOLVED" if spread > metric["bound"] and not separated else "")
            worse += flag == "WORSE"
            print(f"{workload:12s} {metric['name']:14s} {a_med:10.4g} {b_med:10.4g} "
                  f"{change:+8.1%} {spread:8.1%} {wins:>3d}/{len(a):<2d} "
                  f"{metric['bound']:6.0%} {flag}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    workloads = [w["name"] for w in _spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("out", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p = sub.add_parser("pair")
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("out", type=Path, help="JSON file for every run of both sides")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--workload", action="append", choices=workloads,
                   help="run only this workload (repeatable)")
    args = parser.parse_args(argv)
    if args.command == "run":
        return record(args.out)
    if args.command == "pair":
        if args.pairs < 2:
            parser.error("--pairs must be at least 2")
        return pair(args.parent.resolve(), args.out, args.pairs,
                    list(dict.fromkeys(args.workload or workloads)))
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
