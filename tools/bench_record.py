"""Record the benchmark's end-to-end metrics as one BENCH file, or compare two.

Run from the repository root:

    python3 tools/bench_record.py run BENCH_<n>.json
    python3 tools/bench_record.py compare BENCH_old.json BENCH_new.json

``run`` runs ``benchmark/run.py --seed 0 --seconds 6`` once per workload
listed in ``BENCHMARK.json`` and writes each run record, gate result and
end-to-end metrics, plus the ``src/`` line count and the benchmark's known
blind spots.  ``compare`` prints, per workload and end-to-end metric, the
change from the first file to the second, signed so that positive is worse,
and flags every change beyond the metric's bound.  One run per side is not
enough to tell a change within the run-to-run spread from noise.  It exits
1 when a metric passes its bound or a run fails its gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 6

BLIND_SPOTS = [
    "gp.lml_evals reports towers x 45 candidates, not the factorizations the fit runs",
    "urban-track setup_s has an IQR/median of about 0.28 over ten runs, wider than its 0.25 bound",
    "radiomap.mean_asu_s and radiomap.point_arrays_s time plain accessors: the map builds "
    "those arrays at construction, so their work is in radiomap.build_s",
]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def record(out: Path) -> int:
    workloads = {}
    for workload in (w["name"] for w in _spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", str(SECONDS)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        *_, run_record, result = proc.stdout.strip().splitlines()
        workloads[workload] = {**json.loads(run_record), **json.loads(result)}
        print(f"{workload}: correct={workloads[workload]['correct']} "
              f"failed={workloads[workload]['failed']}", flush=True)
    bench = {
        "command": f"benchmark/run.py --seed {SEED} --seconds {SECONDS}",
        "src_lines": next(iter(workloads.values()))["run_record"]["src_lines"],
        "notes": BLIND_SPOTS,
        "workloads": workloads,
    }
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def compare(old_path: Path, new_path: Path) -> int:
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (old_path, new_path))
    end_to_end = _spec()["end_to_end"]
    print(f"src_lines {old['src_lines']} -> {new['src_lines']}")
    worse = 0
    for workload, after in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in {old_path}")
            continue
        if after["correct"] is not True or after["failed"] > before["failed"]:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("out", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return record(args.out)
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
