"""Run every workload over many seeds and summarise, optionally as the baseline.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--write]

For every workload it runs SETS sets of ``bench/run.py`` with tracing off, one
run per seed and SEEDS seeds per set (a new seed every run), then TRACED runs
with tracing on.  It prints
every metric with its unit: per set the median, the quartiles and the spread
(interquartile range over the median, what BENCHMARK.json bounds), then the
drift of the second set's median from the first.  failed_frac is the failed
ops over the attempted ops of all runs.  With --write the summary becomes
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = 10   # runs per set, one seed each
SETS = 2     # sets of untraced runs; the drift compares the last with the first
TRACED = 1   # traced runs per workload


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, record


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="write bench/baseline.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = {"benchmark": bench["command"], "run_seconds": seconds, "workloads": {}}
    provenance = None
    for workload in workloads.WORKLOADS:
        sets = []
        attempted = failed = 0
        for k in range(SETS):
            values = {}
            for seed in range(1000 * (k + 1), 1000 * (k + 1) + SEEDS):
                last, record = run_once(workload, seed, seconds, 0)
                provenance = record["provenance"]
                if not last["correct"]:
                    print(f"  {workload} seed {seed}: wrong answers: {record['failures'][:3]}")
                for note in record["notes"]:
                    print(f"  {workload} seed {seed}: note: {note}")
                attempted += last["attempted"]
                failed += last["failed"]
                for name, m in record["metrics"].items():
                    if name != "failed_frac":
                        values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            summary = {name: {**summarise(v), "unit": unit} for name, (v, unit) in values.items()}
            sets.append(summary)
            print(f"{workload} set {k + 1} ({SEEDS} seeds):")
            for name, s in summary.items():
                bound = bounds.get(name)
                flag = "" if bound is None or s["spread"] is None else (
                    "  OVER BOUND" if s["spread"] > bound else
                    "  over bound/3" if s["spread"] > bound / 3 else "")
                print(f"  {name} = {s['median']:.6g} {s['unit']} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]"
                      f" spread {s['spread']:.3f}" + (f" (bound {bound})" if bound else "") + flag)
        entry = {"sets": sets, "failed_frac": failed / attempted if attempted else 0.0,
                 "attempted": attempted, "failed": failed}
        print(f"  failed_frac = {entry['failed_frac']:.6g} ({failed}/{attempted} ops)")
        if len(sets) > 1:
            drift = {}
            for name, first in sets[0].items():
                drift[name] = sets[-1][name]["median"] / first["median"] - 1.0 if first["median"] else None
                if drift[name] is not None:
                    bound = bounds.get(name)
                    print(f"  {name} drift between sets {drift[name]:+.3f}"
                          + (f" (bound {bound})" + ("  OVER BOUND" if drift[name] > bound else "")
                             if bound else ""))
            entry["drift"] = drift
        traced = {}
        for seed in range(1, TRACED + 1):
            last, _ = run_once(workload, seed, seconds, 1)
            for name, m in last["metrics"].items():
                traced.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        if traced:
            entry["per_layer"] = {name: {"median": statistics.median(v), "unit": unit, "n": len(v)}
                                  for name, (v, unit) in traced.items()}
            print(f"{workload} traced ({TRACED} runs, medians):")
            for name, m in entry["per_layer"].items():
                print(f"  {name} = {m['median']:.6g} {m['unit']}")
        out["workloads"][workload] = entry
    out["provenance"] = provenance
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")


if __name__ == "__main__":
    main()
