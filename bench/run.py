"""darboux3 benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the op lists and their checks):

  verify-zero      verify with the default parts for schrodinger, tlb and tpdm
                   at N=2 and N=3, one N=3 op with --similarity; every check
                   must be identically zero.  The exact ring and operator
                   layers do the work.
  verify-residual  --corrupt mutation controls against golden residual text,
                   parse -> str -> parse round trips of seeded expressions and
                   the two README examples: the same engine where the
                   canonical form is printed and compared.
  numerics         seeded spectrum (Q-form, some exporting wave functions),
                   spectrum --flavor all, classical, threshold accumulation and
                   figures 1-5: spectra, model, classical and reports work,
                   the algebra is idle.

Every op is an in-process ``darboux3.cli.main(argv)`` call with --out in a
temporary directory under bench/out (threshold accumulation and parsing have
no CLI command and are called directly), one after another from one client.
The program is imported from ``src/`` of the checkout; there is nothing to
build.  --seconds is the budget the op lists are sized to: the lists are fixed
by the workload, so a slower program takes longer rather than doing less.

The process is pinned to one CPU and a reference clock thread runs beside the
set-up probes and the op list (reference.py).  Raw timings on a shared host
spread by 10-30% from run to run; timings against the reference clock spread
by 1-3%.  wall_s and setup_s are therefore CPU seconds converted to seconds at
the nominal speed of the reference clock.  CPU time leaves out time the
program spends blocked; program_share and ref_interference (below) show when
that, or the program slowing the clock down, would bias the figures.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       time to finish the op list: CPU seconds of the process (all
               threads and waited-for children) minus the reference thread's,
               at the nominal speed
  setup_s      process start to first op ready (imports + one warm-up op whose
               inputs are outside the timed set): median CPU seconds of
               SETUP_SAMPLES fresh interpreters, at the nominal speed
  peak_rss_mb  peak resident memory of the benchmark process
and prints failed_frac, the raw cpu_s, elapsed_s and setup_elapsed_s, the
clock's diagnostics (ref_unit_ms, program_share, ref_interference), and on
numerics the latency percentiles per op kind (raw CPU milliseconds of the op
thread).  A note is printed, and kept in the result file, when the program's
share of the CPU drops below MIN_PROGRAM_SHARE (it blocked), when
ref_interference falls outside the outlier fences of the workload's baseline
(bench/baseline.json), or when the op list takes longer than --seconds.

--trace 1 runs the op list with spans recorded at every layer boundary
(tracing.py) and reports the per-layer metrics in raw CPU seconds of the op
thread; trace.overhead_frac compares its wall_s with that of an untraced run
of the same seed in a separate process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (provenance, input digest,
sample counts, failures) goes to bench/out/result-<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceClock  # noqa: E402

SETUP_SAMPLES = 3
MIN_PROGRAM_SHARE = 0.45   # an op list that never blocks gets about one half
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def pin_to_one_cpu():
    """Pin this process (and the processes it starts) to one CPU, with native
    thread pools capped at one thread, so the workload and the reference
    clock share a core."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(allowed), cpu, {var: 1 for var in THREAD_VARS}


# -- provenance --------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(nproc, cpu, caps):
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "thread_caps": caps,
        "load": "closed loop, one client, one process; reference clock thread on the same CPU",
    }


# -- measurement ---------------------------------------------------------------


def measure_setup(workload, workdir):
    """Interpreter start to first op ready in fresh processes, run beside the
    reference clock: returns (elapsed seconds, CPU seconds) per sample."""
    elapsed, cpu = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(ROOT), workload, workdir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            elapsed.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        cpu.append(float(line[1]))
    return elapsed, cpu


def untraced_wall(args):
    """wall_s of an untraced run of the same workload and seed, in a child."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["wall_s"]["value"]


def run_ops(program, ops, workdir, clock, tracer=None):
    """Run the op list in a closed loop beside the reference clock.

    Returns (per-op CPU seconds of this thread, outputs).
    """
    latencies, outputs = [], []
    sink = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with clock:
            for index, op in enumerate(ops):
                t0 = time.thread_time()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        out = workloads.run_op(op, program, workdir, index)
                    except Exception:  # a crashing op is a failed op, not a crashed run
                        out = {"error": traceback.format_exc(limit=3)}
                latencies.append(time.thread_time() - t0)
                outputs.append(out)
    finally:
        if tracer is not None:
            tracer.remove()
    return latencies, outputs


def clock_notes(workload, clock):
    """Warnings that the reference clock may misread this run."""
    notes = []
    if clock.program_share < MIN_PROGRAM_SHARE:
        notes.append(f"the program used {clock.program_share:.2f} of the CPU time: it blocked "
                     "(slept or waited) for part of the run, and that time is not in wall_s")
    try:
        base = json.loads((HERE / "baseline.json").read_text())
        typical = base["workloads"][workload]["sets"][0]["ref_interference"]
    except (OSError, KeyError, ValueError):
        return notes
    # the solo cost is sampled over a fraction of a second, so one run's
    # figure is noisy (quartiles about -0.15 and +0.15): a run is flagged only
    # beyond the baseline's outlier fences, 1.5 interquartile ranges out
    iqr = typical["q3"] - typical["q1"]
    low, high = typical["q1"] - 1.5 * iqr, typical["q3"] + 1.5 * iqr
    if not low <= clock.interference <= high:
        notes.append(f"the reference unit cost {clock.interference:+.3f} more beside the workload "
                     f"than alone, outside [{low:+.3f}, {high:+.3f}] from the baseline: the "
                     "program changes the clock, so wall_s is biased")
    return notes


def percentile(values, q):
    """Nearest-rank percentile: ceil(q*n)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


# numerics latency metrics: (name, op kind, quantile)
LATENCIES = (
    ("spectrum_p50_ms", "spectrum", 0.5),
    ("spectrum_p90_ms", "spectrum", 0.9),
    ("isospectral_p50_ms", "isospectral", 0.5),
    ("classical_p50_ms", "classical", 0.5),
)


def kind_latencies(ops, latencies):
    """Latency metrics per op kind, with their sample counts."""
    by_kind = {}
    for op, t in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).append(t)
    out = {}
    for name, kind, q in LATENCIES:
        if kind in by_kind:
            values = by_kind[kind]
            value = statistics.median(values) if q == 0.5 else percentile(values, q)
            out[name] = (1e3 * value, "ms", len(values))
    if "threshold" in by_kind:
        out["threshold_s"] = (by_kind["threshold"][0], "s", 1)
    return out


# -- main --------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    nproc, cpu, caps = pin_to_one_cpu()
    ops = workloads.generate(args.workload, args.seed)
    digest = workloads.inputs_digest(ops)
    OUT.mkdir(exist_ok=True)
    try:
        if workloads.WARMUP[args.workload] in {op.argv for op in ops}:
            raise RuntimeError("the warm-up op is in the timed set")
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            if args.trace == 0:
                setup_clock = ReferenceClock(workloads.REFERENCE_UNIT[args.workload])
                with setup_clock:
                    setup_elapsed, setup_cpu = measure_setup(args.workload, workdir)
            else:
                reference = untraced_wall(args)
            program, import_s = workloads.load_program(str(ROOT))
            golden = json.loads((HERE / "golden.json").read_text())
            workloads.warm_up(program, args.workload, workdir)
            clock = ReferenceClock(workloads.REFERENCE_UNIT[args.workload])
            tracer = tracing.Tracer() if args.trace == 1 else None
            latencies, outputs = run_ops(program, ops, workdir, clock, tracer)
            checks = [workloads.check_op(op, out, golden) for op, out in zip(ops, outputs)]
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    failed = sum(not ok for ok, _, _ in checks)
    correct = not any(wrong for _, wrong, _ in checks)
    failures = [f"{op.kind} {' '.join(op.argv) or json.dumps(op.params)}: {msg}"
                for op, (ok, _, msg) in zip(ops, checks) if not ok]
    wall_s = clock.seconds()
    report = {
        "failed_frac": (failed / len(ops), "frac", len(ops)),
        "cpu_s": (clock.program_cpu_s, "s", 1),
        "elapsed_s": (clock.elapsed_s, "s", 1),
        "ref_unit_ms": (1e3 * clock.unit_cpu_s, "ms", clock.units),
        "program_share": (clock.program_share, "frac", 1),
        "ref_interference": (clock.interference, "frac", 1),
    }
    notes = clock_notes(args.workload, clock)
    if clock.elapsed_s > args.seconds:
        notes.append(f"the op list took {clock.elapsed_s:.1f} s, more than the {args.seconds} s budget")
    if args.trace == 0:
        metrics = {
            "wall_s": (wall_s, "s", 1),
            "setup_s": (setup_clock.seconds(statistics.median(setup_cpu)), "s", len(setup_cpu)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        report["setup_elapsed_s"] = (statistics.median(setup_elapsed), "s", len(setup_elapsed))
        report.update(kind_latencies(ops, latencies))
    else:
        metrics = {name: (value, unit, None) for name, (value, unit) in tracer.metrics().items()}
        metrics["setup.import_s"] = (import_s, "s", None)
        metrics["trace.overhead_frac"] = (wall_s / reference - 1.0, "frac", None)
        tracer.write_spans(OUT / f"spans-{args.workload}.npz")
        report["traced_wall_s"] = (wall_s, "s", 1)
        report["untraced_wall_s"] = (reference, "s", 1)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "budget_s": args.seconds,
        "inputs_sha256": digest,
        "ops": len(ops),
        "provenance": provenance(nproc, cpu, caps),
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "absent": tracer.absent if tracer is not None else [],
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in {**metrics, **report}.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(ops)} ops, "
          f"inputs sha256 {digest[:16]}, python {record['provenance']['python']}, "
          f"threads {caps}")
    for name, (value, unit, n) in {**metrics, **report}.items():
        print(f"  {name} = {value:.6g} {unit}" + (f" (n={n})" if n and n > 1 else ""))
    for line in failures[:10]:
        print(f"  failed: {line}")
    if record["absent"]:
        print(f"  absent: {', '.join(record['absent'])}")
    for line in notes:
        print(f"  note: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
