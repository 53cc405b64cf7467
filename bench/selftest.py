"""Self-test of the benchmark's output checks: a wrong answer must count as failed.

Usage, from the root of a checkout:  python3 bench/selftest.py

Runs a few small ops through the same run_op/check_op path the benchmark
uses, then checks each one against an expectation that is known to be wrong
(or against output that was altered after the run).  Every such case must
come back failed and wrong; the unaltered controls must pass.  It also feeds
the tracer's eigensolver counter results selected by index and by value.
Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _edit_json(path, edit):
    data = json.loads(Path(path).read_text())
    edit(data)
    Path(path).write_text(json.dumps(data))


def main():
    program, _ = workloads.load_program(str(HERE.parent))
    golden = json.loads((HERE / "golden.json").read_text())
    results = []

    def expect(name, op, out, golden_data, should_pass):
        ok, wrong, msg = workloads.check_op(op, out, golden_data)
        good = (ok and not wrong) if should_pass else (not ok and wrong)
        results.append(good)
        verdict = "pass" if ok else ("wrong" if wrong else "failed")
        print(f"{'ok  ' if good else 'BAD '} {name}: checker says {verdict}" + (f" ({msg})" if msg else ""))

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        corrupt_argv = ("verify", "--dim", "2", "--flavor", "schrodinger", "--corrupt", "I11")
        corrupt = Op("corrupt", corrupt_argv, {"flavor": "schrodinger", "N": 2, "label": "I11"})
        out = workloads.run_op(corrupt, program, tmp, 0)
        expect("mutation control against its golden residuals", corrupt, out, golden, True)
        as_zero = Op("verify", corrupt_argv, {"flavor": "schrodinger", "N": 2})
        expect("mutation control expected to exit 0", as_zero, out, golden, False)
        bad_golden = copy.deepcopy(golden)
        bad_golden["residuals"]["schrodinger/2/I11"][0]["residual"] += " + 1"
        expect("mutation control against altered golden text", corrupt, out, bad_golden, False)

        spec = Op("spectrum", ("spectrum", "--dim", "3", "--l", "1", "--lambda", "0.02"),
                  {"N": 3, "l": 1, "lambda": "0.02", "omega": "1.0", "wavefunctions": False})
        out = workloads.run_op(spec, program, tmp, 1)
        expect("spectrum as computed", spec, out, golden, True)

        wrong_omega = Op("spectrum", spec.argv, {**spec.params, "omega": "1.1"})
        expect("spectrum checked against other parameters", wrong_omega, out, golden, False)

        def shift_level(rep):
            rep["levels"][2]["E_numeric"] *= 1.001
        _edit_json(out["stem"] + ".json", shift_level)
        expect("spectrum level moved off the closed form, exit 0 kept", spec, out, golden, False)

        cls = Op("classical", ("classical", "--dim", "2", "--seed", "3"), {"N": 2, "seed": 3})
        out = workloads.run_op(cls, program, tmp, 2)
        expect("classical as computed", cls, out, golden, True)
        _edit_json(out["stem"] + ".json", lambda rep: rep.update(independence_rank=2))
        expect("classical rank deficit with exit 0", cls, out, golden, False)

        thr = Op("threshold", (), {"N": 3, "lambda": 0.02, "l": 0})
        stages = [{"q_max": 1.0, "m": 100, "count_below_threshold": c, "top_resolved": 24.0,
                   "gaps_decreasing": True} for c in (27, 42, 63)]
        expect("threshold counts off by one", thr, {"stages": stages}, golden, False)

        rt = Op("roundtrip", (), {"text": "q1*p1", "N": 2})
        expect("round trip that does not return its input", rt,
               {"text": "q1*p1", "equal": False}, golden, False)
        readme = Op("readme", (), {"text": "q1*p1 - p1*q1", "N": 2, "expected": "(i*hbar)"})
        out = workloads.run_op(readme, program, tmp, 3)
        expect("README example as printed", readme, out, golden, True)
        expect("README example against other text", readme, {"text": "(-i*hbar)"}, golden, False)

    # the eigensolver counter counts the levels computed whichever way they
    # are selected: by index, by value (the count is not in the arguments)
    # or positionally
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    diag, off = np.arange(1.0, 41.0), np.full(39, 0.5)
    calls = (
        ("by index", (diag, off), {"select": "i", "select_range": (0, 5), "eigvals_only": True}),
        ("by value", (diag, off), {"select": "v", "select_range": (0.0, 10.5), "eigvals_only": True}),
        ("by value with vectors", (diag, off), {"select": "v", "select_range": (0.0, 10.5)}),
        ("positionally", (diag, off, True, "i", (2, 4)), {}),
    )
    for name, args, kwargs in calls:
        tracer = tracing.Tracer()
        result = eigh_tridiagonal(*args, **kwargs)
        tracing.HOOKS["spectra.eigh"](tracer, args, kwargs, result)
        values = result[0] if isinstance(result, tuple) else result
        got = tracer.counters["spectra.eigh.levels_requested"]
        good = got == len(values)
        results.append(good)
        print(f"{'ok  ' if good else 'BAD '} eigensolver levels counted {name}: {got} of {len(values)}")

    print(f"{sum(results)}/{len(results)} cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
