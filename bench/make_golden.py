"""Record the golden residual texts of the --corrupt mutation controls.

Usage, from the root of a checkout:  python3 bench/make_golden.py

Runs every mutation control verify-residual can draw (each (flavor, N) of
MUTATION_CONTROLS, every label I<ij> with i <= j) through the CLI and writes
the failing checks of each, in report order, to bench/golden.json.  The
benchmark compares later runs with these texts, so regenerate them only when
a change to the printed canonical form is intended.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    program, _ = workloads.load_program(str(HERE.parent))
    residuals = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for flavor, n in workloads.MUTATION_CONTROLS:
            for label in workloads.corrupt_labels(n):
                rc = program.cli.main(["verify", "--dim", str(n), "--flavor", flavor,
                                       "--corrupt", label, "--out", out, "--no-timestamp"])
                with open(out) as fh:
                    rep = json.load(fh)
                if rc != 1:
                    raise SystemExit(f"{flavor} N={n} {label}: mutation control exited {rc}")
                residuals[f"{flavor}/{n}/{label}"] = [
                    {"lhs": c["lhs"], "rhs": c["rhs"], "residual": c["residual"]}
                    for c in rep["checks"] if not c["commutator_zero"]
                ]
    path = HERE / "golden.json"
    path.write_text(json.dumps({"residuals": residuals}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(residuals)} mutation controls to {path}")


if __name__ == "__main__":
    main()
