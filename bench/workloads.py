"""Seeded op lists for the three workloads, and the check of every op's output.

An op is one call a user makes: a ``darboux3.cli.main(argv)`` call, or a
direct library call where the CLI has no command (threshold accumulation,
operator parsing).  Each workload has a fixed composition; the seed draws the
parameters (and on numerics the order), so the amount of work is the same on
every seed and no op repeats its inputs within one process.

Checking an op gives two answers.  ``ok`` is false when the op failed: it
exited 1, or its output did not pass the check.  ``wrong`` is true when the
output disagrees with what the checker knows independently: an exit code the
theorem or the golden residual rules out, a level that does not match the
closed form the CLI claims it matches, a broken round trip, malformed output.
A tolerance miss that the CLI reports with exit 1 is a failed op, not a wrong
answer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

WORKLOADS = ("verify-zero", "verify-residual", "numerics")

FLAVORS = ("schrodinger", "tlb", "tpdm")
SPECTRUM_TOLERANCE = 1e-5      # the CLI's tolerance against the closed form
ISOSPECTRAL_TOLERANCE = 1e-8   # pairwise agreement the CLI requires
DRIFT_TOLERANCE = 1e-7
SPECTRUM_OPS = 100             # >= 100 so the p90 has >= 10 samples beyond it
WAVEFUNCTION_OPS = 5           # 5%, so the slower exports stay above the p90
ISOSPECTRAL_OPS = 10
CLASSICAL_OPS_PER_DIM = 1
ROUNDTRIP_OPS = 600
SIMILARITY_CHECKS = 7
THRESHOLD_COUNTS = [27, 42, 64]
# (flavor, N) of the --corrupt ops: every flavor at N=2 and schrodinger at
# N=3; tlb and tpdm at N=3 would cost as much as verify-zero
MUTATION_CONTROLS = (("schrodinger", 2), ("tlb", 2), ("tpdm", 2), ("schrodinger", 3))
LABELS_PER_CONTROL = 2
README_EXAMPLES = (
    ("q1*p1 - p1*q1", 2, "(i*hbar)"),
    ("p1*D^-1", 2, "(1)/D*p1 + (2*i*q1*lambda*hbar)/D^2"),
)

# The kind of reference unit (reference.UNITS) whose work is most like the
# workload's: the verify workloads are exact rational arithmetic, numerics is
# floating point.
REFERENCE_UNIT = {"verify-zero": "exact", "verify-residual": "exact", "numerics": "numeric"}

# One op per workload before timing starts, with inputs outside every timed set.
WARMUP = {
    "verify-zero": ("verify", "--dim", "2", "--flavor", "schrodinger", "--parts", "sl2"),
    "verify-residual": ("verify", "--dim", "2", "--flavor", "schrodinger", "--parts", "sl2"),
    "numerics": ("spectrum", "--dim", "2", "--l", "1", "--lambda", "0.001", "--levels", "2"),
}


@dataclass
class Op:
    kind: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)

    def key(self):
        return json.dumps([self.kind, list(self.argv), self.params], sort_keys=True)


def corrupt_labels(n):
    return [f"I{i}{j}" for i in range(1, n + 1) for j in range(i, n + 1)]


def _fmt(x):
    return repr(round(x, 6))


def generate(workload, seed):
    """The op list of one workload for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    if workload == "verify-zero":
        # --similarity adds the flavor-independent similarity suite to one of
        # the N=3 ops, so the set of checks is the same on every seed
        sim = rng.choice(FLAVORS)
        for flavor in FLAVORS:
            for n in (2, 3):
                argv = ("verify", "--dim", str(n), "--flavor", flavor)
                if n == 3 and flavor == sim:
                    argv += ("--similarity",)
                ops.append(Op("verify", argv, {"flavor": flavor, "N": n}))
    elif workload == "verify-residual":
        for flavor, n in MUTATION_CONTROLS:
            for label in rng.sample(corrupt_labels(n), LABELS_PER_CONTROL):
                ops.append(Op("corrupt", ("verify", "--dim", str(n), "--flavor", flavor,
                                          "--corrupt", label),
                              {"flavor": flavor, "N": n, "label": label}))
        seen = {(t, n) for t, n, _ in README_EXAMPLES}
        for k in range(ROUNDTRIP_OPS):
            rounds, j = divmod(k, len(EXPRESSION_TEMPLATES))
            template, n = EXPRESSION_TEMPLATES[j], 2 + rounds % 2
            for _ in range(1000):
                text = fill_template(rng, template, n)
                if (text, n) not in seen:
                    break
            else:
                raise RuntimeError(f"no new expression of shape {template!r}")
            seen.add((text, n))
            ops.append(Op("roundtrip", (), {"text": text, "N": n}))
        for text, n, expected in README_EXAMPLES:
            ops.append(Op("readme", (), {"text": text, "N": n, "expected": expected}))
    elif workload == "numerics":
        export = set(rng.sample(range(SPECTRUM_OPS), WAVEFUNCTION_OPS))
        for k in range(SPECTRUM_OPS):
            # N is 3 or 4: N=2, l=0 has a potential unbounded below and
            # exits 1 by design
            p = {"N": rng.choice((3, 4)), "l": rng.randrange(7),
                 "lambda": _fmt(rng.uniform(0.005, 0.04)), "omega": _fmt(rng.uniform(0.8, 1.2)),
                 "wavefunctions": k in export}
            argv = ("spectrum", "--dim", str(p["N"]), "--l", str(p["l"]),
                    "--lambda", p["lambda"], "--omega", p["omega"])
            ops.append(Op("spectrum", argv, p))
        for _ in range(ISOSPECTRAL_OPS):
            p = {"N": rng.choice((3, 4)), "l": rng.randrange(7),
                 "lambda": _fmt(rng.uniform(0.005, 0.04)), "omega": _fmt(rng.uniform(0.8, 1.2))}
            argv = ("spectrum", "--flavor", "all", "--dim", str(p["N"]), "--l", str(p["l"]),
                    "--lambda", p["lambda"], "--omega", p["omega"])
            ops.append(Op("isospectral", argv, p))
        seeds = rng.sample(range(2**31), 3 * CLASSICAL_OPS_PER_DIM)
        for k, s in enumerate(seeds):
            n = 2 + k % 3
            ops.append(Op("classical", ("classical", "--dim", str(n), "--seed", str(s)),
                          {"N": n, "seed": s}))
        ops.append(Op("threshold", (), {"N": 3, "lambda": 0.02, "l": 0}))
        for which in range(1, 6):
            ops.append(Op("figure", ("figures", "--which", str(which)), {"which": which}))
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    keys = [op.key() for op in ops]
    if len(set(keys)) != len(keys):
        raise RuntimeError("generated op list repeats an input")
    return ops


def inputs_digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key().encode())
        h.update(b"\n")
    return h.hexdigest()


# -- seeded operator expressions (README grammar) ---------------------------

# The cost of a round trip depends mostly on the shape of the expression, so
# every seed parses each shape equally often and draws only the holes:
# {q} and {p} a coordinate or momentum of a random axis, {c} an integer 2-9,
# {s} a sign.  Division is only by integers and powers of D, as the grammar
# requires.
EXPRESSION_TEMPLATES = (
    "{c}*{q}*{p} {s} {p}*{q}",
    "{p}^2*D^-1 {s} {c}*{q}^2",
    "(({q} + {c}*hbar)*{p} {s} lambda*D)/{c}",
    "{p}*D^(-2)*({p} - {q}) {s} i*{c}",
    "D*({p} - {q}) {s} {c}*{p}^2*{q}^2",
    "{q}^2*{p}/D {s} {c}*omega*{p}",
    "hbar*D^-1*{p}^2 {s} {c}*lambda*{q}*{p}",
    "({p} + {q})^2 {s} D/{c}",
    "i*{p}*{q}*D^-1 {s} {p}*{q}/{c}",
    "{c}*{p}^2 {s} omega^2*{q}^2*D^-1",
)


def fill_template(rng, template, n):
    def hole(match):
        kind = match.group(1)
        if kind in "qp":
            return f"{kind}{rng.randrange(1, n + 1)}"
        return str(rng.randrange(2, 10)) if kind == "c" else rng.choice("+-")

    return re.sub(r"\{(\w)\}", hole, template)


# -- running ----------------------------------------------------------------


def load_program(root):
    """Import the program from ``root/src``; returns it and the import time."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from darboux3 import algebra, cli, model, spectra
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"darboux3 was imported from {cli.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, model=model, spectra=spectra, algebra=algebra), import_s


def warm_up(program, workload, workdir):
    """The op that makes the first timed op ready; its result is not checked."""
    program.cli.main(list(WARMUP[workload])
                     + ["--out", os.path.join(workdir, "warmup.json"), "--no-timestamp"])


def run_op(op, program, workdir, index):
    """Run one op; returns what its check needs (files are read later)."""
    if op.kind == "threshold":
        params = program.model.ModelParams(dim=op.params["N"], lam=op.params["lambda"])
        return {"stages": program.spectra.threshold_accumulation(params, op.params["l"])}
    if op.kind in ("roundtrip", "readme"):
        parse = program.algebra.parse
        try:
            first = parse(op.params["text"], op.params["N"])
            text = str(first)
            again = parse(text, op.params["N"]) if op.kind == "roundtrip" else None
        except ValueError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {"text": text, "equal": again == first if again is not None else None}
    stem = os.path.join(workdir, f"op{index:04d}")
    argv = list(op.argv)
    if op.kind == "figure":
        argv += ["--dir", stem]
    else:
        argv += ["--out", stem + ".json"]
    if op.params.get("wavefunctions"):
        argv += ["--wavefunctions", stem + "_wf.csv"]
    argv.append("--no-timestamp")
    return {"rc": program.cli.main(argv), "stem": stem}


# -- checking ---------------------------------------------------------------


def closed_form(n_dim, lam, omega, n):
    """E_n = -lambda nu^2 + nu sqrt(lambda^2 nu^2 + omega^2), nu = n + N/2 (hbar = 1)."""
    nu = n + n_dim / 2.0
    return -lam * nu * nu + nu * math.sqrt(lam * lam * nu * nu + omega * omega)


def expected_checks(n):
    """Checks the default parts (i, ii, sl2, conjugation) define at dimension N."""
    pairs = n * (n + 1) // 2
    part_i = 2 * (n - 1) + pairs + 1          # H vs C^(m), C_(m), I_ij, trace
    part_ii = 2 * math.comb(n - 1, 2) + math.comb(n, 2)
    return part_i + part_ii + 3 + pairs       # + sl2 + conjugation


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_op(op, out, golden):
    """(ok, wrong, message) for one op's output."""
    if "error" in out:
        return False, True, out["error"]
    try:
        return _CHECKS[op.kind](op, out, golden)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return False, True, f"unreadable output: {type(exc).__name__}: {exc}"


def _check_verify(op, out, golden):
    rep = _load(out["stem"] + ".json")
    want = expected_checks(op.params["N"])
    sims = rep.get("similarity_checks", [])
    if "--similarity" in op.argv and len(sims) != SIMILARITY_CHECKS:
        return False, True, f"{len(sims)} similarity checks, expected {SIMILARITY_CHECKS}"
    if len(rep["checks"]) != want:
        return False, True, f"{len(rep['checks'])} checks, expected {want}"
    nonzero = [c for c in rep["checks"] + sims if not c["commutator_zero"]]
    if out["rc"] != 0 or not rep["all_zero"] or nonzero:
        return False, True, f"exit {out['rc']}, {len(nonzero)} nonzero residuals"
    return True, False, ""


def _check_corrupt(op, out, golden):
    rep = _load(out["stem"] + ".json")
    p = op.params
    want = golden["residuals"][f"{p['flavor']}/{p['N']}/{p['label']}"]
    got = [{"lhs": c["lhs"], "rhs": c["rhs"], "residual": c["residual"]}
           for c in rep["checks"] if not c["commutator_zero"]]
    if out["rc"] != 1 or rep["all_zero"]:
        return False, True, f"mutation control exited {out['rc']}"
    if len(rep["checks"]) != expected_checks(p["N"]):
        return False, True, f"{len(rep['checks'])} checks"
    if got != want:
        return False, True, "residual text differs from the golden text"
    return True, False, ""


def _check_spectrum(op, out, golden):
    rep = _load(out["stem"] + ".json")
    p, k = op.params, 6
    worst = 0.0
    for lv in rep["levels"]:
        e = closed_form(p["N"], float(p["lambda"]), float(p["omega"]), lv["n"])
        if lv["n"] != 2 * lv["n_r"] + p["l"] or not math.isclose(lv["E_closed"], e, rel_tol=1e-12):
            return False, True, f"level {lv['n_r']}: E_closed {lv['E_closed']!r}, expected {e!r}"
        worst = max(worst, abs(lv["E_numeric"] - e) / abs(e))
    passes = len(rep["levels"]) == k and worst <= SPECTRUM_TOLERANCE
    if passes != (out["rc"] == 0):
        return False, True, f"exit {out['rc']} but max rel {worst:.3g} over {len(rep['levels'])} levels"
    if p.get("wavefunctions"):
        with open(out["stem"] + "_wf.csv") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["r"] + [f"phi_tlb_{j}" for j in range(len(rows[0]) - 1)] \
                or len(rows[0]) - 1 != len(rep["levels"]) or len(rows) - 1 != rep["grid"]["M"]:
            return False, True, "wave-function CSV has the wrong shape"
    if not passes:
        return False, False, f"exit 1: max rel {worst:.3g} over {len(rep['levels'])} levels"
    return True, False, ""


def _check_isospectral(op, out, golden):
    rep = _load(out["stem"] + ".json")
    p, k = op.params, 6
    closed = [closed_form(p["N"], float(p["lambda"]), float(p["omega"]), 2 * nr + p["l"])
              for nr in range(k)]
    if len(rep["levels_closed_form"]) != k or not all(
            math.isclose(a, b, rel_tol=1e-12) for a, b in zip(rep["levels_closed_form"], closed)):
        return False, True, "closed-form column differs"
    worst = max(abs(v - e) / abs(e) for vals in rep["levels"].values() for v, e in zip(vals, closed))
    flavors = list(rep["levels"])
    pair = max(abs(a - b) / abs(b) for x in range(3) for y in range(x + 1, 3)
               for a, b in zip(rep["levels"][flavors[x]], rep["levels"][flavors[y]]))
    passes = worst <= SPECTRUM_TOLERANCE and pair <= ISOSPECTRAL_TOLERANCE
    if sorted(flavors) != sorted(FLAVORS) or passes != (out["rc"] == 0):
        return False, True, f"exit {out['rc']} but closed rel {worst:.3g}, pairwise {pair:.3g}"
    if not passes:
        return False, False, f"exit 1: closed rel {worst:.3g}, pairwise {pair:.3g}"
    return True, False, ""


def _check_classical(op, out, golden):
    rep = _load(out["stem"] + ".json")
    n = op.params["N"]
    passes = rep["max_drift"] < DRIFT_TOLERANCE and rep["independence_rank"] == 2 * n - 1
    if rep["seed"] != op.params["seed"] or rep["params"]["N"] != n \
            or rep["initial_energy"] >= rep["threshold"] or passes != (out["rc"] == 0):
        return False, True, f"exit {out['rc']}, drift {rep['max_drift']:.3g}, rank {rep['independence_rank']}"
    if not passes:
        return False, False, f"exit 1: drift {rep['max_drift']:.3g}, rank {rep['independence_rank']}"
    return True, False, ""


# two-decimal landmarks of the five standard figures, and each curve's length
FIGURES = {
    1: (501, {("R_at_origin",): -1.2}),
    2: (601, {("U_infinity", "0.02"): 25.0, ("U_infinity", "0.04"): 12.5,
              ("U_infinity", "0.1"): 5.0}),
    3: (600, {("deformed", "r_min"): 3.49, ("deformed", "u_min"): 8.2,
              ("flat", "r_min"): 3.16, ("flat", "u_min"): 10.0}),
    4: (600, {("deformed", "r_min"): 3.59, ("deformed", "u_min"): 8.52,
              ("flat", "r_min"): 3.24, ("flat", "u_min"): 10.49}),
    5: (26, {("E0", "0.0"): 1.5, ("E0", "0.01"): 1.48, ("E0", "0.02"): 1.46,
             ("E0", "0.04"): 1.41}),
}


def _check_figure(op, out, golden):
    which = op.params["which"]
    rows, marks = FIGURES[which]
    stem = os.path.join(out["stem"], f"figure{which}")
    with open(stem + "_curve.csv") as fh:
        n_rows = sum(1 for _ in fh) - 1
    side = _load(stem + "_landmarks.json")["landmarks"]
    for path, value in marks.items():
        got = side
        for part in path:
            got = got[part]
        if round(got, 2) != value:
            return False, True, f"figure {which} landmark {'/'.join(path)} = {got!r}"
    if out["rc"] != 0 or n_rows != rows:
        return False, True, f"figure {which}: exit {out['rc']}, {n_rows} rows"
    return True, False, ""


def _check_threshold(op, out, golden):
    stages = out["stages"]
    counts = [s["count_below_threshold"] for s in stages]
    threshold = 1.0 / (2.0 * op.params["lambda"])
    if counts != THRESHOLD_COUNTS or not all(s["gaps_decreasing"] for s in stages) \
            or not all(s["top_resolved"] < threshold for s in stages):
        return False, True, f"counts {counts}, gaps {[s['gaps_decreasing'] for s in stages]}"
    return True, False, ""


def _check_roundtrip(op, out, golden):
    if not out["equal"]:
        return False, True, f"parse(str(x)) != x for {op.params['text']!r}"
    return True, False, ""


def _check_readme(op, out, golden):
    if out["text"] != op.params["expected"]:
        return False, True, f"printed {out['text']!r}"
    return True, False, ""


_CHECKS = {
    "verify": _check_verify,
    "corrupt": _check_corrupt,
    "spectrum": _check_spectrum,
    "isospectral": _check_isospectral,
    "classical": _check_classical,
    "figure": _check_figure,
    "threshold": _check_threshold,
    "roundtrip": _check_roundtrip,
    "readme": _check_readme,
}
