"""Command-line interface: verify / spectrum / classical / figures.

Exit codes are the single source of pass/fail truth: 0 on success, 1 when a
verification or tolerance fails, an output file cannot be written or the
floating-point arithmetic breaks down (say, --omega 1e-300, reported against
the most extreme scale flag), 2 on bad flags
(argparse's own convention).
Reports go to --out when given, otherwise to stdout; identical flags and seed
reproduce byte-identical output under --no-timestamp.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache, partial

import numpy as np

from . import classical as cl
from . import reports as rp
from . import spectra as sp
from .algebra import (
    FLAVORS,
    build_fradkin,
    corrupt_fradkin,
    similarity_checks,
    verify_theorem,
)
from .algebra.verify import ALL_PARTS, PART_READS_ENTRY, fradkin_label_indices
from .model import (
    ModelParams,
    classical_effective_minimum,
    classical_effective_potential,
    closed_form_energy,
    continuum_threshold,
    oscillator_potential,
    quantum_effective_minimum,
    quantum_effective_potential,
    scalar_curvature,
)

SPECTRUM_TOLERANCE = 1e-5
DRIFT_TOLERANCE = 1e-7


def _number(convert, test, what):
    """argparse type: ``convert`` the text, reject values failing ``test``.

    A rejected value is a bad flag (exit 2 with a usage message), never a
    traceback or a failed check.
    """
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_POSITIVE = _number(float, lambda x: 0 < x < float("inf"), "a positive finite number")
_NONNEGATIVE = _number(float, lambda x: 0 <= x < float("inf"), "a nonnegative finite number")
_DIM = _number(int, lambda n: n >= 2, "an integer >= 2")
_NONNEGATIVE_INT = _number(int, lambda n: n >= 0, "a nonnegative integer")
_POSITIVE_INT = _number(int, lambda n: n >= 1, "a positive integer")
_GRID = _number(int, lambda n: n >= 100, "an integer >= 100")


def _parts(text):
    """argparse type for --parts: a comma-separated subset of ALL_PARTS."""
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts or not set(parts) <= set(ALL_PARTS):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated subset of {','.join(ALL_PARTS)}"
        )
    return parts


@cache
def build_parser():
    """The argparse parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="darboux3",
        description="Curved-space oscillator verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="symbolic symmetry-algebra verification")
    v.add_argument("--dim", type=int, choices=(2, 3, 4, 5), default=3)
    v.add_argument("--flavor", choices=FLAVORS, default="schrodinger")
    v.add_argument(
        "--parts", type=_parts, default=",".join(ALL_PARTS),
        help=f"comma-separated subset of {','.join(ALL_PARTS)}",
    )
    v.add_argument("--similarity", action="store_true",
                   help="also run the similarity/adjoint identity suite")
    v.add_argument("--corrupt", default=None, metavar="LABEL",
                   help="drop the omega^2 term from one Fradkin entry, e.g. I11")
    v.set_defaults(parser=v)  # --corrupt is checked against --dim after parsing

    s = sub.add_parser("spectrum", help="radial bound states vs closed form")
    s.add_argument("--dim", type=_DIM, default=3)
    s.add_argument("--l", type=_NONNEGATIVE_INT, default=0)
    s.add_argument("--lambda", dest="lam", type=_NONNEGATIVE, default=0.02)
    s.add_argument("--omega", type=_POSITIVE, default=1.0)
    s.add_argument("--hbar", type=_POSITIVE, default=1.0)
    s.add_argument("--levels", type=_POSITIVE_INT, default=6)
    s.add_argument("--grid", type=_GRID, default=None,
                   help="finer grid M of the Richardson pair (M//2, M); default "
                        f"{sp.DEFAULT_GRID} cells, or {sp.ISOSPECTRAL_GRID} with --flavor all")
    s.add_argument("--qmax", type=_POSITIVE, default=None, help="override automatic box size")
    s.add_argument("--flavor", choices=(*FLAVORS, "all"), default="tlb")
    s.add_argument("--wavefunctions", default=None, metavar="PATH",
                   help="also export radial wave functions as CSV (r, phi_0..phi_k)")

    c = sub.add_parser("classical", help="trajectory drift, ranks, orbit closure")
    c.add_argument("--dim", type=_DIM, default=3)
    c.add_argument("--lambda", dest="lam", type=_NONNEGATIVE, default=0.02)
    c.add_argument("--omega", type=_POSITIVE, default=1.0)
    c.add_argument("--t-end", type=_POSITIVE, default=100.0)
    c.add_argument("--tolerance", type=_POSITIVE, default=1e-10)
    c.add_argument("--trajectory", default=None, metavar="PATH",
                   help="also export the sampled trajectory as CSV")

    f = sub.add_parser("figures", help="plot-ready curve data for figures 1-5")
    f.add_argument("--which", type=int, choices=(1, 2, 3, 4, 5), required=True)
    f.add_argument("--dir", default=".", help="output directory for CSV/JSON files")

    # each command takes only the flags it reads
    s.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--seed", type=int, default=0)
    for cmd in (v, s, c):
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
    for cmd in (v, s, c, f):
        cmd.add_argument("--no-timestamp", action="store_true")
    return parser


def _emit(args, report, csv_text=None):
    if csv_text is not None and args.format == "csv":
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
        return
    text = rp.dump_json(report, args.out)
    if args.out is None:
        sys.stdout.write(text)


def cmd_verify(args):
    fradkin = build_fradkin(args.flavor, args.dim)
    if args.corrupt is not None:
        fradkin = corrupt_fradkin(fradkin, args.corrupt)
    rep = verify_theorem(args.flavor, args.dim, parts=args.parts, fradkin=fradkin)
    body = rep.to_json()
    if args.corrupt is not None:
        body["corrupt"] = args.corrupt
    if args.similarity:
        sim = similarity_checks(args.dim)
        body["similarity_checks"] = [c.to_json() for c in sim]
        body["all_zero"] = body["all_zero"] and all(c.commutator_zero for c in sim)
    report = rp.make_report("verify", body, timestamp=not args.no_timestamp)
    _emit(args, report)
    return 0 if body["all_zero"] else 1


def _extreme_scale(args):
    """(flag, value) of the spectrum scale flag furthest from 1 in orders of
    magnitude: the one a floating-point breakdown is reported against."""
    scales = {"--lambda": args.lam, "--omega": args.omega, "--hbar": args.hbar, "--qmax": args.qmax}
    return max(((f, v) for f, v in scales.items() if v), key=lambda fv: abs(math.log10(fv[1])))


def cmd_spectrum(args):
    # numpy would warn and carry inf or nan into the eigensolver; stop at the
    # first overflow, division by zero or invalid value instead
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _spectrum(args)
    except ArithmeticError as exc:
        flag, value = _extreme_scale(args)
        raise ArithmeticError(f"{flag} {value:g} is out of range for floating point ({exc})") from None


def _spectrum(args):
    params = ModelParams(dim=args.dim, lam=args.lam, omega=args.omega, hbar=args.hbar)
    k = args.levels
    grid_m = {} if args.grid is None else {"m": args.grid}  # else each route's default
    if args.flavor == "all":
        iso = sp.isospectrality_check(params, args.l, k=k, **grid_m)
        closed = np.array([closed_form_energy(params, 2 * nr + args.l) for nr in range(k)])
        per_flavor = {fl: vals.tolist() for fl, vals in iso["levels"].items()}
        worst_closed = max(
            float(np.max(np.abs(vals - closed) / np.abs(closed)))
            for vals in iso["levels"].values()
        )
        body = {
            "params": {"N": params.dim, "lambda": params.lam, "omega": params.omega, "hbar": params.hbar},
            "l": args.l,
            "flavor": "all",
            "levels_closed_form": closed.tolist(),
            "levels": per_flavor,
            "pairwise_rel": iso["pairwise_rel"],
            "max_pairwise_rel": iso["max_pairwise_rel"],
            "max_rel_mismatch": worst_closed,
            "isospectral": iso["agree"],
        }
        report = rp.make_report("spectrum", body, timestamp=not args.no_timestamp)
        rows = [
            (nr, 2 * nr + args.l, body["levels_closed_form"][nr],
             *(per_flavor[fl][nr] for fl in FLAVORS))
            for nr in range(k)
        ]
        csv_text = rp.dump_csv(rows, ("n_r", "n", "E_closed", *FLAVORS))
        _emit(args, report, csv_text)
        ok = worst_closed <= SPECTRUM_TOLERANCE and iso["agree"]
        return 0 if ok else 1

    grid = (
        sp.GridSpec(q_max=args.qmax, **grid_m)
        if args.qmax
        else sp.default_grid(params, args.l, k=k, **grid_m)
    )
    problem = sp.RadialProblem(params, args.l, args.flavor, grid)
    if args.wavefunctions:
        r_nodes, phis, rep = sp.radial_wavefunctions(problem, k=k)
        cols = phis[args.flavor]
        header = ("r", *(f"phi_{args.flavor}_{j}" for j in range(cols.shape[0])))
        rp.dump_csv(np.column_stack([r_nodes, cols.T]).tolist(), header, args.wavefunctions)
    else:
        rep = sp.solve_bound_states(problem, k=k)
    body = rep.to_json()
    body["max_rel_mismatch"] = rep.max_rel_residual
    report = rp.make_report("spectrum", body, timestamp=not args.no_timestamp)
    csv_text = rp.dump_csv(rp.spectrum_csv_rows(rep.levels), rp.SPECTRUM_CSV_HEADER)
    _emit(args, report, csv_text)
    if len(rep.levels) < k:
        return 1
    return 0 if rep.max_rel_residual <= SPECTRUM_TOLERANCE else 1


def cmd_classical(args):
    params = ModelParams(dim=args.dim, lam=args.lam, omega=args.omega)
    rng = np.random.default_rng(args.seed)
    state = cl.random_state(params, rng, args.dim)
    record = cl.integrate(params, state, args.t_end, tolerance=args.tolerance)
    closure = cl.orbit_closure(params, state)
    names = cl.independence_names(args.dim)[1:]  # all but H itself
    brackets = {name: cl.poisson_bracket_with_h(params, name, state) for name in names}
    rank = cl.independence_rank(params, state)
    expected_rank = 2 * args.dim - 1
    body = {
        "params": {"N": params.dim, "lambda": params.lam, "omega": params.omega},
        "seed": args.seed,
        "initial_energy": cl.classical_hamiltonian(params, state),
        "threshold": continuum_threshold(params),
        "t_end": args.t_end,
        "integrator_tolerance": args.tolerance,
        "drift": record.drift,
        "max_drift": record.max_drift,
        "max_global_error": record.global_error,
        "poisson_brackets_with_H": brackets,
        "max_poisson_bracket": max(abs(v) for v in brackets.values()),
        "independence_rank": rank,
        "expected_rank": expected_rank,
        "closure": closure,
    }
    report = rp.make_report("classical", body, timestamp=not args.no_timestamp)
    _emit(args, report)
    if args.trajectory:
        rp.trajectory_csv(record, args.trajectory)
    ok = record.max_drift < DRIFT_TOLERANCE and rank == expected_rank
    return 0 if ok else 1


def _deformed_vs_flat(prefix, potential, minimum, arg):
    """Columns and landmarks of figures 3 and 4: an effective potential at
    lambda = 0.02 against the flat one, with the minimum of each."""
    deformed, flat = ModelParams(dim=3, lam=0.02), ModelParams(dim=3, lam=0.0)
    columns = {
        f"{prefix}_lambda_0.02": partial(potential, deformed, arg),
        f"{prefix}_lambda_0": partial(potential, flat, arg),
    }

    def landmarks():
        m1, m0 = minimum(deformed, arg), minimum(flat, arg)
        return {
            "deformed": {"r_min": m1.r_min, "u_min": m1.u_min,
                         "U_infinity": continuum_threshold(deformed)},
            "flat": {"r_min": m0.r_min, "u_min": m0.u_min},
        }

    return columns, landmarks


def _figure_table():
    """Per figure: x name, x values, {column name: f(x)}, landmarks()."""
    def at(lam):
        return ModelParams(dim=3, lam=lam)

    curved = at(0.1)
    potential_lams = (0.0, 0.02, 0.04, 0.06, 0.1)
    energy_lams = (0.0, 0.01, 0.02, 0.04)
    return {
        1: ("r", np.linspace(0.0, 10.0, 501).tolist(),
            {"R": partial(scalar_curvature, curved)},
            lambda: {"R_at_origin": scalar_curvature(curved, 0.0)}),
        2: ("r", np.linspace(0.0, 30.0, 601).tolist(),
            {f"U_lambda_{lam}": partial(oscillator_potential, at(lam)) for lam in potential_lams},
            lambda: {"U_infinity": {str(lam): continuum_threshold(at(lam))
                                    for lam in potential_lams}}),
        3: ("r", np.linspace(0.05, 30.0, 600).tolist(),
            *_deformed_vs_flat("U_eff", classical_effective_potential,
                               classical_effective_minimum, 100.0)),
        4: ("r", np.linspace(0.5, 30.0, 600).tolist(),
            *_deformed_vs_flat("Ueff_quantum", quantum_effective_potential,
                               quantum_effective_minimum, 10)),
        5: ("n", range(26),
            {f"E_lambda_{lam}": partial(closed_form_energy, at(lam)) for lam in energy_lams},
            lambda: {
                "E0": {str(lam): closed_form_energy(at(lam), 0) for lam in energy_lams},
                "E_infinity": {str(lam): continuum_threshold(at(lam)) for lam in energy_lams},
            }),
    }


def cmd_figures(args):
    os.makedirs(args.dir, exist_ok=True)
    stem = os.path.join(args.dir, f"figure{args.which}")
    x_name, xs, columns, landmarks = _figure_table()[args.which]
    # point by point, so every cell is the scalar function's own float
    rows = [(x, *(float(f(x)) for f in columns.values())) for x in xs]
    rp.dump_csv(rows, (x_name, *columns), stem + "_curve.csv")
    sidecar = rp.make_report("figure", {"figure": args.which, "landmarks": landmarks()},
                             timestamp=not args.no_timestamp)
    rp.dump_json(sidecar, stem + "_landmarks.json")
    sys.stdout.write(f"wrote {stem}_curve.csv and {stem}_landmarks.json\n")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.corrupt is not None:
        # the valid labels depend on --dim, so they are checked after parsing
        try:
            i, j = fradkin_label_indices(args.corrupt, args.dim)
        except ValueError as exc:
            args.parser.error(f"argument --corrupt: {exc}")
        # a mutation no selected part reads would pass silently
        if not any(PART_READS_ENTRY[part](i, j) for part in args.parts):
            args.parser.error(f"argument --corrupt: no part in --parts reads {args.corrupt}")
    handlers = {
        "verify": cmd_verify,
        "spectrum": cmd_spectrum,
        "classical": cmd_classical,
        "figures": cmd_figures,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
