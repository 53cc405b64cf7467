"""Command-line interface: exit codes, determinism, report schemas, files."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from darboux3 import classical as cl
from darboux3 import cli
from darboux3 import reports as rp
from darboux3.algebra import FLAVORS, builders, verify, verify_theorem
from darboux3.cli import MAX_PERIODS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--dim", "2", "--flavor", "schrodinger", "--no-timestamp")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == rp.SCHEMA
    assert rep["kind"] == "verify"
    assert rep["all_zero"] is True
    assert "corrupt" not in rep
    assert all(c["commutator_zero"] for c in rep["checks"])


def test_verify_corrupt_fails(capsys):
    code, out = run_cli(
        capsys, "verify", "--dim", "2", "--flavor", "tlb", "--corrupt", "I11", "--no-timestamp"
    )
    assert code == 1
    rep = json.loads(out)
    assert not rep["all_zero"]
    bad = [c for c in rep["checks"] if not c["commutator_zero"]]
    assert bad and all("residual" in c for c in bad)
    assert rep["corrupt"] == "I11"
    code, out = run_cli(
        capsys, "verify", "--dim", "2", "--parts", "i", "--corrupt", "I12", "--no-timestamp"
    )
    assert code == 1 and json.loads(out)["corrupt"] == "I12"
    # part ii commutes the diagonal Fradkin entries, so it reads I11
    code, out = run_cli(
        capsys, "verify", "--dim", "2", "--parts", "ii", "--corrupt", "I11", "--no-timestamp"
    )
    assert code == 1 and json.loads(out)["corrupt"] == "I11"


GOLDEN_RESIDUALS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())["residuals"]


def _assert_golden_residuals(capsys, key):
    flavor, dim, label = key.split("/")
    code, out = run_cli(capsys, "verify", "--dim", dim, "--flavor", flavor,
                        "--corrupt", label, "--no-timestamp")
    assert code == 1, key
    nonzero = [{"lhs": c["lhs"], "rhs": c["rhs"], "residual": c["residual"]}
               for c in json.loads(out)["checks"] if not c["commutator_zero"]]
    assert nonzero == GOLDEN_RESIDUALS[key], key


@pytest.mark.parametrize("key", sorted(GOLDEN_RESIDUALS))
def test_corrupt_residuals_match_golden_text(capsys, key):
    # each mutation control fails with exactly the recorded residuals, so a
    # change to normal ordering or printing cannot go unseen
    _assert_golden_residuals(capsys, key)


def test_corrupt_residuals_match_golden_text_after_clean_runs(capsys, clear_frame):
    # a mutation control run after clean runs of its N, with the Schrödinger
    # frame warm, must still compute its corrupted entry and fail as recorded
    for dim in sorted({key.split("/")[1] for key in GOLDEN_RESIDUALS}):
        for flavor in ("schrodinger", "tlb", "tpdm"):
            assert run_cli(capsys, "verify", "--dim", dim, "--flavor", flavor, "--no-timestamp")[0] == 0
        for key in sorted(k for k in GOLDEN_RESIDUALS if k.split("/")[1] == dim):
            _assert_golden_residuals(capsys, key)


# which Fradkin entries (i, j), zero-based, each part read, as the table
# that stated it by hand before the reads were derived from the check lists
PART_READS_ENTRY = {"i": lambda i, j: True, "ii": lambda i, j: i == j,
                    "sl2": lambda i, j: False, "conjugation": lambda i, j: True}


def test_corrupt_refusals_follow_the_entries_the_checks_name(capsys, monkeypatch):
    # for every N, part subset and label Iij (i > j included) --corrupt is
    # refused exactly when the table above reads no entry (i, j); and the
    # entries that verify_theorem's checks name are the derived set
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 0)
    subsets = [parts for k in range(1, len(verify.ALL_PARTS) + 1)
               for parts in combinations(verify.ALL_PARTS, k)]
    for n in range(2, 9):
        for parts in subsets:
            reads = {(i, j) for i in range(n) for j in range(n)
                     if any(PART_READS_ENTRY[part](i, j) for part in parts)}
            for i in range(n):
                for j in range(n):
                    argv = ["verify", "--dim", str(n), "--parts", ",".join(parts),
                            "--corrupt", f"I{i + 1}{j + 1}"]
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    assert code == (0 if (i, j) in reads else 2), argv
            capsys.readouterr()
            named = {f"I_{m[1]}" for c in verify_theorem("schrodinger", n, parts=parts).checks
                     for m in re.finditer(r"I_(?:\w+,)?(\d\d)", c.lhs + " " + c.rhs)}
            expected = {f"I_{i + 1}{j + 1}" for i, j in reads if i <= j}
            assert named == verify.entries_read(parts, n) == expected, (n, parts)


@pytest.mark.parametrize("dim", ["2", "3", "4"])
def test_verify_and_classical_share_the_family_safely(capsys, clear_frame, dim):
    # verify and classical read one Schrödinger family per N and process: a
    # classical report is the same cold and after verify of every flavor at
    # its N, and the verify reports are the same after classical
    classical = ("classical", "--dim", dim, "--t-end", "5", "--no-timestamp")
    verifies = [("verify", "--dim", dim, "--flavor", f, "--no-timestamp") for f in FLAVORS]

    def cold():
        clear_frame()
        cl._point_rows.cache_clear()  # else the rows of the last state are kept

    cold()
    alone = run_cli(capsys, *classical)
    cold()
    verified = [run_cli(capsys, *argv) for argv in verifies]
    assert run_cli(capsys, *classical) == alone
    cold()
    assert run_cli(capsys, *classical) == alone
    assert [run_cli(capsys, *argv) for argv in verifies] == verified
    assert alone[0] == 0 and all(code == 0 for code, _ in verified)
    # clear_frame empties the family too
    assert builders.schrodinger_family.cache_info().currsize > 0
    clear_frame()
    assert builders.schrodinger_family.cache_info().currsize == 0


BAD_FLAGS = (
    ["verify", "--dim", "9"],
    ["verify", "--dim", "1"],
    ["nonsense"],
    ["verify", "--parts", "foo"],
    ["verify", "--parts", ","],
    ["spectrum", "--omega", "0"],
    ["spectrum", "--hbar", "0"],
    ["spectrum", "--grid", "10"],
    ["spectrum", "--qmax", "-3"],
    ["spectrum", "--lambda", "-1"],
    ["spectrum", "--omega", "nan"],
    ["spectrum", "--levels", "0"],
    ["classical", "--t-end", "-1"],
    ["classical", "--t-end", "0"],
    # below solve_ivp's floor of 100 machine epsilons, which it would raise
    # the tolerance to with a warning
    ["classical", "--tolerance", "1e-300", "--t-end", "1"],
    # more than MAX_PERIODS periods, omega t_end / 2 pi, to integrate
    ["classical", "--omega", "1e4"],
    ["classical", "--t-end", "1e300"],
    # more levels than the coarsest grid M//4 of the isospectral ladder has cells
    ["spectrum", "--flavor", "all", "--levels", "2000"],
    ["spectrum", "--flavor", "all", "--grid", "100", "--levels", "60"],
    ["spectrum", "--flavor", "all", "--grid", "100", "--levels", "26"],
    # each flavor's own solve picks its box and exports no wave functions
    ["spectrum", "--flavor", "all", "--qmax", "5"],
    ["spectrum", "--flavor", "all", "--wavefunctions", "wf.csv"],
    ["verify", "--corrupt", "XYZ"],
    ["verify", "--dim", "2", "--corrupt", "I33"],
    # no selected part reads the corrupted entry (ii reads the diagonal only)
    ["verify", "--dim", "2", "--parts", "sl2", "--corrupt", "I12"],
    ["verify", "--dim", "2", "--parts", "ii", "--corrupt", "I12"],
    # flags a command does not read: verify and classical always write JSON,
    # figures writes into --dir, and only classical draws random numbers
    ["verify", "--format", "csv"],
    ["verify", "--seed", "1"],
    ["spectrum", "--seed", "1"],
    ["classical", "--format", "csv"],
    ["figures", "--which", "1", "--out", "x.json"],
    ["figures", "--which", "1", "--format", "json"],
    ["figures", "--which", "1", "--seed", "1"],
)


def test_verify_dim_5(capsys):
    code, out = run_cli(capsys, "verify", "--dim", "5", "--parts", "sl2", "--no-timestamp")
    rep = json.loads(out)
    assert code == 0 and rep["N"] == 5 and rep["all_zero"] is True
    assert [c["lhs"] for c in rep["checks"]] == ["[J3, J+]", "[J3, J-]", "[J-, J+]"]


def test_verify_dim_6(capsys):
    code, out = run_cli(capsys, "verify", "--dim", "6", "--flavor", "schrodinger", "--no-timestamp")
    rep = json.loads(out)
    assert code == 0 and rep["N"] == 6 and rep["all_zero"] is True


def test_verify_bad_flags_exit_2(capsys):
    for argv in BAD_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err and "Warning" not in err, argv
        capped = argv[0] == "classical" and ("1e4" in argv or "1e300" in argv)
        if "--corrupt" in argv or "all" in argv or capped:
            # checked after parsing, but reported by the command's own parser
            assert err.startswith(f"usage: darboux3 {argv[0]}"), argv
        if "all" in argv and "--levels" in argv:
            assert "argument --levels" in err and "coarsest grid, M//4 for --grid M = " in err, argv
        for flag in ("--qmax", "--wavefunctions"):
            if "all" in argv and flag in argv:
                assert f"argument {flag}: not used with --flavor all" in err, argv
        if capped:
            assert "argument --t-end: --omega " in err and f"more than {MAX_PERIODS}" in err, argv


def test_readme_names_the_report_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert f'"schema": "{rp.SCHEMA}"' in readme


def test_verify_similarity_flag(capsys):
    code, out = run_cli(
        capsys, "verify", "--dim", "3", "--flavor", "tlb", "--parts", "sl2",
        "--similarity", "--no-timestamp",
    )
    assert code == 0
    rep = json.loads(out)
    assert all(c["commutator_zero"] for c in rep["similarity_checks"])


def test_spectrum_landmark_value_and_exit(capsys, tmp_path):
    out_path = tmp_path / "spec.json"
    code, _ = run_cli(
        capsys, "spectrum", "--dim", "3", "--l", "0", "--lambda", "0.01",
        "--levels", "5", "--out", str(out_path), "--no-timestamp",
    )
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["kind"] == "spectrum"
    assert rep["levels"][0]["E_numeric"] == pytest.approx(1.4777, abs=5e-4)
    assert rep["max_rel_mismatch"] <= 1e-5


def _csv_of(header, rows):
    """The CSV text of a header and rows of ints and floats (str is repr)."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def test_spectrum_flat_ladder_csv(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    argv = ("spectrum", "--lambda", "0", "--levels", "4", "--no-timestamp")
    code, _ = run_cli(capsys, *argv, "--format", "csv", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n_r,n,E_numeric,E_closed,abs_residual,rel_residual"
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(1.5)
    # byte for byte the JSON report's level table, on stdout as in --out
    header = lines[0].split(",")
    _, out = run_cli(capsys, *argv)
    assert text == _csv_of(header, [[lv[h] for h in header] for lv in json.loads(out)["levels"]])
    assert run_cli(capsys, *argv, "--format", "csv") == (0, text)


def test_spectrum_zero_levels_csv_is_the_header(capsys):
    # at lambda = 10 every level lies within 5% of the threshold 0.05: none is
    # trusted, so the CSV carries the header alone and the command fails
    code, out = run_cli(capsys, "spectrum", "--lambda", "10", "--format", "csv", "--no-timestamp")
    assert (code, out) == (1, "n_r,n,E_numeric,E_closed,abs_residual,rel_residual\n")


def test_spectrum_wavefunction_export(capsys, tmp_path):
    wf = tmp_path / "wf.csv"
    argv = ("spectrum", "--dim", "3", "--l", "0", "--lambda", "0.02", "--levels", "3",
            "--no-timestamp")
    code, out = run_cli(capsys, *argv, "--wavefunctions", str(wf))
    assert code == 0
    # the export reads the same solve: the report is unchanged by it
    assert run_cli(capsys, *argv) == (0, out)
    rep = json.loads(out)
    lines = wf.read_text().splitlines()
    assert lines[0] == "r,phi_tlb_0,phi_tlb_1,phi_tlb_2"
    assert len(lines) == rep["grid"]["M"] + 1
    assert rep["levels"][0]["dim_Y_l"] == 1
    assert rep["levels"][1]["level_degeneracy"] == 6  # n = 2, N = 3


def test_spectrum_n2_l0_needs_flux_form(capsys):
    # both Frobenius solutions vanish at r = 0; factoring out u = Q^s w gives
    # a flux form whose p(0) = 0 selects the regular one, on both routes
    code, out = run_cli(capsys, "spectrum", "--dim", "2", "--l", "0", "--no-timestamp")
    assert code == 0
    rep = json.loads(out)
    assert rep["warnings"] == []
    assert rep["max_rel_mismatch"] <= 1e-5
    code, out = run_cli(
        capsys, "spectrum", "--dim", "2", "--l", "0", "--flavor", "all", "--no-timestamp"
    )
    assert code == 0
    assert json.loads(out)["max_rel_mismatch"] < 1e-9


def test_spectrum_odd_grid(capsys):
    # --grid M is the finest grid of the ladder (M//4, M//2, M); an odd M
    # extrapolates with the Lagrange weights of the exact spacings
    for grid in (1001, 401):
        code, out = run_cli(capsys, "spectrum", "--grid", str(grid), "--no-timestamp")
        assert code == 0
        rep = json.loads(out)
        assert rep["grid"]["M"] == grid
        assert rep["max_rel_mismatch"] <= 1e-5


def test_spectrum_all_flavors_default_grid(capsys):
    # the --flavor all default is the finest grid M = ISOSPECTRAL_GRID of the
    # ladder (M/4, M/2, M); with h^2 in the ratios 16 : 4 : 1 the value at
    # h = 0 of the quadratic through them is (E_(M/4) - 20 E_(M/2) + 64 E_M)/45,
    # to the last bit
    from fractions import Fraction

    from darboux3 import spectra as sp
    from darboux3.model import ModelParams

    m = sp.ISOSPECTRAL_GRID
    assert m % 4 == 0
    argv = ("spectrum", "--flavor", "all", "--levels", "3", "--no-timestamp")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--grid", str(m)) == (0, out)
    params = ModelParams(dim=3, lam=0.02)
    r_max = 1.25 * sp.gaussian_tail_radius(params, 4)
    coarsest, middle, finest = (sp.flavor_radial_solve(params, 0, "tlb", k=3, m=c, r_max=r_max)
                                for c in (m // 4, m // 2, m))
    w = [float(Fraction(n, 45)) for n in (1, -20, 64)]
    assert json.loads(out)["levels"]["tlb"] == (w[0] * coarsest + w[1] * middle + w[2] * finest).tolist()


def test_spectrum_all_flavors(capsys):
    argv = ("spectrum", "--flavor", "all", "--dim", "3", "--l", "0",
            "--lambda", "0.02", "--levels", "4", "--no-timestamp")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["isospectral"] is True
    assert rep["max_pairwise_rel"] <= 1e-8
    assert set(rep["levels"]) == {"schrodinger", "tlb", "tpdm"}
    # --format csv writes the same levels, byte for byte in repr
    flavors = ("schrodinger", "tlb", "tpdm")
    rows = [(nr, 2 * nr, e, *(rep["levels"][f][nr] for f in flavors))
            for nr, e in enumerate(rep["levels_closed_form"])]
    assert run_cli(capsys, *argv, "--format", "csv") == (
        0, _csv_of(("n_r", "n", "E_closed", *flavors), rows))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_classical_report_and_exit(capsys, tmp_path, dim):
    traj = tmp_path / "traj.csv"
    code, out = run_cli(
        capsys, "classical", "--dim", str(dim), "--lambda", "0.02", "--seed", "7",
        "--trajectory", str(traj), "--no-timestamp",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["max_drift"] < 1e-7
    assert rep["max_poisson_bracket"] == 0.0
    assert rep["independence_rank"] == 2 * dim - 1
    assert rep["closure"]["conclusive"] is True
    header = traj.read_text().splitlines()[0]
    axes = range(1, dim + 1)
    assert header == ",".join(["t", *(f"q{k}" for k in axes), *(f"p{k}" for k in axes)])


def test_classical_flat_period(capsys):
    code, out = run_cli(
        capsys, "classical", "--dim", "2", "--lambda", "0", "--seed", "3",
        "--t-end", "20", "--no-timestamp",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["closure"]["period"] == pytest.approx(2 * math.pi, abs=1e-5)
    assert rep["closure"]["period_measured"] == pytest.approx(2 * math.pi, abs=1e-5)
    assert rep["independence_rank"] == 3
    assert rep["threshold"] == "inf"


class _Reached(Exception):
    """Raised by a stub to show that a command got that far."""


@pytest.mark.parametrize("argv, refused", (
    pytest.param(("--omega", "1e4"), True, id="omega-1e4"),
    pytest.param(("--t-end", "1e300"), True, id="t-end-1e300"),
    # omega t_end / 2 pi = 1002.7 and 999.5 periods
    pytest.param(("--omega", "63", "--t-end", "100"), True, id="1002.7-periods"),
    pytest.param(("--omega", "62.8", "--t-end", "100"), False, id="999.5-periods"),
))
def test_classical_work_cap_refuses_before_integrating(capsys, monkeypatch, argv, refused):
    def stub(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cl, "random_state", stub)
    monkeypatch.setattr(cl, "solve_ivp", stub)
    if not refused:
        # admitted: the command goes on to draw its state
        with pytest.raises(_Reached):
            main(["classical", *argv])
        return
    with pytest.raises(SystemExit) as exc:
        main(["classical", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: darboux3 classical")
    assert "argument --t-end: --omega " in err
    assert err.rstrip().endswith(f"periods, more than {MAX_PERIODS}")


@pytest.mark.parametrize("t_end", ("100", "1"))
def test_classical_command_solves_once(capsys, monkeypatch, t_end):
    # the trajectory and the closure come from one solve; a --t-end below
    # 1.01 T is run on to 1.01 T and the closure is still conclusive
    spans = []
    solve_ivp = cl.solve_ivp

    def counting(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(cl, "solve_ivp", counting)
    code, out = run_cli(capsys, "classical", "--t-end", t_end, "--no-timestamp")
    closure = json.loads(out)["closure"]
    assert code == 0 and len(spans) == 1
    assert spans[0] == (0.0, max(float(t_end), 1.01 * closure["period"]))
    assert closure["conclusive"] is True and closure["closure_distance"] <= 1e-8
    assert closure["period_measured"] == pytest.approx(closure["period"], rel=1e-9)


def test_determinism_byte_identical(capsys):
    args = ("classical", "--dim", "3", "--seed", "12", "--t-end", "20", "--no-timestamp")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    # timestamped runs still parse and differ only in the timestamp field
    _, stamped = run_cli(capsys, "verify", "--dim", "2", "--parts", "sl2")
    rep = json.loads(stamped)
    assert "timestamp" in rep


def test_figures_outputs(capsys, tmp_path):
    for which in (1, 2, 3, 4, 5):
        code, _ = run_cli(
            capsys, "figures", "--which", str(which), "--dir", str(tmp_path), "--no-timestamp"
        )
        assert code == 0
        side = json.loads((tmp_path / f"figure{which}_landmarks.json").read_text())
        assert side["kind"] == "figure"
        curve = (tmp_path / f"figure{which}_curve.csv").read_text().splitlines()
        assert len(curve) > 10
    f1 = json.loads((tmp_path / "figure1_landmarks.json").read_text())
    assert f1["landmarks"]["R_at_origin"] == pytest.approx(-1.2)
    f3 = json.loads((tmp_path / "figure3_landmarks.json").read_text())
    assert round(f3["landmarks"]["deformed"]["r_min"], 2) == 3.49
    assert round(f3["landmarks"]["deformed"]["u_min"], 2) == 8.2
    assert f3["landmarks"]["deformed"]["U_infinity"] == 25.0
    f5 = json.loads((tmp_path / "figure5_landmarks.json").read_text())
    assert [round(v, 2) for v in f5["landmarks"]["E0"].values()] == [1.5, 1.48, 1.46, 1.41]
    assert list(f5["landmarks"]["E_infinity"].values()) == ["inf", 50.0, 25.0, 12.5]


def test_csv_cells_parse_as_floats(capsys, tmp_path):
    paths = []
    for which in (1, 2, 3, 4):
        run_cli(capsys, "figures", "--which", str(which), "--dir", str(tmp_path), "--no-timestamp")
        paths.append(tmp_path / f"figure{which}_curve.csv")
    paths.append(tmp_path / "wf.csv")
    run_cli(capsys, "spectrum", "--levels", "2", "--wavefunctions", str(paths[-1]),
            "--no-timestamp")
    paths.append(tmp_path / "all.csv")
    code, _ = run_cli(capsys, "spectrum", "--flavor", "all", "--levels", "2",
                      "--format", "csv", "--out", str(paths[-1]), "--no-timestamp")
    assert code == 0
    for path in paths:
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) > 2, path
        for row in rows[1:]:
            for cell in row:
                float(cell)  # raises on a cell such as "np.float64(0.0)"


def test_unwritable_output_paths_exit_1(capsys, tmp_path):
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    for argv in (
        ["figures", "--which", "1", "--dir", str(blocker / "sub")],
        ["spectrum", "--levels", "2", "--out", str(tmp_path / "missing" / "spec.json")],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


@pytest.mark.parametrize("argv", (
    ["spectrum", "--omega", "1e-300"],
    ["spectrum", "--qmax", "1e-300"],
    ["spectrum", "--flavor", "all", "--omega", "1e-200"],
    # the grid arrays would need hundreds of PiB, beyond any address space,
    # so the allocation fails at once without touching memory
    ["spectrum", "--grid", "100000000000000000"],
    ["spectrum", "--grid", "100000000000000000", "--flavor", "all"],
))
def test_float_breakdown_exits_1(capsys, argv):
    # valid flags whose grid or tail radius divides by zero in float
    # arithmetic, or whose grid cannot be allocated
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, shown, extra", (
    pytest.param("spectrum", "--qmax", "1e-300", "1e-300", (), id="--qmax"),
    pytest.param("spectrum", "--omega", "1e-300", "1e-300", (), id="--omega"),
    # these two break down inside the inverse flattening iteration
    pytest.param("spectrum", "--hbar", "1e300", "1e+300", (), id="--hbar-1e300"),
    pytest.param("spectrum", "--omega", "1e-150", "1e-150", (), id="--omega-1e-150"),
    # omega**2 overflows a Python float in the continuum threshold; a short
    # --t-end keeps omega t_end / 2 pi within MAX_PERIODS
    pytest.param("classical", "--omega", "1e200", "1e+200", ("--t-end", "1e-200"),
                 id="classical--omega-1e200"),
    # omega**2 underflows to 0, and exact_state divides by it
    pytest.param("classical", "--omega", "1e-200", "1e-200", ("--lambda", "0"),
                 id="classical--omega-1e-200"),
    # omega**3 overflows in the closed-form period, before the integrator
    pytest.param("classical", "--omega", "1e150", "1e+150", ("--t-end", "1e-150"),
                 id="classical--omega-1e150"),
    # inside the integrator, which would warn and then abort
    pytest.param("classical", "--omega", "1e100", "1e+100", ("--t-end", "1e-98"),
                 id="classical--omega-1e100"),
    # a tie in orders of magnitude names the first scale flag
    pytest.param("spectrum", "--lambda", "1e-300", "1e-300", ("--omega", "1e300"),
                 id="--lambda-1e-300--omega-1e300"),
))
def test_float_breakdown_names_the_flag_without_warnings(command, flag, value, shown, extra):
    # in a fresh interpreter, because pytest would capture numpy's warnings
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "darboux3", command, flag, value, *extra, "--no-timestamp"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {flag} {shown} is out of range for floating point (")
    assert len(proc.stderr.splitlines()) == 1 and "Warning" not in proc.stderr
    assert "((" not in proc.stderr


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_cached_parser_carries_no_state(capsys):
    from darboux3.cli import build_parser

    assert build_parser() is build_parser()
    before = vars(build_parser().parse_args(["spectrum"]))
    for argv, code in (
        (["verify", "--dim", "2", "--parts", "sl2", "--corrupt", "I33"], 2),
        (["verify", "--dim", "2", "--parts", "sl2"], 0),
        (["spectrum", "--grid", "10"], 2),
        (["spectrum", "--grid", "400", "--levels", "2", "--lambda", "0.01"], 0),
        (["verify", "--dim", "2", "--parts", "sl2", "--corrupt", "I33"], 2),
        (["verify", "--dim", "2", "--parts", "sl2", "--flavor", "tpdm"], 0),
    ):
        assert _exit_code(argv) == code, argv
        capsys.readouterr()
    assert vars(build_parser().parse_args(["spectrum"])) == before


def _cli_calls(out_dir):
    """Strategy: one to three argv lists over the four commands.  Flags take
    valid values, and about half the commands end in one invalid flag (the
    last occurrence of a flag wins).  Kept cheap: small grids, few levels,
    verify at N = 2 on the sl2 part, short classical runs."""

    def flag(name, values):
        return st.one_of(st.just(()), st.sampled_from(values).map(lambda v: (name, v)))

    def switch(name):
        return st.sampled_from([(), (name,)])

    fmt = flag("--format", ("json", "csv"))
    out = flag("--out", (str(out_dir / "report"), str(out_dir / "missing" / "report")))
    seed = flag("--seed", ("0", "7", "-3"))
    # each command takes only the flags it reads; the others are bad flags
    common_bad = [("--bogus",)]

    def command(name, flags, bad):
        bad = st.one_of(st.just(()), st.sampled_from(bad + common_bad))
        return st.tuples(*flags, switch("--no-timestamp"), bad).map(
            lambda parts: [name, *(a for p in parts for a in p)])

    verify = command("verify", (
        st.just(("--dim", "2", "--parts", "sl2")),
        flag("--flavor", ("schrodinger", "tlb", "tpdm")),
        flag("--corrupt", ("I11", "I12", "I22")),
        switch("--similarity"),
        out,
    ), [("--dim", "9"), ("--dim", "two"), ("--parts", "foo"), ("--parts", ","),
        ("--flavor", "lb"), ("--corrupt", "I33"), ("--corrupt", "XYZ"),
        ("--format", "csv"), ("--seed", "7")])
    spectrum = command("spectrum", (
        st.integers(100, 400).map(lambda m: ("--grid", str(m))),
        flag("--levels", ("1", "2", "3")),
        flag("--dim", ("2", "3", "4")),
        flag("--l", ("0", "1", "3")),
        flag("--lambda", ("0", "0.02", "0.06")),
        flag("--omega", ("1", "0.7")),
        flag("--hbar", ("1", "0.5", "2")),
        flag("--qmax", ("4", "12")),
        flag("--flavor", ("schrodinger", "tlb", "tpdm", "all")),
        flag("--wavefunctions", (str(out_dir / "wf.csv"), str(out_dir / "missing" / "wf.csv"))),
        fmt,
        out,
    ), [("--grid", "10"), ("--grid", "1e3"), ("--levels", "0"), ("--dim", "1"), ("--l", "-1"),
        ("--lambda", "-1"), ("--lambda", "nan"), ("--omega", "0"), ("--omega", "inf"),
        ("--hbar", "0"), ("--qmax", "-3"), ("--flavor", "lb"), ("--format", "xml"),
        ("--seed", "7")])
    classical = command("classical", (
        st.floats(0.5, 5.0).map(lambda t: ("--t-end", repr(t))),
        flag("--dim", ("2", "3", "4")),
        flag("--lambda", ("0", "0.02", "0.05")),
        flag("--omega", ("1", "1.3")),
        flag("--tolerance", ("1e-8", "1e-10")),
        flag("--trajectory", (str(out_dir / "traj.csv"), str(out_dir / "missing" / "traj.csv"))),
        seed,
        out,
    ), [("--t-end", "0"), ("--t-end", "-1"), ("--t-end", "inf"), ("--dim", "1"),
        ("--lambda", "-0.1"), ("--omega", "0"), ("--tolerance", "0"), ("--tolerance", "1e-300"),
        ("--t-end", "1e300"),
        ("--seed", "x"), ("--format", "csv")])
    figures = command("figures", (
        st.sampled_from("12345").map(lambda w: ("--which", w)),
        st.sampled_from((out_dir / "figures", out_dir / "report" / "sub")).map(
            lambda d: ("--dir", str(d))),
    ), [("--which", "0"), ("--which", "x"), ("--out", str(out_dir / "report")),
        ("--format", "json"), ("--seed", "7")])
    stray = st.sampled_from(([], ["nonsense"], ["--help"], ["verify", "-h"]))
    return st.lists(st.one_of(verify, spectrum, classical, figures, stray), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_fuzz(capsys, tmp_path, data):
    # exit 0, 1 or 2 on every input, never a traceback; many calls share one
    # process and so one cached parser
    for argv in data.draw(_cli_calls(tmp_path)):
        code = _exit_code(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        if code == 2:
            assert "usage:" in err, argv
