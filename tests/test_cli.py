import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from optlp.cli import (
    EXIT_MAX_ITER,
    EXIT_NO_START,
    EXIT_OK,
    EXIT_PARSE,
    main,
    read_start_file,
    report_to_dict,
    write_start_file,
)
from optlp.mps import format_mps, from_standard_lp, parse_mps, to_standard_form
from optlp.solver import STATUS_OPTIMAL, generate_synthetic, solve

from helpers import centred_gaussian_lp, run_python

NETLIB = Path(__file__).parent / "data" / "netlib"

# the head of an ELF executable: not UTF-8
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))

# valid MPS, but as many independent rows as columns: no standard form
SQUARE_LP = """\
NAME  SQUARE
ROWS
 N  COST
 E  R1
 E  R2
COLUMNS
    X1  COST  1.0  R1  1.0
    X2  R2  1.0
RHS
    RHS  R1  1.0  R2  1.0
ENDATA
"""

# valid MPS, but no constraint row is left: only the objective, or one
# E row with no coefficients (rank 0, so it is dropped)
NO_ROW_LPS = {
    "onlyobj": """\
NAME  ONLYOBJ
ROWS
 N  COST
COLUMNS
    X1  COST  1.0
    X2  COST  2.0
RHS
ENDATA
""",
    "emptyrow": """\
NAME  EMPTYROW
ROWS
 N  COST
 E  R1
COLUMNS
    X1  COST  1.0
    X2  COST  2.0
RHS
    RHS  R1  0.0
ENDATA
""",
}

# R2 = 2 R1 with a consistent right-hand side: R2 is dropped, and the
# heuristic start x = e, y = 1, s = (0.5, 1, 1.5) is in the neighborhood
DEPENDENT_LP = """\
NAME  DEP
ROWS
 N  COST
 E  R1
 E  R2
COLUMNS
    X1  COST  1.5  R1  1.0
    X1  R2  2.0
    X2  COST  2.0  R1  1.0
    X2  R2  2.0
    X3  COST  2.5  R1  1.0
    X3  R2  2.0
RHS
    RHS  R1  3.0  R2  6.0
ENDATA
"""

# R2 is twice R1 on the left but not on the right: no feasible point
INCONSISTENT_LP = """\
NAME  INCONS
ROWS
 N  COST
 E  R1
 E  R2
COLUMNS
    X1  COST  1.0  R1  1.0
    X1  R2  2.0
    X2  COST  2.0  R1  1.0
    X2  R2  2.0
    X3  COST  0.5  R1  1.0
    X3  R2  2.0
RHS
    RHS  R1  1.0  R2  3.0
ENDATA
"""


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "prob.mps"
    code = main(["generate", "12", "5", "7", str(out)])
    assert code == EXIT_OK
    return out, tmp_path / "prob.start"


def test_generate_writes_deterministic_pair(generated, tmp_path):
    out, sidecar = generated
    assert out.exists() and sidecar.exists()
    first = out.read_bytes(), sidecar.read_bytes()
    assert main(["generate", "12", "5", "7", str(out)]) == EXIT_OK
    assert (out.read_bytes(), sidecar.read_bytes()) == first


def test_generate_rejects_bad_dims(tmp_path):
    assert main(["generate", "4", "4", "0", str(tmp_path / "x.mps")]) == EXIT_PARSE
    assert main(["generate", "4", "9", "0", str(tmp_path / "x.mps")]) == EXIT_PARSE


def test_generated_pair_solves_to_optimal(generated, capsys):
    out, sidecar = generated
    code = main(["solve", str(out), "--start-file", str(sidecar), "--output", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["status"] == "optimal"
    assert payload["iterations"]
    keys = {"k", "mu", "sigma", "alpha", "neighborhood_dist", "primal_res", "dual_res", "origin"}
    assert set(payload["iterations"][0]) == keys


def test_solve_heuristic_start_used_when_no_start_file(generated, capsys):
    out, _ = generated
    code = main(["solve", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "status           optimal" in captured.out


def test_solve_shortstep_flag(generated, capsys):
    out, sidecar = generated
    code = main([
        "solve", str(out), "--algorithm", "shortstep", "--theta", "0.4",
        "--start-file", str(sidecar), "--max-iter", "400",
    ])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    # every recorded sigma equals the fixed short-step value
    lines = [l for l in captured.out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    assert lines
    sigma = 1.0 - 0.4 / np.sqrt(12.0)
    assert all(f"{sigma:.6f}" in l for l in lines)


@pytest.mark.parametrize("algorithm, runner", [
    ("optimal", "solve"), ("shortstep", "solve_shortstep_baseline"),
])
def test_cli_runs_the_solver_modules_current_runner(generated, monkeypatch, algorithm, runner):
    # a wrapper put on optlp.solver's function (as a tracer does) must be
    # what solve and bench call
    import optlp.solver

    calls = []
    original = getattr(optlp.solver, runner)
    monkeypatch.setattr(optlp.solver, runner, lambda *a: calls.append(a) or original(*a))
    out, sidecar = generated
    assert main(["solve", str(out), "--algorithm", algorithm, "--start-file", str(sidecar)]) == EXIT_OK
    assert main(["bench", str(out.parent)]) == EXIT_OK
    assert len(calls) == 2


def test_solve_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mps"
    for content, message in ((b"NAME  BAD\nGARBAGE\nENDATA\n", "line 2"),
                             (NOT_UTF8, "not UTF-8"),
                             (SQUARE_LP.encode(), "fewer independent rows"),
                             (INCONSISTENT_LP.encode(), "error: constraint row 0 of INCONS")):
        bad.write_bytes(content)
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("stem", sorted(NO_ROW_LPS))
def test_lp_with_no_constraint_row_is_a_clean_error(stem, tmp_path, capsys):
    path = tmp_path / f"{stem}.mps"
    path.write_text(NO_ROW_LPS[stem])
    assert main(["solve", str(path)]) == EXIT_PARSE
    assert "error: standard form needs at least one independent constraint row" in (
        capsys.readouterr().err
    )
    assert main(["bench", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == f"{stem},failed,failed,"


def test_dropped_row_notice_is_a_warning_line(tmp_path, capsys):
    path = tmp_path / "dep.mps"
    path.write_text(DEPENDENT_LP)
    notice = "warning: constraint matrix of DEP has rank 1 < 2; dropping 1 dependent row(s)"
    for argv in (["solve", str(path)], ["bench", str(tmp_path)]):
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err
        assert notice in err.splitlines()
        assert "UserWarning" not in err


def test_generate_into_missing_directory_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.mps"
    assert main(["generate", "10", "4", "1", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_out_into_missing_directory_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.csv"
    assert main(["bench", str(NETLIB), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_missing_file_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.mps")]) == EXIT_PARSE


def test_solve_no_start_exit_code(tmp_path, capsys):
    # b = -10 defeats the heuristic start on this tiny problem
    text = """\
NAME  NOSTART
ROWS
 N  COST
 E  R1
COLUMNS
    X1  COST  1.0
    X1  R1  1.0
    X2  R1  1.0
RHS
    RHS  R1  -10.0
ENDATA
"""
    path = tmp_path / "nostart.mps"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_NO_START
    binary = tmp_path / "binary.start"
    binary.write_bytes(NOT_UTF8)
    assert main(["solve", str(path), "--start-file", str(binary)]) == EXIT_NO_START
    assert "start file" in capsys.readouterr().err


# each row's sum A e overflows to inf, so the least-squares start is not
# finite
OVERFLOW_LP = """\
NAME  OVERFLOW
ROWS
 N  COST
 E  R1
 E  R2
COLUMNS
    X1  R1  1e308
    X2  R1  1e308
    X3  R2  1e308
    X4  R2  1e308
RHS
    RHS  R1  1.0  R2  2.0
ENDATA
"""


def test_overflowing_row_sums_leave_no_start(tmp_path, capsys):
    path = tmp_path / "overflow.mps"
    path.write_text(OVERFLOW_LP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path)]) == EXIT_NO_START
        assert "no interior starting point" in capsys.readouterr().err
        assert main(["bench", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "overflow,start-failed,start-failed,"


def _write_centred_lp(tmp_path, scale):
    lp, start = centred_gaussian_lp(0, scale)
    path = tmp_path / "centred.mps"
    path.write_text(format_mps(from_standard_lp(lp)))
    write_start_file(path.with_suffix(".start"), start)
    return path, path.with_suffix(".start")


@pytest.mark.filterwarnings("error")
def test_a_gap_beyond_1e154_solves_without_a_warning(tmp_path, capsys):
    # x = s = 1e80 e, so mu = 1e160 and the step quartic h, about mu^2,
    # would overflow unless it is formed scaled
    path, start = _write_centred_lp(tmp_path, 1e80)
    assert main(["solve", str(path), "--start-file", str(start)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_an_overflowing_start_gap_is_no_start_without_a_warning(tmp_path, capsys):
    # x = s = 1e160 e: x.s overflows, with no RuntimeWarning from the product
    path, start = _write_centred_lp(tmp_path, 1e160)
    assert main(["solve", str(path), "--start-file", str(start)]) == EXIT_NO_START
    assert "no_interior_start" in capsys.readouterr().err


def test_off_centre_heuristic_start_is_rejected_by_the_solver(tmp_path, capsys):
    # the heuristic gives x = (1, 1), y = 1.95, s = (0.05, 1.95): positive
    # and feasible, but ||x o s - mu e|| = 1.34 > 0.99 mu with mu = 1
    text = """\
NAME  OFFCTR
ROWS
 N  COST
 E  R1
COLUMNS
    X1  COST  2.0  R1  1.0
    X2  COST  3.9  R1  1.0
RHS
    RHS  R1  2.0
ENDATA
"""
    path = tmp_path / "offctr.mps"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_NO_START
    assert "status           no_interior_start" in capsys.readouterr().out
    assert main(["bench", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("offctr,start-failed,start-failed,")


def test_solve_max_iter_exit_code(generated, capsys):
    out, sidecar = generated
    code = main(["solve", str(out), "--start-file", str(sidecar), "--max-iter", "2"])
    assert code == EXIT_MAX_ITER


def test_report_to_dict_keeps_the_asdict_format():
    from optlp.mps import parse_mps, to_standard_form
    from optlp.model import SolverConfig
    from optlp.solver import solve

    afiro = NETLIB / "afiro.mps"
    lp, _ = to_standard_form(parse_mps(afiro.read_bytes()))
    report = solve(lp, read_start_file(afiro.with_suffix(".start"), lp.n, lp.m), SolverConfig())
    payload = report_to_dict(report, "afiro")
    assert len(payload["iterations"]) == report.iteration_count > 0
    for rec, got in zip(report.iterations, payload["iterations"]):
        want = dataclasses.asdict(rec)
        assert list(got) == list(want)
        for key in want:
            assert type(got[key]) is type(want[key]) and got[key] == want[key]
    back = json.loads(json.dumps(payload))
    for key in ("x", "y", "s"):
        vec = getattr(report.final, key)
        assert np.array(back["final"][key]).tobytes() == vec.tobytes()


def test_json_report_round_trips_exactly(generated, capsys):
    out, sidecar = generated
    assert main(["solve", str(out), "--start-file", str(sidecar), "--output", "json"]) == EXIT_OK
    text = capsys.readouterr().out
    assert len(text.splitlines()) == 1  # one compact line
    payload = json.loads(text)

    from optlp.mps import parse_mps, to_standard_form
    from optlp.model import SolverConfig
    from optlp.solver import solve

    lp, _ = to_standard_form(parse_mps(out.read_text()))
    lp.name = out.stem
    start = read_start_file(sidecar, lp.n, lp.m)
    report = solve(lp, start, SolverConfig())
    assert len(payload["iterations"]) == report.iteration_count
    for rec, got in zip(report.iterations, payload["iterations"]):
        assert got["k"] == rec.k
        assert got["mu"] == rec.mu
        assert got["sigma"] == rec.sigma
        assert got["alpha"] == rec.alpha
        assert got["neighborhood_dist"] == rec.neighborhood_dist
        assert got["primal_res"] == rec.primal_res
        assert got["dual_res"] == rec.dual_res
        assert got["origin"] == rec.origin


def test_start_file_round_trip(tmp_path):
    _, start = generate_synthetic(9, 4, seed=2)
    path = tmp_path / "point.start"
    write_start_file(path, start)
    back = read_start_file(path, 9, 4)
    assert np.array_equal(back.x, start.x)
    assert np.array_equal(back.y, start.y)
    assert np.array_equal(back.s, start.s)


def test_corrupt_start_file_is_a_clean_error(generated, tmp_path, capsys):
    out, sidecar = generated
    sidecar.write_text("1.0 2.0 not-a-number\n")
    code = main(["solve", str(out), "--start-file", str(sidecar)])
    assert code == EXIT_NO_START
    assert "start file" in capsys.readouterr().err

    # bench must keep going past the bad sidecar
    lp_dir = tmp_path / "bench"
    lp_dir.mkdir()
    (lp_dir / "p.mps").write_text(out.read_text())
    (lp_dir / "p.start").write_text("garbage tokens here\n")
    code = main(["bench", str(lp_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out.splitlines()[1].startswith("p,start-failed,start-failed")


@pytest.mark.parametrize("setting", [
    "--theta=1.5", "--theta=0", "--tol=0", "--tol=-1e-8", "--tol=nan", "--max-iter=0",
])
def test_out_of_range_settings_are_usage_errors(generated, setting, capsys):
    out, sidecar = generated
    assert main(["solve", str(out), "--start-file", str(sidecar), setting]) == EXIT_PARSE
    if not setting.startswith("--theta"):  # bench has no --theta
        assert main(["bench", str(out.parent), setting]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_bench_empty_dir(tmp_path, capsys):
    code = main(["bench", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out.splitlines() == ["problem,iters_optimal,iters_baseline,paper_iters"]
    assert "0 of 11" in captured.err


def test_bench_synthetic_instance_row(tmp_path, capsys):
    lp, start = generate_synthetic(10, 4, seed=13)
    (tmp_path / "synth.mps").write_text(format_mps(from_standard_lp(lp)))
    write_start_file(tmp_path / "synth.start", start)
    code = main(["bench", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.out.splitlines()
    assert lines[0] == "problem,iters_optimal,iters_baseline,paper_iters"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "synth"
    assert int(fields[1]) >= 1
    assert fields[3] == ""  # paper_iters absent for non-reference problems


def test_solve_default_max_iter_covers_shortstep_on_afiro(capsys):
    # the short step takes 290 iterations on AFIRO, within the default
    # max_iter, SolverConfig's
    code = main(["solve", str(NETLIB / "afiro.mps"), "--start-file", str(NETLIB / "afiro.start"),
                 "--algorithm", "shortstep"])
    assert code == EXIT_OK
    assert "iterations       290" in capsys.readouterr().out.splitlines()


def test_solve_restarts_from_its_own_final_iterate(tmp_path, capsys):
    # a start passes the step's own neighborhood test, so AFIRO's final
    # iterate, written as a start, is accepted again
    lp, _ = to_standard_form(parse_mps((NETLIB / "afiro.mps").read_bytes()))
    report = solve(lp, read_start_file(NETLIB / "afiro.start", lp.n, lp.m))
    assert report.status == STATUS_OPTIMAL
    write_start_file(tmp_path / "final.start", report.final)
    code = main(["solve", str(NETLIB / "afiro.mps"), "--start-file", str(tmp_path / "final.start")])
    assert code == EXIT_OK, capsys.readouterr().err


def test_bench_default_max_iter_covers_shortstep_on_afiro(capsys):
    # the short-step baseline needs a few hundred iterations on AFIRO
    code = main(["bench", str(NETLIB)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = {line.split(",")[0]: line.split(",") for line in captured.out.splitlines()[1:]}
    _, opt_iters, base_iters, paper_iters = rows["afiro"]
    assert int(opt_iters) >= 1 and int(base_iters) >= 1
    assert paper_iters == "4"


def test_bench_continues_past_unreadable_file(tmp_path, capsys):
    (tmp_path / "bad.mps").write_text("NAME  BAD\nJUNK\n")
    (tmp_path / "binary.mps").write_bytes(NOT_UTF8)
    lp, start = generate_synthetic(8, 3, seed=4)
    good = format_mps(from_standard_lp(lp))
    (tmp_path / "good.mps").write_text(good)
    write_start_file(tmp_path / "good.start", start)
    head, columns = good.split("\nCOLUMNS\n")
    value = columns.split()[2]  # the first coefficient
    (tmp_path / "nan.mps").write_text(f"{head}\nCOLUMNS\n{columns.replace(value, 'nan', 1)}")
    (tmp_path / "square.mps").write_text(SQUARE_LP)
    code = main(["bench", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.out.splitlines()
    assert len(lines) == 6
    assert lines[1].startswith("bad,failed,failed")
    assert lines[2].startswith("binary,failed,failed")
    assert lines[3].startswith("good,")
    assert lines[4].startswith("nan,failed,failed")
    assert lines[5].startswith("square,failed,failed")


def test_bench_csv_to_file(tmp_path, capsys):
    for seed in (1, 2, 3):
        lp, start = generate_synthetic(8, 3, seed=seed)
        (tmp_path / f"p{seed}.mps").write_text(format_mps(from_standard_lp(lp)))
        write_start_file(tmp_path / f"p{seed}.start", start)
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", str(tmp_path), "--out", str(out_csv)])
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 4
    assert [l.split(",")[0] for l in lines[1:]] == ["p1", "p2", "p3"]


def test_solve_as_a_process_prints_the_in_process_report(capsys):
    # in-process tests cannot see what a process imports, as other test
    # modules import scipy.linalg; -X importtime lists every import on stderr
    argv = ["solve", str(NETLIB / "afiro.mps"), "--start-file", str(NETLIB / "afiro.start"),
            "--output", "json"]
    done = run_python("-X", "importtime", "-m", "optlp.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "optlp.linalg" in imported and "scipy.linalg" not in imported


def test_solve_without_a_start_file_leaves_scipy_linalg_unimported(generated):
    out, _ = generated
    done = run_python("-X", "importtime", "-m", "optlp.cli", "solve", str(out))
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "optlp.solver" in imported and "scipy.linalg" not in imported
