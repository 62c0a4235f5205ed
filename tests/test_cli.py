import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import MOTZKIN, free_input, random_sos
from sos_approx import cli, linalg
from sos_approx.approx import SosCertificate
from sos_approx.gram import square_basis
from sos_approx.poly import (COMMUTATIVE, FREE, Polynomial, sum_of_monomial_squares, to_dict,
                             to_json, variables)


def write_poly(tmp_path, p, name="poly.json"):
    path = tmp_path / name
    path.write_text(to_json(p) + "\n")
    return str(path)


def test_sos_norm_p31(tmp_path, capsys):
    path = write_poly(tmp_path, sum_of_monomial_squares(3, 1))
    out = tmp_path / "report.json"
    code = cli.main(["sos-norm", "--input", path, "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["value"] == pytest.approx(3.0, abs=1e-5)
    assert report["status"] == "optimal"
    assert report["dual_lower_bound"] <= report["value"] + 1e-6
    assert report["method"] == "sdp"


def test_sos_norm_free_closed_form_tag(tmp_path, rng):
    a, basis = random_sos(rng, FREE, 2, 2, 2)
    path = write_poly(tmp_path, a)
    out = tmp_path / "report.json"
    assert cli.main(["sos-norm", "--input", path, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["method"] == "closed-form (free)"
    expected = sum(a.coefficient(w[::-1] + w) for w in basis.terms).real
    assert report["value"] == pytest.approx(expected, rel=1e-12)
    assert report["solver_value"] == report["value"]
    assert report["iterations"] == 0


def test_free_inconclusive_exits_solver(tmp_path, capsys):
    # a unique Gram matrix with least eigenvalue -1e-6 is neither PSD within
    # the tolerance nor certified: exit 4 after 0 steps, not 50,000
    path = write_poly(tmp_path, free_input(-1e-6)[0])
    assert cli.main(["feasible", "--input", path]) == 4
    assert "inconclusive" in capsys.readouterr().err
    assert cli.main(["sos-norm", "--input", path]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "max-iter"
    assert json.loads(captured.out)["iterations"] == 0
    assert "-1.000e-06" in captured.err


def test_sos_norm_zero_polynomial(tmp_path):
    path = write_poly(tmp_path, Polynomial.zero(COMMUTATIVE, 2))
    out = tmp_path / "r.json"
    assert cli.main(["sos-norm", "--input", path, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == 0.0


def test_sos_norm_infeasible_exit_code(tmp_path):
    x1, x2 = variables(COMMUTATIVE, 2)
    path = write_poly(tmp_path, x1 * x1 - x2 * x2)
    assert cli.main(["sos-norm", "--input", path]) == 3


def test_infeasible_report_is_standard_json(tmp_path, capsys):
    # an infeasible solve has no value, gap or dual bound; JSON has no NaN or
    # Infinity token, so the report writes null, on stdout and in the file
    def no_constants(token):
        raise ValueError(f"non-standard JSON token {token}")

    for name, p in (("motzkin", Polynomial(COMMUTATIVE, 3, MOTZKIN)),
                    ("free", free_input(-1.0)[0])):
        path = write_poly(tmp_path, p, f"{name}.json")
        out = tmp_path / f"{name}-report.json"
        assert cli.main(["sos-norm", "--input", path, "--output", str(out)]) == 3
        for text in (capsys.readouterr().out, out.read_text()):
            report = json.loads(text, parse_constant=no_constants)
            assert report["status"] == "infeasible"
            keys = ("value", "duality_gap", "dual_lower_bound")
            for key in keys + (("solver_value",) if name == "free" else ()):
                assert report[key] is None, key
            assert report["certificate"]["objective"] < 0


def test_parse_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["sos-norm", "--input", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert cli.main(["sos-norm", "--input", str(missing)]) == 2
    odd = write_poly(tmp_path, Polynomial.variable(COMMUTATIVE, 2, 0), "odd.json")
    assert cli.main(["sos-norm", "--input", odd]) == 2
    for literal in ("Infinity", "NaN"):
        non_finite = tmp_path / "non_finite.json"
        non_finite.write_text('{"flavor": "commutative", "n_vars": 2, "terms": '
                              '[{"term": [2, 0], "re": %s}, {"term": [0, 2], "re": 1}]}'
                              % literal)
        assert cli.main(["sos-norm", "--input", str(non_finite), "--max-iter", "50"]) == 2


def test_malformed_json_fields_exit_two_naming_them(tmp_path, capsys):
    for terms, message in (
            ('[{"term": [2.9, 0], "re": 1}]', "terms[0]: exponent must be an integer"),
            ('[{"term": [2, 0], "re": 1, "im": null}]', "terms[0]: im must be a number"),
            ('{"t": {"term": [2, 0], "re": 1}}', "terms must be a list"),
            ('[{"term": [2, 0], "re": 1%s}]' % ("0" * 400), "terms[0]: re is too large for a float")):
        path = tmp_path / "malformed.json"
        path.write_text('{"flavor": "commutative", "n_vars": 2, "terms": %s}' % terms)
        assert cli.main(["sos-norm", "--input", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_approx_command_roundtrip(tmp_path, rng):
    a, _ = random_sos(rng, COMMUTATIVE, 3, 2, 3)
    path = write_poly(tmp_path, a)
    out = tmp_path / "cert.json"
    code = cli.main(["approx", "--input", path, "--eps", "2.0",
                     "--output", str(out), "--resolution", "500"])
    assert code == 0
    cert = SosCertificate.from_dict(json.loads(out.read_text()))
    assert cert.eps == 2.0
    assert not cert.verify(sample_points=500)


def test_approx_monomial_square_sum(tmp_path):
    path = write_poly(tmp_path, sum_of_monomial_squares(3, 2))
    out = tmp_path / "cert.json"
    assert cli.main(["approx", "--input", path, "--eps", "0.5",
                     "--output", str(out)]) == 0
    cert = json.loads(out.read_text())
    value = cert["sos_norm_value"]
    assert len(cert["squares"]) <= math.floor(value / 0.5)
    assert cert["error"] <= 0.5
    assert cert["norm"] == "sup-sphere"


def test_approx_exact_square_free(tmp_path):
    z1, z2 = variables(FREE, 2)
    q = z1 * z2 + 2.0 * z2 * z1
    path = write_poly(tmp_path, q.involution() * q)
    out = tmp_path / "cert.json"
    assert cli.main(["approx", "--input", path, "--eps", "0.5",
                     "--output", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert len(cert["squares"]) == 1
    assert cert["error"] == pytest.approx(0.0, abs=1e-10)


def test_approx_usage_errors(tmp_path, rng, capsys):
    a, _ = random_sos(rng, COMMUTATIVE, 2, 1, 2)
    path = write_poly(tmp_path, a)
    assert cli.main(["approx", "--input", path, "--eps", "0",
                     "--output", str(tmp_path / "c.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["approx", "--input", path, "--output", "x.json"])  # --eps missing
    assert exc.value.code == 2
    # a non-finite eps is refused before any certificate is written
    for eps in ("nan", "inf"):
        out = tmp_path / f"c-{eps}.json"
        assert cli.main(["approx", "--input", path, "--eps", eps, "--output", str(out)]) == 2
        assert not out.exists()
        assert "--eps must be a finite number > 0" in capsys.readouterr().err


def test_approx_rejects_negative_resolution(tmp_path, rng, capsys):
    a, _ = random_sos(rng, COMMUTATIVE, 2, 1, 2)
    path = write_poly(tmp_path, a)
    out = tmp_path / "cert.json"
    code = cli.main(["approx", "--input", path, "--eps", "1.0", "--output", str(out),
                     "--resolution", "-5"])
    assert code == 2
    assert not out.exists()
    assert "error: --resolution must be an integer >= 0, got -5" in capsys.readouterr().err
    # 0 keeps meaning "no sphere sampling"
    assert cli.main(["approx", "--input", path, "--eps", "1.0", "--output", str(out),
                     "--resolution", "0"]) == 0


def test_approx_failed_verification_exits_one(tmp_path, rng, capsys, monkeypatch):
    # the certificate re-read from disk fails its check: exit 1, the problem
    # on stderr, "verified": false, and the file stays for inspection
    monkeypatch.setattr(SosCertificate, "verify", lambda self, sample_points=0: ["injected"])
    a, _ = random_sos(rng, COMMUTATIVE, 3, 1, 2)
    out = tmp_path / "cert.json"
    assert cli.main(["approx", "--input", write_poly(tmp_path, a), "--eps", "1.0",
                     "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verification failed: injected\n"
    assert json.loads(captured.out)["verified"] is False
    assert out.exists()


def test_approx_infeasible_no_partial_file(tmp_path):
    x1, x2 = variables(COMMUTATIVE, 2)
    z1, z2 = variables(FREE, 2)
    # not a sum of squares (exit 3), and a unique Gram matrix with least
    # eigenvalue -1e-6, neither PSD nor certified (exit 4)
    for name, p, code in (("c.json", x1 * x1 - x2 * x2, 3), ("f.json", z1 * z1 - z2 * z2, 3),
                          ("near.json", free_input(-1e-6)[0], 4)):
        path = write_poly(tmp_path, p, name)
        out = tmp_path / "cert.json"
        assert cli.main(["approx", "--input", path, "--eps", "1.0",
                         "--output", str(out)]) == code, name
        assert not out.exists()


def test_feasible_command(tmp_path, rng, capsys):
    a, _ = random_sos(rng, COMMUTATIVE, 3, 1, 2)
    assert cli.main(["feasible", "--input", write_poly(tmp_path, a)]) == 0
    x1, x2 = variables(COMMUTATIVE, 2)
    out = tmp_path / "f.json"
    capsys.readouterr()
    code = cli.main(["feasible", "--input",
                     write_poly(tmp_path, x1 * x1 - x2 * x2, "bad.json"),
                     "--output", str(out)])
    assert code == 3
    # after the report, as sos-norm and bounds do
    assert capsys.readouterr().err == \
        "infeasible: not a sum of squares from the homogeneous basis\n"
    report = json.loads(out.read_text())
    assert report["feasible"] is False
    assert report["certificate"]["objective"] < 0
    # a rank-one input: the fiber meets the cone only at its boundary
    thin, _ = random_sos(np.random.default_rng(3), COMMUTATIVE, 3, 2, 1)
    thin_path = write_poly(tmp_path, thin, "thin.json")
    assert cli.main(["feasible", "--input", thin_path]) == 0
    assert cli.main(["feasible", "--input", thin_path, "--max-iter", "25"]) == 4
    # no entry of the witness is dropped for its size
    a, _ = random_sos(np.random.default_rng(1), COMMUTATIVE, 3, 2, 3)
    for scale in (1.0, 1e-13):
        path = write_poly(tmp_path, scale * a, "scaled.json")
        assert cli.main(["feasible", "--input", path, "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["witness"]["entries"]) == 21, scale


@pytest.mark.parametrize("command", ["sos-norm", "feasible", "approx"])
def test_inputs_not_hermitian_relative_to_their_size_exit_two(tmp_path, capsys, command):
    # their parts a - a* are below 1e-12 in absolute terms, but not relative
    # to the input: anti-Hermitian, an imaginary part 7e-10 of the input's
    # size, and a free word whose reverse is missing
    inputs = (Polynomial(COMMUTATIVE, 2, {(2, 0): 1e-15j}),
              Polynomial(COMMUTATIVE, 2, {(2, 0): 1e-3, (0, 2): 1e-3, (1, 1): 5e-13j}),
              Polynomial(FREE, 2, {(0, 1): 1e-14}))
    for i, p in enumerate(inputs):
        argv = [command, "--input", write_poly(tmp_path, p, f"p{i}.json")]
        if command == "approx":
            argv += ["--output", str(tmp_path / "cert.json"), "--eps", "1e-20"]
        assert cli.main(argv) == 2, p
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: polynomial is not Hermitian\n"
    assert not (tmp_path / "cert.json").exists()


def test_bounds_command(tmp_path, capsys):
    code = cli.main(["bounds", "--flavor", "commutative", "--n", "3", "--d", "2",
                     "--eps", "1.0", "--sos-norm-value", "3.0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim_vv"] == 15 and report["sqrt_dim_bound"] == 4
    # dim_v and theorem_bound, under no second name
    assert sorted(report) == ["degree", "dim_v", "dim_vv", "eps", "flavor", "n_vars",
                              "sos_norm_value", "sqrt_dim_bound", "theorem_allowed_rank",
                              "theorem_bound"]
    # the report carries the given value, not --d
    assert report["sos_norm_value"] == 3.0 and report["theorem_bound"] == 3.0
    assert cli.main(["bounds", "--eps", "1.0"]) == 2
    # non-finite values are refused with the flag named, not converted
    for flag, eps, value in (("--eps", "nan", "3.0"), ("--eps", "inf", "3.0"),
                             ("--sos-norm-value", "1.0", "nan"),
                             ("--sos-norm-value", "1.0", "inf"),
                             ("--sos-norm-value", "1.0", "-1.0")):
        code = cli.main(["bounds", "--flavor", "commutative", "--n", "3", "--d", "2",
                         "--eps", eps, "--sos-norm-value", value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: {flag} must be a finite number" in captured.err
    # dimensions below their least value are refused with the flag named
    for flag, n, d, least in (("--n", "0", "2", 1), ("--n", "-2", "2", 1),
                              ("--d", "3", "-1", 0)):
        code = cli.main(["bounds", "--flavor", "commutative", "--n", n, "--d", d,
                         "--eps", "1.0", "--sos-norm-value", "1.0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: {flag} must be an integer >= {least}" in captured.err
    assert cli.main(["bounds", "--flavor", "commutative", "--n", "1", "--d", "0",
                     "--eps", "1.0", "--sos-norm-value", "1.0"]) == 0


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sos-norm", "--input", "{big}"], "coefficients are too large", id="sos-norm"),
    pytest.param(["feasible", "--input", "{big}"], "coefficients are too large", id="feasible"),
    pytest.param(["approx", "--input", "{big}", "--output", "{out}", "--eps", "1e300"],
                 "coefficients are too large", id="approx"),
    pytest.param(["bounds", "--input", "{big}", "--eps", "1"], "coefficients are too large",
                 id="bounds-input"),
    pytest.param(["bounds", "--flavor", "free", "--n", "3", "--d", "2", "--eps", "1e-300",
                  "--sos-norm-value", "1e300"], "eps is too small", id="bounds-value"),
    pytest.param(["approx", "--input", "{free}", "--output", "{out}", "--eps", "1e-200"],
                 "eps is too small", id="approx-free-bound"),
])
def test_overflow_exits_two_naming_the_problem(tmp_path, capsys, argv, message):
    # coefficients whose sos-norm, the trace of a Gram matrix, is past the
    # float range have no value to return (targets whose 2-norm alone
    # overflows are solved: test_sdp), and a square-count bound past the
    # float range certifies nothing
    big = Polynomial(COMMUTATIVE, 2, {(2, 0): 1e308, (0, 2): 1e308})
    paths = {"big": write_poly(tmp_path, big, "big.json"),
             "free": write_poly(tmp_path, random_sos(np.random.default_rng(1), FREE, 2, 1, 2)[0],
                                "free.json"),
             "out": str(tmp_path / "cert.json")}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert message in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "cert.json").exists()


def test_bounds_command_from_input(tmp_path, capsys):
    path = write_poly(tmp_path, sum_of_monomial_squares(3, 1))
    assert cli.main(["bounds", "--input", path, "--eps", "1.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sos_norm_value"] == pytest.approx(3.0, abs=1e-5)
    assert report["theorem_bound"] == pytest.approx(2.0, rel=1e-5)
    assert report["theorem_allowed_rank"] == 1
    # a non-SOS input is reported as such, like sos-norm reports it
    x1, x2 = variables(COMMUTATIVE, 2)
    bad = write_poly(tmp_path, x1 * x1 - x2 * x2, "bad.json")
    assert cli.main(["bounds", "--input", bad, "--eps", "1.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "infeasible: not a sum of squares from the homogeneous basis\n"


def test_bounds_from_input_solver_cap_exits_four(tmp_path, capsys):
    path = write_poly(tmp_path, sum_of_monomial_squares(3, 2), "p32.json")
    assert cli.main(["bounds", "--input", path, "--eps", "0.5", "--max-iter", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: iteration cap 1 reached")


def test_figure_command_deterministic(tmp_path):
    out1 = tmp_path / "fig1.csv"
    out2 = tmp_path / "fig2.csv"
    assert cli.main(["figure", "--n", "3", "--d-max", "3", "--output", str(out1)]) == 0
    assert cli.main(["figure", "--n", "3", "--d-max", "3", "--output", str(out2)]) == 0
    text = out1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "d,sos_norm,sqrt_dim_bound,identity_trace"
    assert text == out2.read_text()  # byte-identical
    row1 = lines[1].split(",")
    assert float(row1[1]) == pytest.approx(3.0, abs=1e-5)
    assert float(row1[2]) == pytest.approx(math.sqrt(6), abs=1e-12)
    assert row1[3] == "3"
    row2 = lines[2].split(",")
    assert float(row2[2]) == pytest.approx(math.sqrt(15), abs=1e-12)


def test_figure_rows_up_to_d16_converge(tmp_path):
    assert cli.main(["figure", "--d-max", "16", "--output", str(tmp_path / "fig.csv")]) == 0


def test_figure_failed_rows_exit_solver(tmp_path, capsys):
    # a starved solver fails every row: the CSV is still written, with nan
    # values, and the exit code says that the solver did not converge
    out = tmp_path / "fig.csv"
    code = cli.main(["figure", "--d-max", "3", "--max-iter", "25", "--output", str(out)])
    assert code == cli.EXIT_SOLVER
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(math.isnan(float(row[1])) for row in rows)
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 3
    for d, line in zip((1, 2, 3), err):
        assert line.startswith(f"row failed: d={d}: max-iter: iteration cap 25 reached")


def test_lapack_failure_exits_solver(tmp_path, capsys, monkeypatch):
    # a LAPACK failure inside the solve is a solver failure (exit 4), not a
    # traceback, whose exit code 1 would read as a failed verification
    def fail(*args, **kwargs):
        raise linalg.NonConvergenceError("LAPACK eigensolver failed with info=3")

    monkeypatch.setattr(linalg, "psd_part", fail)
    path = write_poly(tmp_path, sum_of_monomial_squares(3, 2))
    for argv in (["sos-norm", "--input", path], ["feasible", "--input", path],
                 ["bounds", "--input", path, "--eps", "1"],
                 ["approx", "--input", path, "--eps", "1", "--output", str(tmp_path / "c.json")]):
        assert cli.main(argv) == cli.EXIT_SOLVER, argv
        err = capsys.readouterr().err
        assert err == "solver failure: LAPACK eigensolver failed with info=3\n", argv


@pytest.mark.parametrize("flag,value", [("--n", "0"), ("--n", "-1"), ("--d-max", "0"),
                                        ("--d-max", "-2")])
def test_figure_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "fig.csv"
    assert cli.main(["figure", flag, value, "--output", str(out)]) == 2
    assert not out.exists()
    assert f"error: {flag} must be an integer >= 1, got {value}" in capsys.readouterr().err


def test_figure_has_no_jobs_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "--d-max", "2", "--jobs", "2"])
    assert exc.value.code == 2


def test_output_file_mode_follows_umask(tmp_path):
    out = tmp_path / "fig.csv"
    old = os.umask(0o022)
    try:
        assert cli.main(["figure", "--d-max", "1", "--output", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


# each command with a writable --output, the same input for every one
OUTPUT_COMMANDS = {
    "sos-norm": ["--input", "{poly}"],
    "approx": ["--input", "{poly}", "--eps", "0.5", "--resolution", "0"],
    "feasible": ["--input", "{poly}"],
    "bounds": ["--flavor", "commutative", "--n", "3", "--d", "2", "--eps", "1.0",
               "--sos-norm-value", "3.0"],
    "figure": ["--d-max", "1"],
    "verify": ["--resolution", "1"],
}


@pytest.mark.parametrize("where", ["missing-directory", "existing-directory"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_unwritable_output_exits_two_naming_it(tmp_path, capsys, monkeypatch, command, where):
    # the write comes after the solve, so a bad path is a usage error, not a
    # failed verification, and its temp file is removed; verify's own checks
    # are not under test here, only its write
    monkeypatch.setattr("sos_approx.verify.run_property_suite", lambda *args, **kw: [("x", True, "")])
    poly = write_poly(tmp_path, sum_of_monomial_squares(3, 1))
    if where == "missing-directory":
        out = tmp_path / "missing" / "out"
    else:
        out = tmp_path / "out"
        out.mkdir()
    argv = [command] + [arg.format(poly=poly) for arg in OUTPUT_COMMANDS[command]]
    assert cli.main(argv + ["--output", str(out)]) == 2
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert not list(tmp_path.rglob(".tmp-*"))
    assert out.is_dir() == (where == "existing-directory")


def test_unreadable_input_names_the_problem(tmp_path, capsys):
    # a file that is not UTF-8 names its path; JSON that is no object says what a polynomial is
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff{}")
    assert cli.main(["feasible", "--input", str(latin)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {latin}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
    array = tmp_path / "array.json"
    array.write_text(json.dumps([to_dict(sum_of_monomial_squares(2, 1))]))
    assert cli.main(["feasible", "--input", str(array)]) == 2
    assert capsys.readouterr().err == (
        f"error: {array}: a polynomial is a JSON object with 'flavor', 'n_vars' and 'terms'\n")


def test_config_file_and_flag_override(tmp_path, monkeypatch, rng, capsys):
    a, _ = random_sos(rng, COMMUTATIVE, 3, 2, 2)
    path = write_poly(tmp_path, a)
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("max_iter = 2\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert cli.main(["sos-norm", "--input", path]) == 4  # starved solver
    assert cli.main(["sos-norm", "--input", path, "--max-iter", "50000"]) == 0
    # a NaN tolerance is refused up front, not run to the iteration cap
    capsys.readouterr()
    assert cli.main(["sos-norm", "--input", path, "--tol-primal", "nan"]) == 2
    assert "tol_primal" in capsys.readouterr().err
    cfg.write_text("unknown_knob = 1\n")
    assert cli.main(["sos-norm", "--input", path]) == 2


@pytest.mark.parametrize("key", ["rho", "over_relax", "check_every",
                                 "certificate_psd_tol", "certificate_value_tol"])
def test_config_file_rejects_removed_keys(tmp_path, monkeypatch, capsys, key):
    # the solver's constants are not options
    path = write_poly(tmp_path, sum_of_monomial_squares(2, 1))
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(f"{key} = 1\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert cli.main(["sos-norm", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown solver option {key!r}" in captured.err


def test_verify_command(tmp_path):
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--resolution", "400", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(entry["passed"] for entry in report.values())
    assert "free_gram_roundtrip" in report


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_resolution_below_one(tmp_path, capsys, value):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--resolution", value, "--output", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --resolution must be an integer >= 1, got {value}" in captured.err


# flag values at and past the ends of the float range, beside ordinary ones
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e-16, 1.0, 1e300, 1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def cli_polynomials(draw):
    """(JSON form, scale): a sum of random squares or random terms of
    degree 0, 2 or 4, its coefficients scaled by 10^-300..10^300, the
    first maybe written as the integer 10^300..10^400."""
    flavor = draw(st.sampled_from([COMMUTATIVE, FREE]))
    n = draw(st.integers(1, 6 if flavor == COMMUTATIVE else 3))
    d = draw(st.sampled_from([0, 1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        p = random_sos(rng, flavor, n, d, draw(st.integers(1, 3)))[0]
    else:
        terms = square_basis(flavor, n, 2 * d).terms
        picked = rng.choice(len(terms), size=min(len(terms), 6), replace=False)
        c = rng.standard_normal(len(picked)) + 1j * rng.standard_normal(len(picked))
        p = Polynomial(flavor, n, {terms[k]: v for k, v in zip(picked, c)})
        if draw(st.booleans()):
            p = p + p.involution()
    scale = 10.0 ** draw(st.integers(-300, 300))
    data = to_dict(p)
    for entry in data["terms"]:
        entry["re"], entry["im"] = entry["re"] * scale, entry["im"] * scale
    digits = draw(st.one_of(st.none(), st.integers(300, 400)))
    if digits is not None and data["terms"]:     # past 308, too large for a float
        data["terms"][0]["re"] = 10 ** digits
    return data, scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
# a free square whose Gram eigenvalue squared overflows
@example(poly=({"flavor": "free", "n_vars": 1,
                "terms": [{"term": "z1 z1", "re": 2.032604358438004e+176, "im": 0.0}]}, 1e176),
         command="approx", eps=("absolute", 3.118999338313038e+210), tolerances=[None, None],
         max_iter=50, resolution=0)
# an integer coefficient too large for a float
@example(poly=({"flavor": "commutative", "n_vars": 2,
                "terms": [{"term": [2, 0], "re": 10 ** 400, "im": 0.0}]}, 1.0),
         command="sos-norm", eps=("absolute", 1.0), tolerances=[None, None],
         max_iter=50, resolution=0)
# a form that is not a sum of squares, refused by feasible
@example(poly=({"flavor": "commutative", "n_vars": 2,
                "terms": [{"term": [2, 0], "re": 1.0, "im": 0.0},
                          {"term": [0, 2], "re": -1.0, "im": 0.0}]}, 1.0),
         command="feasible", eps=("absolute", 1.0), tolerances=[None, None],
         max_iter=50, resolution=0)
@given(poly=cli_polynomials(),
       command=st.sampled_from(["sos-norm", "approx", "feasible", "bounds"]),
       eps=st.one_of(st.tuples(st.just("absolute"), EXTREME_FLOATS),
                     st.tuples(st.just("relative"), st.floats(-30, 30))),
       tolerances=st.lists(st.one_of(st.none(), EXTREME_FLOATS), min_size=2, max_size=2),
       max_iter=st.integers(1, 50),
       resolution=st.integers(0, 50))
def test_cli_boundary_property(poly, command, eps, tolerances, max_iter, resolution):
    # whatever the input's scale and the flags, every command exits 0-4 with
    # no exception or traceback
    data, scale = poly
    kind, eps = eps
    if kind == "relative":      # 10^-30..10^30 times the coefficients' scale
        eps = scale * 10.0 ** eps
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poly.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        argv = [command, "--input", path, f"--max-iter={max_iter}"]
        argv += [f"{flag}={value!r}" for flag, value in zip(("--tol-primal", "--tol-gap"),
                                                             tolerances) if value is not None]
        if command in ("approx", "bounds"):
            argv.append(f"--eps={eps!r}")
        if command == "approx":
            argv += ["--output", os.path.join(tmp, "cert.json"), f"--resolution={resolution}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    # exit 1, a failed verification, can come from approx alone, which must
    # not refuse the certificate it wrote
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # every refusal says why
    assert code == 0 or err.getvalue().strip(), (argv, code)


# run in a fresh interpreter: no command imports the scipy.linalg package, not
# even a commutative solve, which loads scipy's compiled LAPACK module by itself
_FRESH_PROCESS = """
import contextlib, io, json, sys
import sos_approx, sos_approx.cli
from sos_approx import cli, linalg
loaded = [("import", "scipy.linalg" in sys.modules)]
free, commutative, out = json.loads(sys.argv[1])
for argv in (["approx", "--input", free, "--eps", "0.5", "--output", out],
             ["sos-norm", "--input", free], ["feasible", "--input", free],
             ["bounds", "--flavor", "free", "--n", "2", "--d", "2", "--eps", "0.5",
              "--sos-norm-value", "3.0"],
             ["bounds", "--flavor", "commutative", "--n", "3", "--d", "2", "--eps", "1.0",
              "--sos-norm-value", "3.0"],
             ["approx", "--input", free, "--eps", "0", "--output", out], ["--help"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded.append((argv[0], code, "scipy.linalg" in sys.modules))
report = io.StringIO()
with contextlib.redirect_stdout(report):
    code = cli.main(["sos-norm", "--input", commutative])
loaded.append(("sos-norm", code, "scipy.linalg" in sys.modules))
print(json.dumps({"loaded": loaded, "lapack": linalg._LAPACK.__name__, "report": report.getvalue()}))
"""


def test_fresh_process_never_imports_scipy_linalg(tmp_path, rng, capsys):
    free = write_poly(tmp_path, random_sos(rng, FREE, 2, 2, 2)[0], "free.json")
    commutative = write_poly(tmp_path, random_sos(rng, COMMUTATIVE, 3, 2, 2)[0], "c.json")
    env = {k: v for k, v in os.environ.items() if k != "SOS_APPROX_CONFIG"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS,
         json.dumps([free, commutative, str(tmp_path / "cert.json")])],
        capture_output=True, text=True, timeout=300, env=env, check=True)
    result = json.loads(done.stdout)
    assert result["loaded"] == [
        ["import", False], ["approx", 0, False], ["sos-norm", 0, False],
        ["feasible", 0, False], ["bounds", 0, False], ["bounds", 0, False],
        ["approx", 2, False], ["--help", 0, False], ["sos-norm", 0, False]]
    # the commutative solve loaded the compiled module itself, not the package's
    # fallback, and printed what an in-process run prints
    assert result["lapack"] == "scipy.linalg._flapack"
    assert cli.main(["sos-norm", "--input", commutative]) == 0
    assert result["report"] == capsys.readouterr().out
