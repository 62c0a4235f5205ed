"""Command-line front end: polynomial I/O, pipelines, experiments, verification.

Commands: sos-norm, approx, feasible, bounds, figure, verify.  Solver
tolerances come from (in increasing precedence) built-in defaults, the
key=value file named by SOS_APPROX_CONFIG, and command-line flags.  Output
files are written atomically (temp file + rename); identical inputs and
seeds produce byte-identical outputs.

Exit codes: 0 success, 1 failed verification, 2 usage/parse error,
3 input not a sum of squares, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import approx as approx_mod
from . import linalg, poly, sdp
from .gram import basis_size, homogeneous_basis, square_basis
from .poly import COMMUTATIVE, FREE, Polynomial, sum_of_monomial_squares

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

CONFIG_ENV = "SOS_APPROX_CONFIG"
FIGURE_HEADER = "d,sos_norm,sqrt_dim_bound,identity_trace"


def _atomic_write(path: str, text: str) -> None:
    """text into path by a temp file and a rename; a path that cannot be
    written is a usage error, raised after the solve that made text."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CliError(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _load_polynomial(path: str) -> Polynomial:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_USAGE, f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_USAGE,
                       f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    try:
        return poly.from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_USAGE, f"{path}: {exc}") from exc


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def solver_options(args: argparse.Namespace) -> sdp.SolverOptions:
    mapping: dict[str, str] = {}
    config_path = os.environ.get(CONFIG_ENV)
    if config_path:
        try:
            mapping.update(sdp.parse_config_file(config_path))
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_USAGE, f"config file: {exc}") from exc
    for key in ("tol_primal", "tol_gap", "max_iter"):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = str(value)
    try:
        return sdp.SolverOptions.from_mapping(mapping)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc


def cmd_sos_norm(args: argparse.Namespace) -> int:
    p = _load_polynomial(args.input)
    basis = homogeneous_basis(p)
    options = solver_options(args)
    value, sol = sdp.sos_norm(p, basis, options)
    report = {
        "value": value,
        "status": sol.status.value,
        "duality_gap": sol.gap,
        "dual_lower_bound": sol.dual_objective,
        "primal_residual": sol.primal_residual,
        "iterations": sol.iterations,
        "method": "sdp",
    }
    if p.flavor == FREE:     # sdp.sos_norm reads the unique Gram matrix off
        report.update(method="closed-form (free)", solver_value=value)
    if sol.status is sdp.SolveStatus.INFEASIBLE:
        report["certificate"] = _certificate_dict(sol.certificate)
        _emit(args, report)
        print("infeasible: not a sum of squares from the homogeneous basis",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    if sol.status is not sdp.SolveStatus.OPTIMAL:
        _emit(args, report)
        print(f"solver did not converge: {sol.message}", file=sys.stderr)
        return EXIT_SOLVER
    _emit(args, report)
    return EXIT_OK


def _finite(value):
    """value with every non-finite float in it replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(args: argparse.Namespace, report: dict) -> None:
    text = json.dumps(_finite(report), indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if getattr(args, "output", None):
        _atomic_write(args.output, text + "\n")


def _certificate_dict(cert: sdp.DualFunctional) -> dict:
    return {"values": list(cert.values), "objective": cert.objective,
            "psd_margin": cert.psd_margin}


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise CliError(EXIT_USAGE, f"--eps must be a finite number > 0, got {eps!r}")


def _check_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise CliError(EXIT_USAGE, f"{flag} must be an integer >= {least}, got {value}")


def cmd_approx(args: argparse.Namespace) -> int:
    _check_eps(args.eps)
    _check_at_least("--resolution", args.resolution, 0)
    p = _load_polynomial(args.input)
    options = solver_options(args)
    cert = approx_mod.approximate(p, homogeneous_basis(p), args.eps, options)
    _atomic_write(args.output, cert.to_json() + "\n")
    with open(args.output, "r", encoding="utf-8") as fh:
        reread = approx_mod.SosCertificate.from_dict(json.load(fh))
    problems = reread.verify(sample_points=args.resolution)
    summary = {
        "squares": cert.rank,
        "allowed_rank": cert.allowed_rank,
        "error": cert.error,
        "norm": cert.norm,
        "eps": cert.eps,
        "sos_norm_value": cert.sos_norm_value,
        "output": args.output,
        "verified": not problems,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if problems:
        for issue in problems:
            print(f"verification failed: {issue}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_feasible(args: argparse.Namespace) -> int:
    p = _load_polynomial(args.input)
    basis = homogeneous_basis(p)
    options = solver_options(args)
    result = sdp.sos_feasible(p, basis, options)
    report: dict = {"feasible": result.feasible, "iterations": result.iterations,
                    "residual": result.primal_residual}
    if result.feasible:
        report["witness"] = linalg.hermitian_to_dict(result.matrix)
    else:
        report["certificate"] = _certificate_dict(result.certificate)
    _emit(args, report)
    if not result.feasible:
        print("infeasible: not a sum of squares from the homogeneous basis", file=sys.stderr)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_bounds(args: argparse.Namespace) -> int:
    _check_eps(args.eps)
    if args.sos_norm_value is not None:
        value = args.sos_norm_value
        if not (math.isfinite(value) and value >= 0):
            raise CliError(EXIT_USAGE,
                           f"--sos-norm-value must be a finite number >= 0, got {value!r}")
        flavor, n, d = args.flavor, args.n, args.d
        if None in (flavor, n, d):
            raise CliError(EXIT_USAGE,
                           "--flavor, --n and --d are required with --sos-norm-value")
        _check_at_least("--n", n, 1)
        _check_at_least("--d", d, 0)
    elif args.input:
        p = _load_polynomial(args.input)
        basis = homogeneous_basis(p)
        value, sol = sdp.sos_norm(p, basis, solver_options(args))
        if sol.status is sdp.SolveStatus.INFEASIBLE:     # main prints "infeasible: ..."
            raise approx_mod.NotSosError("not a sum of squares from the homogeneous basis")
        if sol.status is not sdp.SolveStatus.OPTIMAL:
            print(f"solver failure: {sol.message}", file=sys.stderr)
            return EXIT_SOLVER
        flavor, n, d = p.flavor, p.n_vars, basis.degree
    else:
        raise CliError(EXIT_USAGE, "provide --sos-norm-value or --input")
    report = approx_mod.bound_report(flavor, n, d, args.eps, value)
    _emit(args, report.to_dict())
    return EXIT_OK


def _figure_row(n: int, d: int, options: sdp.SolverOptions) -> float:
    p = sum_of_monomial_squares(n, d)
    value, sol = sdp.sos_norm(p, square_basis(COMMUTATIVE, n, d), options)
    if sol.status is not sdp.SolveStatus.OPTIMAL:
        raise sdp.SolverError(f"{sol.status.value}: {sol.message}", sol)
    return value


def cmd_figure(args: argparse.Namespace) -> int:
    _check_at_least("--n", args.n, 1)
    _check_at_least("--d-max", args.d_max, 1)
    n = args.n
    options = solver_options(args)
    lines = [FIGURE_HEADER]
    failures: list[str] = []
    for d in range(1, args.d_max + 1):
        try:
            value = _figure_row(n, d, options)
        except (sdp.SolverError, linalg.NonConvergenceError) as exc:
            failures.append(f"d={d}: {exc}")
            value = math.nan
        bound = math.sqrt(basis_size(COMMUTATIVE, n, 2 * d))
        lines.append(f"{d},{value!r},{bound!r},{basis_size(COMMUTATIVE, n, d)}")
    text = "\n".join(lines) + "\n"
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    for failure in failures:
        print(f"row failed: {failure}", file=sys.stderr)
    return EXIT_SOLVER if failures else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_property_suite

    seed = args.seed if args.seed is not None else 20240901
    _check_at_least("--resolution", args.resolution, 1)
    options = solver_options(args)
    results = run_property_suite(seed, options, resolution=args.resolution)
    report = {name: {"passed": ok, "detail": detail}
              for name, ok, detail in results}
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if getattr(args, "output", None):
        _atomic_write(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sos-approx",
        description="Approximate sums of Hermitian squares with small "
                    "Pythagoras number")
    sub = parser.add_subparsers(dest="command", required=True)

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol-primal", dest="tol_primal", type=float,
                        help="constraint residual tolerance (relative)")
    solver.add_argument("--tol-gap", dest="tol_gap", type=float,
                        help="duality gap tolerance (relative)")
    solver.add_argument("--max-iter", dest="max_iter", type=int,
                        help="solver iteration cap")

    ps = sub.add_parser("sos-norm", parents=[solver],
                        help="minimal Gram trace of a polynomial")
    ps.add_argument("--input", required=True, help="polynomial JSON file")
    ps.add_argument("--output", help="write the JSON report here")
    ps.set_defaults(func=cmd_sos_norm)

    pa = sub.add_parser("approx", parents=[solver],
                        help="approximate by a short sum of squares")
    pa.add_argument("--input", required=True)
    pa.add_argument("--output", required=True, help="certificate JSON file")
    pa.add_argument("--eps", type=float, required=True)
    pa.add_argument("--resolution", type=int, default=2000,
                    help="at least this many sphere points for the certificate "
                         "re-check (n >= 4 rounds up to a full lattice level); 0 skips it")
    pa.set_defaults(func=cmd_approx)

    pf = sub.add_parser("feasible", parents=[solver],
                        help="test membership in the cone of squares")
    pf.add_argument("--input", required=True)
    pf.add_argument("--output")
    pf.set_defaults(func=cmd_feasible)

    pb = sub.add_parser("bounds", parents=[solver],
                        help="dimension counts and square-count bounds")
    pb.add_argument("--flavor", choices=[COMMUTATIVE, FREE])
    pb.add_argument("--n", type=int)
    pb.add_argument("--d", type=int)
    pb.add_argument("--eps", type=float, required=True)
    pb.add_argument("--sos-norm-value", dest="sos_norm_value", type=float)
    pb.add_argument("--input", help="compute the sos-norm of this polynomial instead")
    pb.add_argument("--output")
    pb.set_defaults(func=cmd_bounds)

    pg = sub.add_parser("figure", parents=[solver],
                        help="sos-norm growth experiment (CSV)")
    pg.add_argument("--n", type=int, default=3)
    pg.add_argument("--d-max", dest="d_max", type=int, default=8,
                    help="last degree row; on a 2-vCPU VM 12 takes about 1.1 s "
                         "and 16 about 3 s")
    pg.add_argument("--output")
    pg.set_defaults(func=cmd_figure)

    pv = sub.add_parser("verify", parents=[solver],
                        help="run the cross-module property suite")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--resolution", type=int, default=1000, help="sphere sample size")
    pv.add_argument("--output")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except approx_mod.NotSosError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (sdp.SolverError, linalg.NonConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
