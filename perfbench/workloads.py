"""Seeded workload inputs, the timed operations on them, and independent output checks.

Every op is a closed-loop call into the library: `run()` is timed and returns
(outcome, payload); `check(payload)` runs untimed and says whether the output
is right. Outcomes are "ok"; "wrong" and "missed_rejection", answers the
program presents as right that are not; and "solver_error", "max_iter",
"verify_failed" (the CLI refused its own certificate, exit code 1) and "error"
(an unexpected exception), failures to answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sos_approx import approx, cli, sdp
from sos_approx.gram import build_constraints, square_basis
from sos_approx.poly import COMMUTATIVE, FREE, Polynomial

ROW_TOL = 1e-6          # figure values, relative to the recorded references
GRAM_TOL = 1e-6         # Gram image of M against the input, relative to 1 + |input|
PSD_TOL = 1e-8          # smallest eigenvalue, relative to the largest
REASSEMBLY_TOL = 1e-8   # squares against the approximation, relative to 1 + |input|
PYTHAGORAS_TOL = 1e-6   # exact decompositions, coefficient 2-norm


# the CLI's exit codes on sums of squares: 1 means it re-checked its own
# certificate and refused it, 3 that it called a sum of squares infeasible
CLI_OUTCOMES = {cli.EXIT_OK: "ok", cli.EXIT_VERIFY_FAILED: "verify_failed",
                cli.EXIT_INFEASIBLE: "wrong", cli.EXIT_SOLVER: "solver_error"}


@dataclass
class Op:
    kind: str
    run: Callable[[], tuple[str, object]]
    check: Callable[[object], str]
    squares: Callable[[object], int] = lambda payload: 0   # squares a right answer returned
    request: int = 0    # ops with one request id make up one thing a user waits for


# -- polynomial helpers kept independent of the library's arithmetic --------------

def compositions(total: int, parts: int):
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + cut + (total + parts - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(parts))


def basis_terms(flavor: str, n: int, d: int) -> tuple:
    return square_basis(flavor, n, d).terms


def gram_to_coeffs(G: np.ndarray, terms, flavor: str) -> dict:
    """Coefficients of sum_ij G_ij v_i* v_j for monomial (or word) basis terms."""
    out: dict = {}
    for i, ti in enumerate(terms):
        left = ti[::-1] if flavor == FREE else ti
        for j, tj in enumerate(terms):
            t = left + tj if flavor == FREE else tuple(a + b for a, b in zip(ti, tj))
            out[t] = out.get(t, 0.0) + G[i, j]
    if flavor == COMMUTATIVE:
        return {t: complex(c.real, 0.0) for t, c in out.items()}
    return out


def squares_gram(squares) -> np.ndarray:
    return sum(np.outer(np.conj(c), c) for c in squares)


def coeff_distance(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return math.sqrt(sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) ** 2 for k in keys))


def coeff_norm(a: dict) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in a.values()))


def evaluate(coeffs: dict, points: np.ndarray) -> np.ndarray:
    terms = np.array(list(coeffs), dtype=np.int64)
    values = np.array(list(coeffs.values()), dtype=complex)
    return (points[:, None, :] ** terms[None, :, :]).prod(axis=2) @ values


def sphere_points(rng, n: int, m: int) -> np.ndarray:
    x = rng.standard_normal((m, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_squares(rng, size: int, r: int) -> list[np.ndarray]:
    return [rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(r)]


def poly_json(flavor: str, n: int, coeffs: dict) -> dict:
    terms = []
    for t, c in coeffs.items():
        enc = list(t) if flavor == COMMUTATIVE else " ".join(f"z{s + 1}" for s in t)
        terms.append({"term": enc, "re": c.real, "im": c.imag})
    return {"flavor": flavor, "n_vars": n, "terms": terms}


def coeffs_from_json(data: dict) -> dict:
    out = {}
    for entry in data["terms"]:
        enc = entry["term"]
        t = tuple(enc) if isinstance(enc, list) else tuple(int(s[1:]) - 1 for s in enc.split())
        out[t] = complex(entry["re"], entry.get("im", 0.0))
    return out


def run_cli(argv: list[str]) -> int:
    """cli.main with its printing captured; an argparse exit becomes its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else cli.EXIT_USAGE


def psd_ok(M: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(M)
    return bool(w[0] >= -PSD_TOL * max(1.0, float(np.abs(w).max())))


# -- figure ------------------------------------------------------------------------

def monomial_square_sum(n: int, d: int) -> dict:
    return {tuple(2 * e for e in alpha): 1.0 + 0j for alpha in compositions(d, n)}


def figure_ops(references: dict, degrees) -> list[Op]:
    """One op per row d, in the order `sos-approx figure` runs them; one request."""
    ops = []
    for d in degrees:
        coeffs = monomial_square_sum(3, d)
        ops.append(Op(f"figure.d{d}", _figure_run(Polynomial(COMMUTATIVE, 3, coeffs), d),
                      _figure_check(coeffs, d, references)))
    return ops


def _figure_run(p: Polynomial, d: int):
    def run():
        value, sol = sdp.sos_norm(p, square_basis(COMMUTATIVE, 3, d))
        return ("ok" if sol.status is sdp.SolveStatus.OPTIMAL else "max_iter"), (value, sol)
    return run


def _figure_check(coeffs: dict, d: int, references: dict):
    def check(payload) -> str:
        value, sol = payload
        ref = references[str(d)]["value"]
        if abs(value - ref) > ROW_TOL * abs(ref):
            return "wrong"
        M = np.asarray(sol.matrix)
        image = gram_to_coeffs(M, basis_terms(COMMUTATIVE, 3, d), COMMUTATIVE)
        if coeff_distance(image, coeffs) > GRAM_TOL * (1.0 + coeff_norm(coeffs)) or not psd_ok(M):
            return "wrong"
        return "ok"
    return check


# -- certify -----------------------------------------------------------------------

def certify_ops(seed: int, per_kind: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(per_kind):
        d = 1 + i % 3
        terms = basis_terms(COMMUTATIVE, 3, d)
        squares = random_squares(rng, len(terms), 2 + int(rng.integers(0, 3)))
        G = squares_gram(squares)
        eps = float(rng.uniform(0.1, 0.3)) * float(np.trace(G).real)
        coeffs = gram_to_coeffs(G, terms, COMMUTATIVE)
        ops.append(_cli_op("certify.sphere", COMMUTATIVE, 3, coeffs, eps, workdir, f"s{i}",
                           sphere_points(rng, 3, 256)))

        n, d = 1 + i % 3, 1 + (i // 3) % 3
        terms = basis_terms(FREE, n, d)
        coeffs = gram_to_coeffs(squares_gram(random_squares(rng, len(terms), 1 + int(rng.integers(0, 3)))),
                                terms, FREE)
        closed_form = float(sum(coeffs.get(w[::-1] + w, 0.0) for w in terms).real)
        eps = float(rng.uniform(0.15, 0.6)) * closed_form
        ops.append(_cli_op("certify.free", FREE, n, coeffs, eps, workdir, f"f{i}", None))

        terms = basis_terms(COMMUTATIVE, 3, 2)
        coeffs = gram_to_coeffs(squares_gram(random_squares(rng, len(terms), 3 + int(rng.integers(0, 4)))),
                                terms, COMMUTATIVE)
        ops.append(_pythagoras_op(coeffs))
    for i, op in enumerate(ops):            # every certificate is its own request
        op.request = i
    return ops


def _cli_op(kind, flavor, n, coeffs, eps, workdir, tag, points) -> Op:
    src = os.path.join(workdir, f"{tag}.json")
    out = os.path.join(workdir, f"{tag}.cert.json")
    with open(src, "w", encoding="utf-8") as fh:
        json.dump(poly_json(flavor, n, coeffs), fh)
    argv = ["approx", "--input", src, "--output", out, "--eps", repr(eps)]

    def run():
        return CLI_OUTCOMES.get(run_cli(argv), "error"), None

    def read():
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh)

    return Op(kind, run, lambda _: check_certificate(read(), flavor, coeffs, eps, points),
              lambda _: len(read()["squares"]))


def check_certificate(cert: dict, flavor: str, coeffs: dict, eps: float, points) -> str:
    """The certificate as re-read from disk: rank, error, squares and input all hold."""
    norm_a = coeff_norm(coeffs)
    if coeff_distance(coeffs_from_json(cert["input"]), coeffs) > 1e-12 * (1.0 + norm_a):
        return "wrong"
    squares = [np.array([complex(re, im) for re, im in c]) for c in cert["squares"]]
    if not len(squares) < cert["theoretical_bound"]:
        return "wrong"
    if not cert["error"] <= eps * (1.0 + 1e-12):
        return "wrong"
    b = cert["basis"]
    terms = basis_terms(b["flavor"], b["n_vars"], b["degree"])
    approximation = coeffs_from_json(cert["approximation"])
    rebuilt = gram_to_coeffs(squares_gram(squares), terms, flavor) if squares else {}
    if coeff_distance(rebuilt, approximation) > REASSEMBLY_TOL * (1.0 + norm_a):
        return "wrong"
    if flavor == FREE:
        measured = coeff_distance(coeffs, approximation)
        return "ok" if measured <= cert["error"] * (1.0 + 1e-9) + 1e-12 else "wrong"
    diff = {t: coeffs.get(t, 0.0) - approximation.get(t, 0.0) for t in set(coeffs) | set(approximation)}
    sampled = float(np.abs(evaluate(diff, points)).max())
    return "ok" if sampled <= cert["error"] * (1.0 + 1e-9) + 1e-9 else "wrong"


def _pythagoras_op(coeffs: dict) -> Op:
    p = Polynomial(COMMUTATIVE, 3, coeffs)

    def run():
        try:
            return "ok", approx.pythagoras_upper_bound(p, square_basis(COMMUTATIVE, 3, 2))
        except sdp.SolverError:
            return "solver_error", None

    def check(witness) -> str:
        bound = math.isqrt(15 - 1) + 1          # ceil(sqrt(dim V*V)), n=3, d=2
        if witness.bound != bound or not witness.count <= bound or witness.count != len(witness.squares):
            return "wrong"
        if not witness.residual <= PYTHAGORAS_TOL:
            return "wrong"
        rebuilt = gram_to_coeffs(squares_gram(witness.squares), basis_terms(COMMUTATIVE, 3, 2), COMMUTATIVE)
        return "ok" if coeff_distance(rebuilt, coeffs) <= PYTHAGORAS_TOL else "wrong"

    return Op("certify.pythagoras", run, check, lambda witness: witness.count)


# -- reject ------------------------------------------------------------------------

MOTZKIN = {(4, 2, 0): 1, (2, 4, 0): 1, (0, 0, 6): 1, (2, 2, 2): -3}
CHOI_LAM_S = {(4, 2, 0): 1, (0, 4, 2): 1, (2, 0, 4): 1, (2, 2, 2): -3}
ROBINSON = {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1,
            (4, 2, 0): -1, (2, 4, 0): -1, (4, 0, 2): -1, (2, 0, 4): -1, (0, 4, 2): -1, (0, 2, 4): -1,
            (2, 2, 2): 3}
SHIFT_MARGIN = 0.01     # c = min + margin * (median - min) of the form on sampled sphere points


def reject_ops(seed: int, per_degree: dict, named: bool = True) -> list[Op]:
    rng = np.random.default_rng(seed)
    forms = []
    if named:
        swapped = {(e[1], e[0], e[2]): c for e, c in CHOI_LAM_S.items()}   # x <-> y
        forms += [("reject.motzkin", MOTZKIN), ("reject.choi_lam", CHOI_LAM_S),
                  ("reject.choi_lam_swapped", swapped), ("reject.robinson", ROBINSON)]
    points = sphere_points(rng, 3, 4000)
    for d, count in per_degree.items():
        terms = basis_terms(COMMUTATIVE, 3, d)
        for _ in range(count):
            squares = random_squares(rng, len(terms), 2 + int(rng.integers(0, 3)))
            sos = gram_to_coeffs(squares_gram(squares), terms, COMMUTATIVE)
            values = evaluate(sos, points).real
            c = values.min() + SHIFT_MARGIN * (np.median(values) - values.min())
            # sos - c |x|^{2d}: negative at the sampled minimiser, so not a sum of squares
            shifted = dict(sos)
            for alpha in compositions(d, 3):
                t = tuple(2 * e for e in alpha)
                multinomial = math.factorial(d) / math.prod(math.factorial(e) for e in alpha)
                shifted[t] = shifted.get(t, 0.0) - c * multinomial
            forms.append((f"reject.shifted_d{d}", shifted))
    return [_reject_op(kind, {t: complex(c) for t, c in coeffs.items()}) for kind, coeffs in forms]


def _reject_op(kind: str, coeffs: dict) -> Op:
    p = Polynomial(COMMUTATIVE, 3, coeffs)
    d = p.degree() // 2

    def run():
        try:
            approx.approximate_sphere(p, 1.0)
        except approx.NotSosError as exc:
            return "ok", exc.certificate
        except sdp.SolverError:
            return "solver_error", None
        return "missed_rejection", None

    def check(certificate) -> str:
        """Farkas certificate: sum_l y_l A_l is PSD and targets . y < 0."""
        if certificate is None:
            return "wrong"
        y = np.asarray(certificate.values, dtype=float)
        constraints = build_constraints(p, square_basis(COMMUTATIVE, 3, d))
        if not psd_ok(constraints.adjoint(y)):
            return "wrong"
        return "ok" if float(constraints.targets @ y) < 0.0 else "wrong"

    return Op(kind, run, check)


# -- the three workloads -----------------------------------------------------------

def build(workload: str, seed: int, workdir: str, references: dict, tiny: bool) -> list[Op]:
    """The workload's ops. A figure is one request of ten rows, as is a reject
    screening of its forms; each certificate is a request of its own."""
    if workload == "figure":
        return figure_ops(references, range(1, 4) if tiny else range(1, 11))
    if workload == "certify":
        return certify_ops(seed, 3 if tiny else 100, workdir)
    if workload == "reject":
        if tiny:
            return reject_ops(seed, {1: 1}, named=False) + [
                _reject_op("reject.choi_lam", {t: complex(c) for t, c in CHOI_LAM_S.items()})]
        return reject_ops(seed, {1: 2, 2: 2, 3: 2})
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("figure", "certify", "reject")
