"""Layout rules over the library's sources: each names a pattern that one module
alone may match, or none.  A new rule is one row of RULES."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sos_approx"

# a file opened for writing, by mode or by a helper that creates one
WRITE_OPEN = r"""open\([^)]*["'][wax]|mkstemp|NamedTemporaryFile|\.write_(text|bytes)\("""

# (name, regex searched anywhere in a line as `grep -E` does, the one module allowed
# to match or None, a planted (module, line) it must flag, and one it must let through)
RULES = [
    # the constraint layout and the word-cell index of free inputs are read in gram.py
    # only; other modules go through GramConstraints, BlockSystem, free_gram and upper_reads
    ("constraint-layout-in-gram",
     r"\._products|_cell_to_prod|\._conj\b|\.tau\b|\.omegas\b|_skeleton|_word_cells", "gram.py",
     ("sdp.py", "cell_to_prod = basis._products[2]"), ("sdp.py", "taus = basis.taus")),
    # one truncation rule: the Schatten tails (a power-of-two scaling and a reversed
    # cumsum) and the square-count bound are computed in linalg.py only
    ("truncation-rule-in-linalg", r"frexp|cumsum\(.*\[::-1\]|truncation_count|_square_count_bound",
     "linalg.py", ("approx.py", "m, e = np.frexp(x)"), ("linalg.py", "e = math.frexp(w[0])[1]")),
    # one zero rule: arithmetic drops exact zeros only and the feasible witness keeps
    # every nonzero entry, so 2^k a keeps a's terms
    ("no-absolute-drop", r"COEFF_DROP_TOL|drop_tol", None,
     ("poly.py", "if abs(c) >= COEFF_DROP_TOL:"), ("sdp.py", "tol = options.tol_primal * scale")),
    # one squares rule: a PSD Gram matrix becomes squares in approx._squares only, and
    # a residual is read in the Gram space, not by subtraction
    ("squares-in-approx", r"low_rank_factor|SQUARE_CUTOFF_REL|reassembled\(\) -", None,
     ("verify.py", "residual = cert.reassembled() - a"),
     ("approx.py", "keep = np.count_nonzero(w > linalg.RANK_CUTOFF_REL * w[0])")),
    # LAPACK is loaded at the first solve that needs it: linalg.py alone names scipy
    # (`grep -w`), and only its gateway `_lapack` imports scipy.linalg, as its fallback
    # inside the function, never at module level
    ("scipy-named-in-linalg", r"\bscipy\b", "linalg.py",
     ("sdp.py", "w = scipy.linalg.eigh(M, eigvals_only=True)"), ("sdp.py", 'blas = "scipy_openblas"')),
    ("scipy-imported-in-a-function", r"^(import|from) +scipy", None,
     ("linalg.py", "import scipy.linalg"), ("linalg.py", "        import scipy.linalg")),
    # the library writes no file: cli.py alone opens one for writing, in
    # _atomic_write (test_files_are_written_through_atomic_write), and the
    # certificate encodes into the handle it is given
    ("files-written-by-cli", WRITE_OPEN, "cli.py",
     ("approx.py", 'with open(path, "w", encoding="utf-8") as fh:'),
     ("sdp.py", 'with open(path, "r", encoding="utf-8") as fh:')),
    # rank reduction steps on the witness's r x r core: no module forms a full SVD
    # or names the generalized eigensolver
    ("no-full-svd", r"null_space|pencil_eigenvalues|svd\(", None,
     ("sdp.py", "U, s, Vt = np.linalg.svd(A)"), ("sdp.py", "s, U = np.linalg.eigh(K @ K.T)")),
]
by_rule = pytest.mark.parametrize("name,pattern,allowed,flagged,passed", RULES,
                                  ids=[rule[0] for rule in RULES])


def violations(pattern, allowed, sources):
    """`file:line: text` of each line of `sources` ({module: text}) outside `allowed` that matches."""
    return [f"src/sos_approx/{module}:{number}: {line}"
            for module, text in sorted(sources.items()) if module != allowed
            for number, line in enumerate(text.splitlines(), 1) if re.search(pattern, line)]


@by_rule
def test_layout_rule_holds(name, pattern, allowed, flagged, passed):
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "linalg.py" in sources, f"no library sources under {SRC}"
    found = violations(pattern, allowed, sources)
    assert not found, f"{name}:\n" + "\n".join(found)


@by_rule
def test_layout_rule_flags_its_planted_line(name, pattern, allowed, flagged, passed):
    module, line = flagged
    assert violations(pattern, allowed, {module: line}) == [f"src/sos_approx/{module}:1: {line}"]
    assert violations(pattern, allowed, dict([passed])) == []


def test_files_are_written_through_atomic_write():
    text = (SRC / "cli.py").read_text(encoding="utf-8")
    [writer] = [node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef) and node.name == "_atomic_write"]
    lines = [number for number, line in enumerate(text.splitlines(), 1)
             if re.search(WRITE_OPEN, line)]
    assert lines and all(writer.lineno <= n <= writer.end_lineno for n in lines), lines
