"""Sparse polynomials over C with involution.

Two flavors share one representation: commutative polynomials in x1..xn
(terms are exponent vectors, the involution conjugates coefficients) and
free polynomials in Hermitian letters z1..zn (terms are words, the
involution additionally reverses each word).  Also provides the unit-sphere
machinery (deterministic quasi-uniform lattices, evaluation, sup-norm lower
estimates) used for commutative polynomials.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from itertools import product as _iproduct
from typing import Iterable, Mapping, Sequence

import numpy as np

COMMUTATIVE = "commutative"
FREE = "free"

# |c| below this is dropped after arithmetic; construction only drops exact zeros
# so that JSON round-trips are exact for any double-representable coefficient.
COEFF_DROP_TOL = 1e-14
SPHERE_TOL = 1e-12
HERMITIAN_TOL = 1e-12       # ||p - p*|| relative to 1 + ||p|| (coefficient 2-norm)
ASCENT_STEPS = 400          # gradient steps of `sup_norm_sphere`

Term = tuple


class FlavorMismatchError(ValueError):
    """Operands live in different *-algebras."""


class DimensionMismatchError(ValueError):
    """Vector/term length does not match the number of variables."""


def _check_flavor(flavor: str) -> None:
    if flavor not in (COMMUTATIVE, FREE):
        raise ValueError(f"unknown flavor {flavor!r}")


def term_degree(flavor: str, term: Term) -> int:
    return sum(term) if flavor == COMMUTATIVE else len(term)


def term_sort_key(flavor: str, term: Term):
    """Graded lexicographic (x1-major) for monomials, length-then-lex for words."""
    if flavor == COMMUTATIVE:
        return (sum(term), tuple(-e for e in term))
    return (len(term), term)


def involute_term(flavor: str, term: Term) -> Term:
    return term if flavor == COMMUTATIVE else term[::-1]


def multiply_terms(flavor: str, s: Term, t: Term) -> Term:
    if flavor == COMMUTATIVE:
        return tuple(a + b for a, b in zip(s, t))
    return s + t


def _validate_term(flavor: str, n_vars: int, term) -> Term:
    term = tuple(term)
    if any(isinstance(e, bool) or not isinstance(e, numbers.Integral) for e in term):
        what = "exponents" if flavor == COMMUTATIVE else "symbols"
        raise ValueError(f"term {term!r}: {what} must be integers")
    term = tuple(int(e) for e in term)
    if flavor == COMMUTATIVE:
        if len(term) != n_vars:
            raise DimensionMismatchError(
                f"monomial {term} has {len(term)} exponents, expected {n_vars}")
        if any(e < 0 for e in term):
            raise ValueError(f"negative exponent in monomial {term}")
    else:
        if any(not 0 <= s < n_vars for s in term):
            raise ValueError(f"word {term} uses symbols outside 0..{n_vars - 1}")
    return term


class Polynomial:
    """Immutable sparse polynomial: a finite map from terms to complex coefficients.

    Stored coefficients are never exactly zero.  All operations return new
    objects; instances are safe to share between threads.
    """

    __slots__ = ("flavor", "n_vars", "_coeffs")

    def __init__(self, flavor: str, n_vars: int,
                 coeffs: Mapping[Term, complex] | None = None):
        _check_flavor(flavor)
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        clean: dict[Term, complex] = {}
        for term, c in (coeffs or {}).items():
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of term {term} is not finite")
            if c != 0:
                clean[_validate_term(flavor, n_vars, term)] = c
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _raw(cls, flavor: str, n_vars: int, coeffs: dict) -> "Polynomial":
        # internal fast path: caller guarantees canonical terms, nonzero coeffs
        p = object.__new__(cls)
        object.__setattr__(p, "flavor", flavor)
        object.__setattr__(p, "n_vars", n_vars)
        object.__setattr__(p, "_coeffs", coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, flavor: str, n_vars: int) -> "Polynomial":
        return cls(flavor, n_vars, {})

    @classmethod
    def variable(cls, flavor: str, n_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise ValueError(f"variable index {index} out of range")
        if flavor == COMMUTATIVE:
            term = tuple(1 if i == index else 0 for i in range(n_vars))
        else:
            term = (index,)
        return cls(flavor, n_vars, {term: 1.0})

    @classmethod
    def monomial(cls, n_vars: int, exponents: Sequence[int],
                 coeff: complex = 1.0) -> "Polynomial":
        return cls(COMMUTATIVE, n_vars, {tuple(exponents): coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Term, complex]]:
        """Terms and coefficients in canonical order."""
        key = lambda tc: term_sort_key(self.flavor, tc[0])
        return sorted(self._coeffs.items(), key=key)

    def coefficient(self, term) -> complex:
        return self._coeffs.get(tuple(term), 0.0)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        if not self._coeffs:
            return 0
        return max(term_degree(self.flavor, t) for t in self._coeffs)

    def is_homogeneous(self) -> bool:
        degs = {term_degree(self.flavor, t) for t in self._coeffs}
        return len(degs) <= 1

    def is_hermitian(self) -> bool:
        diff = self - self.involution()
        return diff.coeff_two_norm() <= HERMITIAN_TOL * (1.0 + self.coeff_two_norm())

    # -- algebra -----------------------------------------------------------

    def _require_same_algebra(self, other: "Polynomial") -> None:
        if self.flavor != other.flavor:
            raise FlavorMismatchError(
                f"cannot combine {self.flavor} and {other.flavor} polynomials")
        if self.n_vars != other.n_vars:
            raise DimensionMismatchError(
                f"variable counts differ: {self.n_vars} vs {other.n_vars}")

    @staticmethod
    def _cleaned(coeffs: dict) -> dict:
        """The coefficients of an arithmetic result without those below
        COEFF_DROP_TOL, rounding left by cancellation.  A coefficient that is
        not finite (the arithmetic overflowed) raises ValueError: dropped as
        NaN or kept as inf, it would change the polynomial silently."""
        kept = {t: c for t, c in coeffs.items() if COEFF_DROP_TOL <= abs(c) < math.inf}
        if len(kept) < len(coeffs):
            for t, c in coeffs.items():
                if not cmath.isfinite(c):
                    raise ValueError(f"the coefficients are too large: term {t} overflows to {c}")
        return kept

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_algebra(other)
        out = dict(self._coeffs)
        for t, c in other._coeffs.items():
            out[t] = out.get(t, 0.0) + c
        return Polynomial._raw(self.flavor, self.n_vars, self._cleaned(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.flavor, self.n_vars,
                               {t: -c for t, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_algebra(other)
            out: dict[Term, complex] = {}
            for t1, c1 in self._coeffs.items():
                for t2, c2 in other._coeffs.items():
                    t = multiply_terms(self.flavor, t1, t2)
                    out[t] = out.get(t, 0.0) + c1 * c2
            return Polynomial._raw(self.flavor, self.n_vars, self._cleaned(out))
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return Polynomial.zero(self.flavor, self.n_vars)
            return Polynomial._raw(
                self.flavor, self.n_vars,
                self._cleaned({t: c * other for t, c in self._coeffs.items()}))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def involution(self) -> "Polynomial":
        """Conjugate coefficients; additionally reverse words in the free flavor."""
        out: dict[Term, complex] = {}
        for t, c in self._coeffs.items():
            out[involute_term(self.flavor, t)] = c.conjugate()
        return Polynomial._raw(self.flavor, self.n_vars, out)

    def collapse(self) -> "Polynomial":
        """Map a free polynomial to its commutative image (z_i -> x_i)."""
        if self.flavor != FREE:
            raise FlavorMismatchError("collapse takes a free polynomial")
        out: dict[Term, complex] = {}
        for word, c in self._coeffs.items():
            mono = [0] * self.n_vars
            for s in word:
                mono[s] += 1
            mono = tuple(mono)
            out[mono] = out.get(mono, 0.0) + c
        return Polynomial._raw(COMMUTATIVE, self.n_vars, self._cleaned(out))

    # -- norms and evaluation ----------------------------------------------

    def coeff_two_norm(self) -> float:
        """Euclidean norm of the coefficient vector, scaled like `math.hypot` so
        that no square overflows."""
        return math.hypot(*(x for c in self._coeffs.values() for x in (c.real, c.imag)))

    def evaluate(self, point: Sequence[float]) -> complex:
        """Evaluate at a point of the real unit sphere (commutative only)."""
        s = as_sphere_point(point, self.n_vars)
        return complex(self.evaluate_batch(s[None, :])[0])

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at rows of `points` (no sphere check)."""
        if self.flavor != COMMUTATIVE:
            raise FlavorMismatchError("evaluation is defined for the commutative flavor")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.n_vars:
            raise DimensionMismatchError(
                f"points must have shape (m, {self.n_vars})")
        if not self._coeffs:
            return np.zeros(points.shape[0], dtype=complex)
        terms = np.array(list(self._coeffs.keys()), dtype=np.int64)
        coeffs = np.array(list(self._coeffs.values()), dtype=complex)
        # each variable raised once to every power it takes in a term, gathered
        # by exponent and multiplied in variable order: (m, nterms)
        powers = np.arange(terms.max() + 1)
        values = (points[:, 0, None] ** powers)[:, terms[:, 0]]
        for i in range(1, self.n_vars):
            values = values * (points[:, i, None] ** powers)[:, terms[:, i]]
        return values @ coeffs

    def differentiate(self, index: int) -> "Polynomial":
        """Partial derivative with respect to x_{index+1} (commutative only)."""
        if self.flavor != COMMUTATIVE:
            raise FlavorMismatchError("differentiate is defined for the commutative flavor")
        out: dict[Term, complex] = {}
        for t, c in self._coeffs.items():
            e = t[index]
            if e == 0:
                continue
            dt = t[:index] + (e - 1,) + t[index + 1:]
            out[dt] = out.get(dt, 0.0) + e * c
        return Polynomial._raw(COMMUTATIVE, self.n_vars, self._cleaned(out))

    # -- equality / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.flavor == other.flavor
                and self.n_vars == other.n_vars
                and self._coeffs == other._coeffs)

    __hash__ = None

    def _term_str(self, term: Term) -> str:
        if self.flavor == COMMUTATIVE:
            parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                     for i, e in enumerate(term) if e > 0]
            return "*".join(parts) if parts else "1"
        return " ".join(f"z{s + 1}" for s in term) if term else "1"

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        bits = []
        for term, c in self.items():
            if c.imag == 0:
                cs = f"{c.real:g}"
            else:
                cs = f"({c.real:g}{c.imag:+g}j)"
            bits.append(f"{cs}*{self._term_str(term)}")
        return " + ".join(bits)


def variables(flavor: str, n_vars: int) -> list[Polynomial]:
    """The n generator polynomials of the algebra."""
    return [Polynomial.variable(flavor, n_vars, i) for i in range(n_vars)]


def sum_of_monomial_squares(n_vars: int, d: int) -> Polynomial:
    """sum_{|alpha|=d} x^{2 alpha}: the squared 2-norm of the degree-d monomial tuple."""
    coeffs = {}
    for alpha in compositions(d, n_vars):
        coeffs[tuple(2 * e for e in alpha)] = 1.0
    return Polynomial(COMMUTATIVE, n_vars, coeffs)


def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


# -- JSON interchange ---------------------------------------------------------
#
# {"flavor": "commutative"|"free", "n_vars": n,
#  "terms": [{"term": [e1,...,en] | "z1 z2 z1", "re": a, "im": b}]}

def to_dict(p: Polynomial) -> dict:
    terms = []
    for term, c in p.items():
        if p.flavor == COMMUTATIVE:
            enc: object = list(term)
        else:
            enc = " ".join(f"z{s + 1}" for s in term)
        terms.append({"term": enc, "re": c.real, "im": c.imag})
    return {"flavor": p.flavor, "n_vars": p.n_vars, "terms": terms}


def _json_number(value, what: str, integer: bool = False):
    """A number field of the JSON form, refusing booleans and, where an
    integer is due, fractions (rather than truncating them)."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, "
                         f"got {json.dumps(value, default=repr)}")
    return int(value) if integer else float(value)


def from_dict(data: Mapping) -> Polynomial:
    """The polynomial of the JSON form; ValueError, naming the field, for a
    malformed one."""
    try:
        flavor = data["flavor"]
        n_vars = _json_number(data["n_vars"], "n_vars", integer=True)
        raw_terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial object: missing {exc}") from exc
    _check_flavor(flavor)
    if not isinstance(raw_terms, list):
        raise ValueError("terms must be a list of term objects")
    coeffs: dict[Term, complex] = {}
    for i, entry in enumerate(raw_terms):
        if not isinstance(entry, Mapping) or "term" not in entry or "re" not in entry:
            raise ValueError(f"terms[{i}] must be an object with 'term' and 're'")
        enc = entry["term"]
        if flavor == COMMUTATIVE:
            if not isinstance(enc, (list, tuple)):
                raise ValueError(f"terms[{i}]: commutative term must be an exponent list")
            term = tuple(_json_number(e, f"terms[{i}]: exponent", integer=True) for e in enc)
        else:
            if not isinstance(enc, str):
                raise ValueError(f"terms[{i}]: free term must be a word string like 'z1 z2'")
            term = _parse_word(enc, n_vars, i)
        c = complex(_json_number(entry["re"], f"terms[{i}]: re"),
                    _json_number(entry.get("im", 0.0), f"terms[{i}]: im"))
        if term in coeffs:
            raise ValueError(f"terms[{i}]: duplicate term {enc!r}")
        coeffs[term] = c
    return Polynomial(flavor, n_vars, coeffs)


def _parse_word(text: str, n_vars: int, pos: int) -> Term:
    symbols = []
    for tok in text.split():
        if not tok.startswith("z"):
            raise ValueError(f"terms[{pos}]: bad symbol {tok!r}, expected z<k>")
        try:
            k = int(tok[1:])
        except ValueError:
            raise ValueError(f"terms[{pos}]: bad symbol {tok!r}, expected z<k>") from None
        if not 1 <= k <= n_vars:
            raise ValueError(f"terms[{pos}]: symbol {tok!r} outside z1..z{n_vars}")
        symbols.append(k - 1)
    return tuple(symbols)


def to_json(p: Polynomial, indent: int | None = None) -> str:
    return json.dumps(to_dict(p), indent=indent, sort_keys=True)


def from_json(text: str) -> Polynomial:
    return from_dict(json.loads(text))


# -- sphere machinery ---------------------------------------------------------

def as_sphere_point(point: Sequence[float], n_vars: int | None = None) -> np.ndarray:
    """Validate a real unit vector (|1 - sum s_i^2| <= 1e-12)."""
    s = np.asarray(point, dtype=float)
    if s.ndim != 1:
        raise DimensionMismatchError("sphere point must be a 1-d real vector")
    if n_vars is not None and s.shape[0] != n_vars:
        raise DimensionMismatchError(
            f"sphere point has dimension {s.shape[0]}, expected {n_vars}")
    if abs(float(s @ s) - 1.0) > SPHERE_TOL:
        raise ValueError(f"not a unit vector: |s|^2 = {float(s @ s)!r}")
    return s


def sphere_lattice(n_vars: int, resolution: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of the unit sphere S^{n-1}.

    n=1: the two points +-1.  n=2: equally spaced angles.  n=3: Fibonacci
    spiral.  n>=4: iterated subdivision of the cross-polytope boundary,
    refined until at least `resolution` points exist.  Fully reproducible.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if n_vars == 1:
        return np.array([[1.0], [-1.0]])
    if n_vars == 2:
        theta = 2.0 * np.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n_vars == 3:
        j = np.arange(resolution)
        z = 1.0 - (2.0 * j + 1.0) / resolution
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = np.pi * (3.0 - np.sqrt(5.0)) * j
        return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    return _cross_polytope_lattice(n_vars, resolution)


def _cross_polytope_lattice(n_vars: int, resolution: int) -> np.ndarray:
    # integer points w with sum |w_i| = L, projected to the sphere; L is the
    # subdivision level, refined until the (exact) point count reaches resolution
    def count(level: int) -> int:
        return sum((2 ** k) * math.comb(n_vars, k) * math.comb(level - 1, k - 1)
                   for k in range(1, min(n_vars, level) + 1))

    level = 1
    while count(level) < resolution and level < 256:
        level += 1
    # each composition with every sign pattern on its nonzero parts, once
    keys = []
    for comp in compositions(level, n_vars):
        nonzero = [i for i, w in enumerate(comp) if w]
        for signs in _iproduct((1, -1), repeat=len(nonzero)):
            key = list(comp)
            for i, s in zip(nonzero, signs):
                key[i] *= s
            keys.append(tuple(key))
    pts = np.array(sorted(keys), dtype=float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sup_norm_sphere(p: Polynomial, resolution: int = 2048) -> float:
    """Lower estimate of max_{|s|=1} |p(s)| (commutative only).

    Evaluates |p| on a deterministic lattice of about `resolution` points and
    refines the best point by projected gradient ascent.  The result is a
    certified lower bound on the true sup-norm: every reported value is an
    actual evaluation of |p| at a unit vector.
    """
    if p.flavor != COMMUTATIVE:
        raise FlavorMismatchError("sup_norm_sphere is defined for the commutative flavor")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if not p:
        return 0.0
    pts = sphere_lattice(p.n_vars, resolution)
    vals = np.abs(p.evaluate_batch(pts))
    best = int(np.argmax(vals))
    s, value = _ascend(p, pts[best], float(vals[best]))
    return value


def _ascend(p: Polynomial, s: np.ndarray, value: float):
    grads = [p.differentiate(i) for i in range(p.n_vars)]
    if p.n_vars == 1:
        return s, value
    step = 0.1
    for _ in range(ASCENT_STEPS):
        ps = complex(p.evaluate_batch(s[None, :])[0])
        if abs(ps) == 0.0:
            break
        g = np.array([complex(q.evaluate_batch(s[None, :])[0]) for q in grads])
        grad_abs = (ps.conjugate() * g).real / abs(ps)
        tangent = grad_abs - (grad_abs @ s) * s
        tnorm = float(np.linalg.norm(tangent))
        if tnorm < 1e-14:
            break
        direction = tangent / tnorm
        improved = False
        while step >= 1e-14:
            cand = s + step * direction
            cand /= np.linalg.norm(cand)
            cval = float(abs(p.evaluate_batch(cand[None, :])[0]))
            if cval > value:
                s, value = cand, cval
                step = min(step * 2.0, 0.5)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return s, value
