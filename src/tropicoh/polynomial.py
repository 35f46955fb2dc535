"""Multivariate polynomials over Q, represented as exponent-dict maps."""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import IntegralityError, InvalidInputError
from .linalg import Vec, clear_denominators, det, vec

Monomial = tuple[int, ...]


class Poly:
    """A polynomial in `nvars` variables with Fraction coefficients.

    Immutable; zero terms are pruned so equality is structural.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        """Terms map monomials to coefficients, or are (monomial,
        coefficient) pairs, which add; an exponent that is not an int (or
        is a bool) raises IntegralityError."""
        self.nvars = nvars
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms.items() if isinstance(terms, Mapping)
                            else terms):
            mono = tuple(mono)
            if any(type(e) is not int for e in mono):
                raise IntegralityError(f"non-integral exponents {mono}")
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise InvalidInputError(
                    f"bad monomial {mono} for {nvars} variables")
            clean[mono] = clean.get(mono, 0) + Fraction(coeff)
        self.terms = {m: c for m, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.nvars, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.nvars, _product(self.terms, other.terms))

    def partial(self, i: int) -> "Poly":
        return Poly(self.nvars, [
            (tuple(e - 1 if j == i else e for j, e in enumerate(m)), c * m[i])
            for m, c in self.terms.items() if m[i]])

    def evaluate(self, point) -> Fraction:
        point = vec(point)
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for x, e in zip(point, m):
                val *= x ** e
            total += val
        return total

    def compose_affine(self, linear_rows, constants) -> "Poly":
        """Precompose with the affine map y -> linear_rows @ y + constants.

        `linear_rows` has one row per original variable; the result is a
        polynomial in the map's source variables.  The expansion runs in
        integers: with D the common denominator of the map and L that of
        the coefficients, image i is the integer form A_i . y + b_i over
        D, and a term c x^m of degree |m| <= g becomes the integer
        polynomial (L c) D^(g - |m|) prod_i (A_i . y + b_i)^(m_i), all
        over L D^g; the powers of each form are built once, one at a time.
        """
        nv = len(linear_rows[0]) if linear_rows else 0
        if not self.terms:
            return Poly(nv, {})
        flat, den = clear_denominators(
            [x for i in range(self.nvars)
             for x in (*linear_rows[i], constants[i])])
        coeffs, lcd = clear_denominators(list(self.terms.values()))
        g = max(sum(m) for m in self.terms)
        zero = (0,) * nv
        units = [tuple(1 if k == j else 0 for k in range(nv))
                 for j in range(nv)]
        powers = []
        for i in range(self.nvars):
            row = flat[i * (nv + 1):(i + 1) * (nv + 1)]
            form = {u: a for u, a in zip(units, row) if a}
            if row[-1]:
                form[zero] = row[-1]
            pw = [{zero: 1}]
            for _ in range(max(m[i] for m in self.terms)):
                pw.append(_product(pw[-1], form))
            powers.append(pw)
        out: dict[Monomial, int] = {}
        for c, m in zip(coeffs, self.terms):
            term = {zero: c * den ** (g - sum(m))}
            for pw, e in zip(powers, m):
                if e:
                    term = _product(term, pw[e])
            for mono, v in term.items():
                out[mono] = out.get(mono, 0) + v
        scale = lcd * den ** g
        return Poly(nv, {mono: Fraction(v, scale)
                         for mono, v in out.items() if v})

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(m) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _product(p: dict, q: dict) -> dict:
    """The product of two polynomials as monomial -> coefficient maps,
    in the coefficients' own arithmetic (int stays int)."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def integrate_over_standard_simplex(p: Poly) -> Fraction:
    """Exact integral of p over the standard simplex {t_i >= 0, sum t_i <= 1}.

    Uses the Dirichlet factorial formula per monomial:
    integral of t^a equals (prod a_i!) / (n + sum a_i)!.
    """
    n = p.nvars
    total = Fraction(0)
    for m, c in p.terms.items():
        num = 1
        for e in m:
            num *= math.factorial(e)
        total += c * Fraction(num, math.factorial(n + sum(m)))
    return total


def _compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative ints summing to `total`."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        ends = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def integrate_over_simplex(p: Poly, simplex_vertices: list[Vec]) -> Fraction:
    """Exact integral of p over a full-dimensional simplex in Q^n.

    The simplex has n+1 vertices in Q^n; volume normalization is the
    standard Lebesgue one (callers handle lattice normalization).

    The Grundmann-Moller rule of degree d = 2s+1, s = deg(p) // 2
    (Grundmann and Moller, SIAM J. Numer. Anal. 15 (1978) 282-290) has
    rational nodes and weights and is exact for every polynomial of
    degree <= d, so the integral is a weighted sum of point values and p
    is never composed with the simplex map.  Layer i = 0..s has the nodes
    sum_j (2 b_j + 1) v_j / m, m = d + n - 2i, over b in N^(n+1) with
    |b| = s - i, each of weight (-1)^i m^d / (4^s i! (d+n-i)!) times the
    volume factor |det E| of the edge matrix E.  The nodes are evaluated
    in integers: with D v_j and L p integral, (mD)^deg(p) L p(node) is the
    integer sum of C_a X^a (mD)^(deg(p) - |a|) for X = mD node.
    """
    verts = [vec(v) for v in simplex_vertices]
    n = p.nvars
    if len(verts) != n + 1:
        raise InvalidInputError("simplex needs n+1 vertices")
    v0 = verts[0]
    jac = det(tuple(tuple(v[i] - v0[i] for v in verts[1:]) for i in range(n)))
    if jac == 0 or p.is_zero():
        return Fraction(0)
    flat, den = clear_denominators([x for v in verts for x in v])
    ints = [flat[j * n:(j + 1) * n] for j in range(n + 1)]
    coeffs, lcd = clear_denominators(list(p.terms.values()))
    monos = [(c, m, sum(m)) for c, m in zip(coeffs, p.terms)]
    g = max(deg for _, _, deg in monos)
    s = g // 2
    d = 2 * s + 1
    total = Fraction(0)
    for i in range(s + 1):
        m = d + n - 2 * i
        qpow = [(m * den) ** (g - e) for e in range(g + 1)]
        layer = 0
        for b in _compositions(s - i, n + 1):
            node = [sum((2 * bj + 1) * v[c] for bj, v in zip(b, ints))
                    for c in range(n)]
            for c, mono, deg in monos:
                term = c * qpow[deg]
                for x, e in zip(node, mono):
                    if e:
                        term *= x ** e
                layer += term
        total += Fraction((-1) ** i * m ** (d - g) * layer,
                          4 ** s * math.factorial(i) * math.factorial(d + n - i))
    return abs(jac) * total / (lcd * den ** g)
