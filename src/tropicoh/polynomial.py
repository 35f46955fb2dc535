"""Multivariate polynomials over Q, represented as exponent-dict maps."""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import Vec, det, vec

Monomial = tuple[int, ...]


class Poly:
    """A polynomial in `nvars` variables with Fraction coefficients.

    Immutable; zero terms are pruned so equality is structural.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            clean[mono] = clean.get(mono, Fraction(0)) + coeff
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
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    def partial(self, i: int) -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            m2 = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            out[m2] = out.get(m2, Fraction(0)) + c * m[i]
        return Poly(self.nvars, out)

    def evaluate(self, point) -> Fraction:
        point = vec(point)
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for x, e in zip(point, m):
                val *= x ** e
            total += val
        return total

    def substitute(self, images: list["Poly"]) -> "Poly":
        """Substitute variable i by images[i] (all in the same new ring)."""
        if len(images) != self.nvars:
            raise ValueError("substitute needs one image per variable")
        nv = images[0].nvars if images else 0
        result = Poly(nv, {})
        for m, c in self.terms.items():
            term = Poly.constant(nv, c)
            for img, e in zip(images, m):
                for _ in range(e):
                    term = term * img
            result = result + term
        return result

    def compose_affine(self, linear_rows, constants) -> "Poly":
        """Precompose with the affine map y -> linear_rows @ y + constants.

        `linear_rows` has one row per original variable; the result is a
        polynomial in the map's source variables.
        """
        nv_new = len(linear_rows[0]) if linear_rows else 0
        images = []
        for i in range(self.nvars):
            t = {(0,) * nv_new: Fraction(constants[i])}
            for j in range(nv_new):
                mono = tuple(1 if k == j else 0 for k in range(nv_new))
                t[mono] = t.get(mono, Fraction(0)) + Fraction(linear_rows[i][j])
            images.append(Poly(nv_new, t))
        return self.substitute(images)

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


def integrate_over_simplex(p: Poly, simplex_vertices: list[Vec]) -> Fraction:
    """Exact integral of p over a full-dimensional simplex in Q^n.

    The simplex has n+1 vertices in Q^n; volume normalization is the
    standard Lebesgue one (callers handle lattice normalization).
    """
    verts = [vec(v) for v in simplex_vertices]
    n = p.nvars
    if len(verts) != n + 1:
        raise ValueError("simplex needs n+1 vertices")
    v0 = verts[0]
    edge_cols = [tuple(v[i] - v0[i] for v in verts[1:]) for i in range(n)]
    jac = det(tuple(edge_cols))
    if jac == 0:
        return Fraction(0)
    composed = p.compose_affine(edge_cols, v0)
    return abs(jac) * integrate_over_standard_simplex(composed)
