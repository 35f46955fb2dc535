"""Matroids, flats, minors, characteristic polynomials and Bergman fans.

Matroids are given by their bases; ground elements carry arbitrary integer
labels.  The Bergman fan uses the fine (flag-of-flats) fan structure with
element 0 normalized out, oriented so that the uniform matroid U_{2,3}
reproduces the standard tropical line with rays -e1, -e2 and e1+e2.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import ColoopError, LoopError, MatroidAxiomError
from .polyhedral import Polyhedron, PolyhedralComplex, build_complex


class Matroid:
    """A matroid presented by its set of bases."""

    __slots__ = ("ground", "bases", "_flats")

    def __init__(self, ground, bases):
        self.ground = tuple(sorted(set(ground)))
        bset = {frozenset(b) for b in bases}
        if not bset:
            raise MatroidAxiomError("a matroid needs at least one basis")
        sizes = {len(b) for b in bset}
        if len(sizes) != 1:
            raise MatroidAxiomError("bases of unequal size")
        for b in bset:
            if not b <= set(self.ground):
                raise MatroidAxiomError("basis uses an unknown element")
        self.bases = frozenset(bset)
        self._flats = None
        self._check_exchange()

    def _check_exchange(self):
        for b1, b2 in itertools.product(self.bases, repeat=2):
            for x in b1 - b2:
                if not any(b1 - {x} | {y} in self.bases for y in b2 - b1):
                    raise MatroidAxiomError(
                        f"exchange fails for {sorted(b1)}, {sorted(b2)} at {x}")

    @property
    def rank(self) -> int:
        return len(next(iter(self.bases)))

    def rank_of(self, subset) -> int:
        s = frozenset(subset)
        return max(len(b & s) for b in self.bases)

    def closure(self, subset) -> frozenset:
        s = frozenset(subset)
        r = self.rank_of(s)
        return frozenset(e for e in self.ground
                         if e in s or self.rank_of(s | {e}) == r)

    def loops(self) -> frozenset:
        return frozenset(e for e in self.ground
                         if all(e not in b for b in self.bases))

    def coloops(self) -> frozenset:
        return frozenset(e for e in self.ground
                         if all(e in b for b in self.bases))

    def is_loopless(self) -> bool:
        return not self.loops()

    def flats(self) -> list[frozenset]:
        """All flats, ordered by (size, sorted elements)."""
        if self._flats is None:
            seen = {self.closure(())}
            frontier = list(seen)
            while frontier:
                f = frontier.pop()
                for e in self.ground:
                    if e in f:
                        continue
                    g = self.closure(f | {e})
                    if g not in seen:
                        seen.add(g)
                        frontier.append(g)
            self._flats = sorted(seen, key=lambda f: (len(f), sorted(f)))
        return self._flats

    def proper_flats(self) -> list[frozenset]:
        full = frozenset(self.ground)
        return [f for f in self.flats() if f and f != full]

    def flags(self) -> list[tuple[frozenset, ...]]:
        """All chains of proper nonempty flats, shortest first."""
        proper = self.proper_flats()
        out = [()]
        frontier = [()]
        while frontier:
            chain = frontier.pop()
            last = chain[-1] if chain else frozenset()
            for f in proper:
                if last < f:
                    ext = chain + (f,)
                    out.append(ext)
                    frontier.append(ext)
        return sorted(out, key=lambda ch: (len(ch), [sorted(f) for f in ch]))

    def delete(self, e) -> "Matroid":
        ground = [x for x in self.ground if x != e]
        if e in self.coloops():
            bases = [b - {e} for b in self.bases]
        else:
            bases = [b for b in self.bases if e not in b]
        return Matroid(ground, bases)

    def contract(self, e) -> "Matroid":
        ground = [x for x in self.ground if x != e]
        if e in self.loops():
            return Matroid(ground, self.bases)
        return Matroid(ground, [b - {e} for b in self.bases if e in b])

    def characteristic_polynomial(self) -> list[int]:
        """Coefficients of chi_M, highest degree first, by
        deletion-contraction."""
        if self.loops():
            return [0] * (self.rank + 1)
        e = next((x for x in self.ground if x not in self.coloops()), None)
        if e is None:
            # Free matroid: chi = (lambda - 1)^rank.
            coeffs = [1]
            for _ in range(self.rank):
                coeffs = [a - b for a, b in
                          zip(coeffs + [0], [0] + coeffs)]
            # (lambda - 1)^r expanded via the convolution above.
            return coeffs
        dele = self.delete(e).characteristic_polynomial()
        cont = self.contract(e).characteristic_polynomial()
        cont = [0] * (len(dele) - len(cont)) + cont
        return [a - b for a, b in zip(dele, cont)]

    def os_dims(self) -> tuple[int, ...]:
        """Graded dimensions of the reduced module: the unsigned
        coefficients of chi_M / (lambda - 1)."""
        if self.loops():
            raise LoopError("reduced characteristic polynomial needs a "
                            "loopless matroid")
        chi = self.characteristic_polynomial()
        # Synthetic division by (lambda - 1).
        out = []
        carry = 0
        for c in chi[:-1]:
            carry = c + carry
            out.append(carry)
        if carry + chi[-1] != 0:
            raise MatroidAxiomError("chi not divisible by lambda - 1")
        return tuple(abs(c) for c in out)

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.ground == other.ground
                and self.bases == other.bases)

    def __hash__(self):
        return hash((self.ground, self.bases))

    def __repr__(self):
        return f"Matroid({len(self.ground)} elements, rank {self.rank})"


def uniform_matroid(r: int, n: int) -> Matroid:
    if not 0 < r <= n:
        raise MatroidAxiomError("uniform matroid needs 0 < r <= n")
    return Matroid(range(n), itertools.combinations(range(n), r))


def graphic_matroid(edges) -> Matroid:
    """The cycle matroid of a multigraph given as a list of (u, v) pairs.

    Elements are edge indices; bases are the spanning forests.
    """
    edges = [tuple(e) for e in edges]
    vertices = sorted({v for e in edges for v in e})
    vindex = {v: i for i, v in enumerate(vertices)}

    def is_forest(idxs):
        parent = list(range(len(vertices)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in idxs:
            u, v = edges[i]
            ru, rv = find(vindex[u]), find(vindex[v])
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    best = 0
    for k in range(len(edges), -1, -1):
        if any(is_forest(c) for c in itertools.combinations(range(len(edges)), k)):
            best = k
            break
    bases = [c for c in itertools.combinations(range(len(edges)), best)
             if is_forest(c)]
    return Matroid(range(len(edges)), bases)


def matroid_from(spec) -> Matroid:
    """Build a matroid from bases, a graph edge list, or a uniform spec.

    Accepts {"ground_size": n, "bases": [...]}, {"uniform": [r, n]}, or
    {"graph": [[u, v], ...]}.
    """
    if "uniform" in spec:
        r, n = spec["uniform"]
        return uniform_matroid(int(r), int(n))
    if "graph" in spec:
        return graphic_matroid(spec["graph"])
    return Matroid(range(int(spec["ground_size"])),
                   [frozenset(b) for b in spec["bases"]])


# -- Bergman fans ----------------------------------------------------------------


def bergman_ray(flat, ground) -> tuple[Fraction, ...]:
    """Ray of a proper flat: -(chi_F - chi_F(0) * ones) on coordinates 1..m."""
    zero = ground[0]
    base = Fraction(1 if zero in flat else 0)
    return tuple(base - (1 if e in flat else 0) for e in ground[1:])


def bergman_fan(m: Matroid) -> PolyhedralComplex:
    """The fine Bergman fan of a loopless matroid, all weights one.

    Rays correspond to proper nonempty flats, cones to flags of flats;
    the fan lives in R^{|ground| - 1} with element 0 normalized out.
    """
    if not m.is_loopless():
        raise LoopError("Bergman fans need loopless matroids")
    amb = len(m.ground) - 1
    origin = tuple(Fraction(0) for _ in range(amb))
    rays = {f: bergman_ray(f, m.ground) for f in m.proper_flats()}
    top = m.rank - 1
    maximal = []
    for chain in m.flags():
        if len(chain) != top:
            continue
        maximal.append((Polyhedron(amb, [origin], [rays[f] for f in chain]), 1))
    if not maximal:
        maximal = [(Polyhedron(amb, [origin]), 1)]
    return build_complex(maximal)


def minors(m: Matroid, e) -> tuple[Matroid, Matroid]:
    """(deletion, contraction) at e."""
    return m.delete(e), m.contract(e)


def matroidal_modification_triple(m: Matroid, e):
    """Bergman fans of (M, M delete e, M contract e) and the coordinate of e.

    The projection of bergman_fan(M) along that coordinate is the open
    tropical modification with divisor bergman_fan(M/e); e must not be a
    coloop (the deletion must keep the rank) and not the normalized
    element 0.
    """
    if e == m.ground[0]:
        raise ColoopError("cannot project along the normalized element")
    if e in m.coloops():
        raise ColoopError(f"element {e} is a coloop")
    v = bergman_fan(m)
    w = bergman_fan(m.delete(e))
    d = bergman_fan(m.contract(e))
    coordinate = m.ground[1:].index(e) if e in m.ground[1:] else None
    return v, w, d, coordinate


def all_matroids(ground_size: int):
    """Every loopless matroid on {0..ground_size-1}, by brute-force exchange
    check."""
    ground = tuple(range(ground_size))
    out = []
    for r in range(1, ground_size + 1):
        subsets = list(itertools.combinations(ground, r))
        for picks in itertools.chain.from_iterable(
                itertools.combinations(subsets, k)
                for k in range(1, len(subsets) + 1)):
            try:
                m = Matroid(ground, picks)
            except MatroidAxiomError:
                continue
            if not m.is_loopless():
                continue
            out.append(m)
    return out
