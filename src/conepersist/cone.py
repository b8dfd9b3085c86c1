"""Exact geometry of proper convex polyhedral cones over the rationals.

A cone is kept in double description: facet normals (the cone is the set of
points pairing >= 0 with every normal) together with generating rays.  Both
lists are canonicalized to primitive integer vectors so equality of specs is
meaningful.  Properness (no line inside the cone) plus a nonempty interior
are construction invariants; all order, membership and gauge queries are
exact rational arithmetic, no floats anywhere.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .qlinalg import qnullspace, qrank
from .rational import Vec, as_vec

__all__ = [
    "ConeSpec",
    "GaugeSpec",
    "PolySet",
    "LinearMapReport",
    "linear_map_compatible",
    "is_gamma_proper",
]


def _primitive(v: Vec) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(n // g for n in ints)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _halfspace_extreme_rays(rows: list[Vec], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {x : r.x >= 0 for r in rows}.

    Enumerates (dim-1)-subsets of the rows, takes one-dimensional null
    spaces, and keeps the orientation satisfying every row.  Complete for
    pointed cones, where each extreme ray lies on dim-1 independent facets.
    """
    rays: set[tuple[int, ...]] = set()
    if dim == 1:
        for cand in ((Fraction(1),), (Fraction(-1),)):
            if all(_dot(r, cand) >= 0 for r in rows):
                rays.add(_primitive(cand))
        return sorted(rays)
    for subset in itertools.combinations(rows, dim - 1):
        null = qnullspace([list(r) for r in subset])
        if len(null) != 1:
            continue
        for cand in (null[0], tuple(-x for x in null[0])):
            if any(x != 0 for x in cand) and all(_dot(r, cand) >= 0 for r in rows):
                rays.add(_primitive(cand))
    return sorted(rays)


class ConeSpec:
    """A closed proper convex polyhedral cone with nonempty interior.

    Parameters are the facet normals and the generating rays, each a
    sequence of rational vectors (ints, Fractions or "p/q" strings).
    Construction canonicalizes both lists (primitive integers, duplicates
    and non-facet normals dropped, sorted) and validates:

      * every generator pairs >= 0 with every normal,
      * the normals have full rank (properness: the cone contains no line),
      * the sum of the generators is strictly interior,
      * the halfspace description and the generators carve out the same
        cone: every extreme ray of the halfspace cone is a generator.
    """

    def __init__(self, normals, generators):
        normals_q = [as_vec(n) for n in normals]
        generators_q = [as_vec(g) for g in generators]
        if not normals_q or not generators_q:
            raise ValueError("cone needs at least one normal and one generator")
        dims = {len(v) for v in normals_q} | {len(v) for v in generators_q}
        if len(dims) != 1:
            raise ValueError("mixed vector dimensions in cone description")
        self.dim: int = dims.pop()
        gens = sorted({_primitive(g) for g in generators_q})
        norms = self._canonical_normals([_primitive(n) for n in normals_q], gens)
        self.normals: tuple[tuple[int, ...], ...] = tuple(norms)
        self.generators: tuple[tuple[int, ...], ...] = tuple(gens)
        self._validate()

    def _canonical_normals(self, norms, gens):
        uniq = sorted(set(norms))
        # a normal is a facet iff its tight generators span a hyperplane;
        # anything slacker is implied by the rest (cone is full dimensional)
        if len(uniq) > 1:
            facets = []
            for n in uniq:
                tight = [list(g) for g in gens if _dot(n, g) == 0]
                if self.dim == 1 or (tight and qrank(tight) >= self.dim - 1):
                    facets.append(n)
            if facets:
                uniq = facets
        return uniq

    def _validate(self) -> None:
        for g in self.generators:
            for n in self.normals:
                if _dot(n, g) < 0:
                    raise ValueError(f"generator {g} violates normal {n}")
        if qrank([list(n) for n in self.normals]) != self.dim:
            raise ValueError("normals are rank deficient: cone contains a line")
        w = self.interior_vector()
        for n in self.normals:
            if _dot(n, w) <= 0:
                raise ValueError("generator sum is not interior: empty interior or bad description")
        # the generators lie in the halfspace cone, so an extreme ray of it
        # is a nonnegative sum of generators only through a positive multiple
        # of itself; rays and generators are both primitive integer tuples
        for ray in _halfspace_extreme_rays([as_vec(n) for n in self.normals], self.dim):
            if ray not in self.generators:
                raise ValueError(f"halfspace description admits ray {ray} outside the generated cone")

    # -- membership and order ------------------------------------------------

    def contains(self, x) -> bool:
        x = as_vec(x)
        return all(_dot(n, x) >= 0 for n in self.normals)

    def interior_contains(self, x) -> bool:
        x = as_vec(x)
        return all(_dot(n, x) > 0 for n in self.normals)

    def leq(self, x, y) -> bool:
        """Cone order: x <= y iff x - y lies in the cone."""
        x, y = as_vec(x), as_vec(y)
        return self.contains(tuple(a - b for a, b in zip(x, y)))

    def interior_vector(self) -> Vec:
        """A strictly interior rational point (the generator sum)."""
        return tuple(
            sum((Fraction(g[i]) for g in self.generators), Fraction(0)) for i in range(self.dim)
        )

    # -- derived cones -------------------------------------------------------

    def antipode(self) -> "ConeSpec":
        """The antipodal cone: every vector negated."""
        return ConeSpec(
            [tuple(-v for v in n) for n in self.normals],
            [tuple(-v for v in g) for g in self.generators],
        )

    def polar(self) -> "ConeSpec":
        """Polar cone {xi : <xi, v> >= 0 on the cone}: normals and generators swap roles."""
        return ConeSpec(self.generators, self.normals)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConeSpec)
            and self.normals == other.normals
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.normals, self.generators))

    def __repr__(self):
        return f"ConeSpec(normals={list(self.normals)}, generators={list(self.generators)})"


class GaugeSpec:
    """Gauge norm of the symmetric body B_v = (v + cone) cap (-v + antipode).

    The base vector v must be interior to the antipodal cone; then B_v is a
    compact convex symmetric neighbourhood of 0 and its gauge
    inf{t > 0 : x in t.B_v} is a norm.  The closed form is
    max_i |<xi_i, x>| / |<xi_i, v>| over the facet normals xi_i; the
    definitional bisection is kept alongside as an oracle.
    """

    def __init__(self, cone: ConeSpec, v):
        self.cone = cone
        self.v: Vec = as_vec(v)
        # the antipode's facets are the negated normals
        if not all(_dot(n, self.v) < 0 for n in cone.normals):
            raise ValueError("gauge base vector must be interior to the antipodal cone")

    def __call__(self, x) -> Fraction:
        x = as_vec(x)
        best = Fraction(0)
        for n in self.cone.normals:
            num, den = abs(_dot(n, x)), abs(_dot(n, self.v))
            val = num / den
            if val > best:
                best = val
        return best

    def ball_membership(self, r, x) -> bool:
        """Exact test x in r.B_v (closed ball of radius r)."""
        r = Fraction(r)
        x = as_vec(x)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if r == 0:
            return all(val == 0 for val in x)
        # x/r in B_v iff x/r - v in cone and x/r + v in antipode
        xs = tuple(val / r for val in x)
        y = tuple(a + b for a, b in zip(xs, self.v))
        return self.cone.contains(tuple(a - b for a, b in zip(xs, self.v))) and all(
            _dot(n, y) <= 0 for n in self.cone.normals
        )

    def bisect(self, x, tol) -> tuple[Fraction, Fraction]:
        """Definitional gauge evaluation: bracket inf{t : x in t.B_v} to width tol.

        Pure set membership plus interval halving, independent of the
        closed form.  Returns (lo, hi) with membership false at lo (unless
        lo == 0), true at hi, and hi - lo <= tol.
        """
        tol = Fraction(tol)
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        x = as_vec(x)
        if all(val == 0 for val in x):
            return Fraction(0), Fraction(0)
        hi = Fraction(1)
        while not self.ball_membership(hi, x):
            hi *= 2
        lo = Fraction(0)
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if self.ball_membership(mid, x):
                hi = mid
            else:
                lo = mid
        return lo, hi


@dataclass(frozen=True)
class PolySet:
    """A rational polyhedral set given by vertices plus recession generators."""

    vertices: tuple[Vec, ...]
    recession: tuple[Vec, ...]

    def __init__(self, vertices, recession=()):
        object.__setattr__(self, "vertices", tuple(as_vec(v) for v in vertices))
        object.__setattr__(
            self, "recession", tuple(as_vec(r) for r in recession if any(Fraction(x) != 0 for x in as_vec(r)))
        )
        if not self.vertices:
            raise ValueError("polyhedral set needs at least one vertex")


@dataclass(frozen=True)
class LinearMapReport:
    maps_cone: bool
    maps_interior: bool


def linear_map_compatible(matrix, src: ConeSpec, dst: ConeSpec) -> LinearMapReport:
    """Does the linear map carry src into dst, and src's interior into dst's?

    maps_cone checks every generator image against dst's normals.
    maps_interior additionally requires the image of one strictly interior
    witness (the generator sum) to be interior; that is equivalent to
    f(Int src) inside Int dst once f(src) is inside dst.
    """
    m = [as_vec(row) for row in matrix]
    if len(m) != dst.dim or any(len(row) != src.dim for row in m):
        raise ValueError(f"matrix shape must be {dst.dim} x {src.dim}")

    def apply(x: Vec) -> Vec:
        return tuple(_dot(row, x) for row in m)

    maps_cone = all(dst.contains(apply(as_vec(g))) for g in src.generators)
    maps_interior = maps_cone and dst.interior_contains(apply(src.interior_vector()))
    return LinearMapReport(maps_cone, maps_interior)


def is_gamma_proper(cone: ConeSpec, support: PolySet) -> bool:
    """Recession-cone properness test: cone cap (rec support)^a == {0}.

    The intersection is nontrivial iff some mu >= 0 has -sum(mu_k r_k)
    inside the cone and nonzero.  That feasible region is a pointed cone in
    mu-space (it sits inside the positive orthant), so it is spanned by its
    extreme rays, which a small subset enumeration produces exactly.
    """
    recs = [r for r in support.recession]
    if not recs:
        return True
    m = len(recs)
    dim = cone.dim
    rows: list[Vec] = []
    for k in range(m):
        unit = [Fraction(0)] * m
        unit[k] = Fraction(1)
        rows.append(tuple(unit))
    for n in cone.normals:
        rows.append(tuple(-_dot(n, r) for r in recs))
    for ray in _halfspace_extreme_rays(rows, m):
        image = tuple(
            -sum((Fraction(ray[k]) * recs[k][i] for k in range(m)), Fraction(0)) for i in range(dim)
        )
        if any(x != 0 for x in image):
            return False
    return True
