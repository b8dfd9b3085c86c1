"""One-axis convolution calculus for direct sums of ray indicators.

Sheaves here are finite multisets of births: each birth t contributes the
indicator of the ray [t, infinity).  Convolving with the gauge ball of
radius r translates every birth down by r times the gauge direction, and
maps between two such sheaves are constrained entrywise: a ray born at s
maps nontrivially to one born at t only when s <= t.  A c-shifted
isomorphism pair therefore amounts to an invertible matrix respecting the
c-relaxed pattern whose inverse respects the mirrored pattern.  With
births sorted each pattern is a staircase, which has a perfect matching
exactly when it contains the diagonal, so the decision is the sorted
pairing (see is_c_isomorphic) and the optimal c is its bottleneck cost.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .cone import ConeSpec, GaugeSpec, PolySet, is_gamma_proper
from .exactla import FieldMat, _check_prime
from .interleave import DEFAULT_BUDGET, DistanceResult, interleaving_distance
from .rational import parse_rational
from .sites import GammaModule
from .arrangement import CellComplex
from .persist import ArrModule

__all__ = [
    "RaySheaf",
    "HomPattern",
    "line_cone",
    "convolve_ball",
    "antipodal_convolution_support",
    "gamma_fixed_check",
    "is_c_isomorphic",
    "convolution_distance",
    "to_gamma_module",
    "compare_with_interleaving",
    "properness_report",
]


@functools.cache
def line_cone() -> ConeSpec:
    """The nonpositive halfline, the working cone for one axis, built once
    and shared (nothing mutates a ConeSpec)."""
    return ConeSpec(normals=[(-1,)], generators=[(-1,)])


@dataclass(frozen=True)
class RaySheaf:
    """Multiset of ray births over F_p, kept sorted."""

    births: tuple[Fraction, ...]
    p: int = 2

    def __post_init__(self):
        _check_prime(self.p)

    @staticmethod
    def make(births, p: int = 2) -> "RaySheaf":
        bs = tuple(sorted(parse_rational(b) for b in births))
        return RaySheaf(bs, p)

    @property
    def count(self) -> int:
        return len(self.births)


def _gauge_speed(gauge: GaugeSpec) -> Fraction:
    if gauge.cone.dim != 1:
        raise ValueError("one-axis calculus needs a one-dimensional gauge")
    if gauge.cone != line_cone():
        raise ValueError("gauge must live over the nonpositive halfline cone")
    return abs(gauge.v[0])


def convolve_ball(rs: RaySheaf, r, gauge: GaugeSpec) -> RaySheaf:
    """Convolution with the radius-r gauge ball: births translate down by
    r times the gauge speed."""
    r = parse_rational(r)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    speed = _gauge_speed(gauge)
    return RaySheaf(tuple(b - r * speed for b in rs.births), rs.p)


def antipodal_convolution_support(lo: Fraction, hi: Fraction | None):
    """Support of the antipodal-cone convolution of an interval indicator.

    The fiber over x of the convolution with the indicator of [0, inf)
    is the set of decompositions x = y + z with y >= 0 and z in [lo, hi],
    nonempty exactly when x >= lo: the support is always the full ray
    [lo, inf), regardless of hi."""
    lo = parse_rational(lo)
    if hi is not None and parse_rational(hi) < lo:
        raise ValueError("empty interval")
    return (lo, None)


def gamma_fixed_check(rs: RaySheaf) -> bool:
    """Whether convolving with the antipodal cone indicator fixes the
    support of every summand (true for rays, the unbounded-tail shape)."""
    for b in rs.births:
        lo, hi = antipodal_convolution_support(b, None)
        if lo != b or hi is not None:
            return False
    return True


@dataclass(frozen=True)
class HomPattern:
    """Allowed support for maps from the c-relaxed first sheaf to the
    second: entry (j, i) permits a map from the ray born at src[i] - c*v
    to the ray born at dst[j]."""

    allowed: tuple[tuple[bool, ...], ...]

    @staticmethod
    def build(src: RaySheaf, dst: RaySheaf, c, gauge: GaugeSpec) -> "HomPattern":
        slack = parse_rational(c) * _gauge_speed(gauge)
        relaxed = [s - slack for s in src.births]
        return HomPattern(tuple(tuple(s <= t for s in relaxed) for t in dst.births))

    def has_perfect_matching(self) -> bool:
        """Hall condition via augmenting paths, each found breadth first;
        an invertible matrix on this pattern needs a nonzero diagonal in
        some column permutation."""
        n = len(self.allowed)
        row_of = [-1] * n  # column -> matched row
        col_of = [-1] * n  # row -> matched column
        for root in range(n):
            reached = {}  # column -> row it was reached from
            frontier, free = [root], -1
            while frontier and free < 0:
                nxt = []
                for row in frontier:
                    for col, ok in enumerate(self.allowed[row]):
                        if ok and col not in reached:
                            reached[col] = row
                            if row_of[col] < 0:
                                free = col
                                break
                            nxt.append(row_of[col])
                    if free >= 0:
                        break
                frontier = nxt
            if free < 0:
                return False
            col = free
            while col >= 0:
                row = reached[col]
                row_of[col], col_of[row], col = row, col, col_of[row]
        return True


def is_c_isomorphic(src: RaySheaf, dst: RaySheaf, c, gauge: GaugeSpec) -> bool:
    """Whether the two sheaves are isomorphic after relaxing by c: whether
    every sorted pair of births is within c times the gauge speed.

    This is the same as both the c-relaxed pattern from src to dst and
    the mirrored one from dst to src having a perfect matching.
    Necessary: an invertible matrix has a nonzero term in its determinant
    expansion, a perfect matching inside its support, and so does its
    inverse.  Sufficient: with births sorted, row j of the forward pattern
    allows the columns whose birth is at most dst[j] + c*speed, a prefix
    that grows with j.  Such a staircase has a perfect matching exactly
    when it contains the diagonal, so both checks passing puts every
    sorted pair within c*speed.  The identity matrix in sorted coordinates
    is then a c-isomorphism, and its inverse respects the mirror."""
    c = parse_rational(c)
    if c < 0:
        raise ValueError("relaxation must be nonnegative")
    if src.p != dst.p:
        raise ValueError("field mismatch")
    slack = c * _gauge_speed(gauge)
    return src.count == dst.count and all(
        abs(s - t) <= slack for s, t in zip(src.births, dst.births)
    )


def convolution_distance(src: RaySheaf, dst: RaySheaf, gauge: GaugeSpec) -> DistanceResult:
    """Least c at which the sheaves become c-isomorphic: the largest
    sorted-pair gap over the gauge speed, always attained (or infinite on
    a count mismatch).  Sheaves over different fields are refused first."""
    if src.p != dst.p:
        raise ValueError("field mismatch")
    speed = _gauge_speed(gauge)
    direction = (gauge.v[0],)
    if src.count != dst.count:
        return DistanceResult(
            value=float("inf"), attained=None, mode="exact", direction=direction
        )
    if src.count == 0:
        return DistanceResult(
            value=Fraction(0), attained=True, mode="exact", direction=direction
        )
    gap = max(abs(s - t) for s, t in zip(src.births, dst.births))
    return DistanceResult(value=gap / speed, attained=True, mode="exact", direction=direction)


def to_gamma_module(rs: RaySheaf) -> GammaModule:
    """Stabilized module of the sheaf on the grid of its births: a point
    cell counts births strictly below it, an interval cell counts births
    up to its left endpoint, and structure maps are the prefix projections
    of the sorted-birth coordinates."""
    cone = line_cone()
    breaks = sorted(set(rs.births))
    cx = CellComplex(cone, [breaks])
    births = rs.births  # sorted
    dims = {}
    for cell in cx.cells():
        (i,) = cell
        if i % 2:
            b = breaks[i // 2]
            d = sum(1 for t in births if t < b)
        else:
            m = i // 2
            d = 0 if m == 0 else sum(1 for t in births if t <= breaks[m - 1])
        if d:
            dims[cell] = d
    maps = {}
    for a, b in cx.cover_pairs():
        da, db = dims.get(a, 0), dims.get(b, 0)
        if da and db:
            maps[(a, b)] = FieldMat.make(
                rs.p, [[1 if i == j else 0 for j in range(db)] for i in range(da)]
            )
    mod = ArrModule(cx, rs.p, dims, maps)
    return GammaModule(mod)


@dataclass
class ConvIntRecord:
    convolution: DistanceResult
    interleaving: DistanceResult
    equal: bool


def compare_with_interleaving(
    src: RaySheaf, dst: RaySheaf, gauge: GaugeSpec, budget: int = DEFAULT_BUDGET
) -> ConvIntRecord:
    """Convolution distance of the sheaves against the interleaving
    distance of their stabilized modules in the gauge direction."""
    dc = convolution_distance(src, dst, gauge)
    mf = to_gamma_module(src).module
    mg = to_gamma_module(dst).module
    di = interleaving_distance(mf, mg, (gauge.v[0],), budget=budget)
    return ConvIntRecord(convolution=dc, interleaving=di, equal=dc.value == di.value)


def properness_report(rs: RaySheaf) -> tuple[bool, bool]:
    """Properness of the support sum over the cone and over its antipode.
    Ray supports recede upward, so the literal reading fails and the
    mirrored one holds whenever the sheaf is nonempty."""
    if not rs.births:
        return True, True
    cone = line_cone()
    support = PolySet(
        vertices=tuple((b,) for b in rs.births), recession=((Fraction(1),),)
    )
    literal = is_gamma_proper(cone, support)
    mirrored = is_gamma_proper(cone.antipode(), support)
    return literal, mirrored
