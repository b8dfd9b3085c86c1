"""One-axis convolution calculus for direct sums of ray indicators.

Sheaves here are finite multisets of births: each birth t contributes the
indicator of the ray [t, infinity).  Convolving with the gauge ball of
radius r translates every birth down by r times the gauge direction, and
maps between two such sheaves are constrained entrywise: a ray born at s
maps nontrivially to one born at t only when s <= t.  A c-shifted
isomorphism pair therefore amounts to an invertible matrix respecting the
c-relaxed pattern whose inverse respects the mirrored pattern, and the
optimal c is a bottleneck matching between the sorted birth sequences.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cone import ConeSpec, GaugeSpec, PolySet, is_gamma_proper
from .exactla import FieldMat
from .interleave import BudgetExceededError, DistanceResult, _first_true, interleaving_distance
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


def line_cone() -> ConeSpec:
    """The nonpositive halfline, the working cone for one axis."""
    return ConeSpec(normals=[(-1,)], generators=[(-1,)])


@functools.cache
def _line() -> ConeSpec:
    """One shared line cone for this module's own use, built on first call;
    line_cone() keeps handing callers a fresh object."""
    return line_cone()


@dataclass(frozen=True)
class RaySheaf:
    """Multiset of ray births over F_p, kept sorted."""

    births: tuple[Fraction, ...]
    p: int = 2

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
    if gauge.cone != _line():
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
    src_births: tuple[Fraction, ...]
    dst_births: tuple[Fraction, ...]
    c: Fraction

    @staticmethod
    def build(src: RaySheaf, dst: RaySheaf, c, gauge: GaugeSpec) -> "HomPattern":
        c = parse_rational(c)
        speed = _gauge_speed(gauge)
        rows = tuple(
            tuple(s - c * speed <= t for s in src.births) for t in dst.births
        )
        return HomPattern(rows, src.births, dst.births, c)

    def entry_count(self) -> int:
        return sum(sum(1 for a in row if a) for row in self.allowed)

    def admits(self, m: FieldMat) -> bool:
        return all(
            m.entries[j][i] == 0
            for j in range(len(self.allowed))
            for i in range(len(self.allowed[j]))
            if not self.allowed[j][i]
        )

    def has_perfect_matching(self) -> bool:
        """Hall condition via augmenting paths; an invertible matrix on
        this pattern needs a nonzero diagonal in some column permutation."""
        n = len(self.allowed)
        match = [-1] * n  # column -> row

        def augment(row, seen):
            for col in range(n):
                if self.allowed[row][col] and col not in seen:
                    seen.add(col)
                    if match[col] < 0 or augment(match[col], seen):
                        match[col] = row
                        return True
            return False

        return all(augment(r, set()) for r in range(n))


def _sorted_matching_ok(src: RaySheaf, dst: RaySheaf, c, speed: Fraction) -> bool:
    if src.count != dst.count:
        return False
    bound = c * speed
    return all(abs(s - t) <= bound for s, t in zip(src.births, dst.births))


def _search_ok(src: RaySheaf, dst: RaySheaf, c, gauge, budget) -> bool:
    m = src.count
    fwd = HomPattern.build(src, dst, c, gauge)
    bwd = HomPattern.build(dst, src, c, gauge)
    if not fwd.has_perfect_matching() or not bwd.has_perfect_matching():
        return False
    # try permutation witnesses first: invertible, self-describing inverse
    for perm in itertools.permutations(range(m)):
        if all(fwd.allowed[j][perm[j]] for j in range(m)) and all(
            bwd.allowed[perm[j]][j] for j in range(m)
        ):
            return True
    # full sweep over matrices supported on the forward pattern
    positions = [
        (j, i) for j in range(m) for i in range(m) if fwd.allowed[j][i]
    ]
    if len(positions) > budget:
        raise BudgetExceededError(len(positions), budget)
    p = src.p
    for values in itertools.product(range(p), repeat=len(positions)):
        ent = [[0] * m for _ in range(m)]
        for (j, i), val in zip(positions, values):
            ent[j][i] = val
        mat = FieldMat.make(p, ent)
        inv = mat.inverse()
        if inv is not None and bwd.admits(inv):
            return True
    return False


def is_c_isomorphic(
    src: RaySheaf,
    dst: RaySheaf,
    c,
    gauge: GaugeSpec,
    budget: int = 20,
    method: str = "auto",
) -> bool:
    """Whether the two sheaves are isomorphic after relaxing by c.

    method 'search' enumerates pattern-supported matrices and their
    inverses; 'matching' uses the sorted-birth bottleneck criterion;
    'auto' searches when the pattern is small enough and falls back to
    matching."""
    c = parse_rational(c)
    if c < 0:
        raise ValueError("relaxation must be nonnegative")
    if src.p != dst.p:
        raise ValueError("field mismatch")
    if src.count != dst.count:
        return False
    if src.count == 0:
        return True
    speed = _gauge_speed(gauge)
    if method == "matching":
        return _sorted_matching_ok(src, dst, c, speed)
    if method == "search":
        return _search_ok(src, dst, c, gauge, budget)
    if method != "auto":
        raise ValueError("method must be 'auto', 'search' or 'matching'")
    fwd = HomPattern.build(src, dst, c, gauge)
    if fwd.entry_count() <= budget:
        return _search_ok(src, dst, c, gauge, budget)
    return _sorted_matching_ok(src, dst, c, speed)


def convolution_distance(
    src: RaySheaf,
    dst: RaySheaf,
    gauge: GaugeSpec,
    budget: int = 20,
) -> DistanceResult:
    """Least c at which the sheaves become c-isomorphic; the truth value
    can only change where a birth difference is bridged, so the candidate
    walk is exact and the optimum is always attained (or infinite on a
    count mismatch)."""
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
    cands = sorted(
        {Fraction(0)}
        | {abs(s - t) / speed for s in src.births for t in dst.births}
    )

    def decide(c):
        return is_c_isomorphic(src, dst, c, gauge, budget=budget)

    # _first_true tests each candidate at most once
    first = _first_true(cands, decide)
    if first is None:
        raise AssertionError("largest birth gap must already allow an isomorphism")
    if first and decide((cands[first - 1] + cands[first]) / 2):
        raise AssertionError("decision changed strictly between candidates")
    return DistanceResult(
        value=cands[first], attained=True, mode="exact", direction=direction
    )


def to_gamma_module(rs: RaySheaf) -> GammaModule:
    """Stabilized module of the sheaf on the grid of its births: a point
    cell counts births strictly below it, an interval cell counts births
    up to its left endpoint, and structure maps are the prefix projections
    of the sorted-birth coordinates."""
    cone = _line()
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
    src: RaySheaf, dst: RaySheaf, gauge: GaugeSpec, budget: int = 20
) -> ConvIntRecord:
    """Convolution distance of the sheaves against the interleaving
    distance of their stabilized modules in the gauge direction."""
    dc = convolution_distance(src, dst, gauge, budget=budget)
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
    cone = _line()
    support = PolySet(
        vertices=tuple((b,) for b in rs.births), recession=((Fraction(1),),)
    )
    literal = is_gamma_proper(cone, support)
    mirrored = is_gamma_proper(cone.antipode(), support)
    return literal, mirrored
