"""One-axis convolution calculus for ray sheaves."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conepersist.cone import ConeSpec, GaugeSpec
from conepersist.conv1d import (
    HomPattern,
    RaySheaf,
    antipodal_convolution_support,
    compare_with_interleaving,
    convolution_distance,
    convolve_ball,
    gamma_fixed_check,
    is_c_isomorphic,
    line_cone,
    properness_report,
    to_gamma_module,
)
from conepersist.exactla import FieldMat

from oracles import bottleneck_matching, raw_c_isomorphic


def _gauge(speed=1):
    return GaugeSpec(line_cone(), (Fraction(speed),))


# -- sheaves and convolution --------------------------------------------------------


def test_ray_sheaf_sorts_births():
    rs = RaySheaf.make(["3", 0, Fraction(1, 2)])
    assert rs.births == (Fraction(0), Fraction(1, 2), Fraction(3))
    assert rs.count == 3


def test_convolve_ball_translates_births():
    rs = RaySheaf.make([0, 1])
    out = convolve_ball(rs, Fraction(1, 2), _gauge(2))
    assert out.births == (Fraction(-1), Fraction(0))
    assert convolve_ball(rs, 0, _gauge()) == rs
    with pytest.raises(ValueError):
        convolve_ball(rs, -1, _gauge())


def test_gauge_must_match_the_working_cone():
    quad = ConeSpec(normals=[(-1, 0), (0, -1)], generators=[(-1, 0), (0, -1)])
    with pytest.raises(ValueError):
        convolve_ball(RaySheaf.make([0]), 1, GaugeSpec(quad, (1, 1)))


def test_antipodal_convolution_support_is_a_full_ray():
    assert antipodal_convolution_support(2, 5) == (Fraction(2), None)
    assert antipodal_convolution_support(2, None) == (Fraction(2), None)
    with pytest.raises(ValueError):
        antipodal_convolution_support(2, 1)


def test_gamma_fixed_check():
    assert gamma_fixed_check(RaySheaf.make([0, 1, 5]))
    assert gamma_fixed_check(RaySheaf.make([]))


def test_properness_orientation():
    lit, mir = properness_report(RaySheaf.make([0, 2]))
    assert (lit, mir) == (False, True)
    assert properness_report(RaySheaf.make([])) == (True, True)


# -- hom patterns -------------------------------------------------------------------


def test_hom_pattern_support():
    src = RaySheaf.make([0, 1])
    dst = RaySheaf.make([0, 5])
    pat = HomPattern.build(src, dst, Fraction(1, 2), _gauge())
    assert pat.allowed == ((True, False), (True, True))
    assert pat.has_perfect_matching()
    # the reverse direction has no matching at this relaxation
    rev = HomPattern.build(dst, src, Fraction(1, 2), _gauge())
    assert rev.allowed == ((True, False), (True, False))
    assert not rev.has_perfect_matching()


# -- c-isomorphism ------------------------------------------------------------------


def test_c_isomorphism_frozen():
    a = RaySheaf.make([0])
    b = RaySheaf.make([3])
    assert not is_c_isomorphic(a, b, 2, _gauge())
    assert is_c_isomorphic(a, b, 3, _gauge())
    assert is_c_isomorphic(a, b, Fraction(3, 2), _gauge(2))
    with pytest.raises(ValueError):
        is_c_isomorphic(a, b, -1, _gauge())


_BIRTHS = st.sampled_from([Fraction(k, 2) for k in range(-4, 8)])
_SPEEDS = st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(3)))


def _relaxations(src, dst, speed):
    """Every candidate parameter, each midpoint between two and one above
    the last: the decision is constant between candidates."""
    cands = sorted({Fraction(0)} | {abs(s - t) / speed for s in src for t in dst})
    mids = [(a + b) / 2 for a, b in zip(cands, cands[1:])]
    return cands + mids + [cands[-1] + 1]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((2, 3)), st.integers(0, 3), _SPEEDS)
def test_c_isomorphism_matches_the_matrix_sweep(data, p, m, speed):
    src = RaySheaf.make(data.draw(st.lists(_BIRTHS, min_size=m, max_size=m)), p)
    dst = RaySheaf.make(data.draw(st.lists(_BIRTHS, min_size=m, max_size=m)), p)
    c = data.draw(st.sampled_from(_relaxations(src.births, dst.births, speed)))
    g = GaugeSpec(line_cone(), (speed,))
    want = raw_c_isomorphic(src.births, dst.births, c, speed, p)
    assert is_c_isomorphic(src, dst, c, g) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(_BIRTHS, max_size=6), st.lists(_BIRTHS, max_size=6), _SPEEDS)
def test_c_isomorphism_matches_the_bottleneck(src, dst, speed):
    src, dst = RaySheaf.make(src), RaySheaf.make(dst)
    g = GaugeSpec(line_cone(), (speed,))
    best = bottleneck_matching(src.births, dst.births, speed)
    for c in _relaxations(src.births, dst.births, speed):
        got = is_c_isomorphic(src, dst, c, g)
        assert got == (best <= c)
        # the sorted pairing decides exactly what the two Hall checks do
        hall = src.count == dst.count and (
            HomPattern.build(src, dst, c, g).has_perfect_matching()
            and HomPattern.build(dst, src, c, g).has_perfect_matching()
        )
        assert got == hall


def test_c_isomorphism_count_mismatch_and_empty():
    g = _gauge()
    assert not is_c_isomorphic(RaySheaf.make([0]), RaySheaf.make([0, 1]), 99, g)
    assert is_c_isomorphic(RaySheaf.make([]), RaySheaf.make([]), 0, g)


def test_c_isomorphism_checks_the_gauge_first():
    plane = GaugeSpec(
        ConeSpec(normals=[(-1, 0), (0, -1)], generators=[(-1, 0), (0, -1)]), (1, 1)
    )
    for a, b in (([], []), ([0], [0, 1]), ([0], [1])):
        with pytest.raises(ValueError):
            is_c_isomorphic(RaySheaf.make(a), RaySheaf.make(b), 1, plane)


def test_many_births_decide_in_linear_time():
    g = _gauge()
    same = RaySheaf.make([0] * 1500)
    assert is_c_isomorphic(same, same, 0, g)
    assert convolution_distance(same, same, g).value == 0
    src = RaySheaf.make(range(1500))
    dst = RaySheaf.make(k + Fraction(1, 3) * (k % 4) for k in range(1500))
    assert convolution_distance(src, dst, g).value == 1
    assert not is_c_isomorphic(src, dst, Fraction(2, 3), g)
    assert is_c_isomorphic(src, dst, 1, g)


def test_hom_pattern_matching_is_iterative():
    # deeper than the default recursion limit; built directly so that only
    # the matching is timed
    n = 1500
    full = HomPattern(tuple((True,) * n for _ in range(n)))
    assert full.has_perfect_matching()
    stairs = HomPattern(tuple(tuple(i <= j for i in range(n)) for j in range(n)))
    assert stairs.has_perfect_matching()
    # every row misses the last column: found only after a search through
    # all rows from the last root
    short = HomPattern(tuple(tuple(i < n - 1 for i in range(n)) for _ in range(n)))
    assert not short.has_perfect_matching()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)
))
# two rows share one column, reached only through the first row's match
@example([[True, True, True], [True, False, False], [True, False, False]])
def test_hom_pattern_matching_matches_permutations(rows):
    n = len(rows)
    want = any(
        all(rows[j][perm[j]] for j in range(n)) for perm in itertools.permutations(range(n))
    )
    assert HomPattern(tuple(map(tuple, rows))).has_perfect_matching() == want


# -- convolution distance ------------------------------------------------------------


def test_convolution_distance_frozen():
    g = _gauge()
    r = convolution_distance(RaySheaf.make([0]), RaySheaf.make([3]), g)
    assert r.value == 3 and r.attained is True
    r2 = convolution_distance(RaySheaf.make([0, 1]), RaySheaf.make([0, 5]), g)
    assert r2.value == 4 and r2.attained is True
    r3 = convolution_distance(RaySheaf.make([0, 1]), RaySheaf.make([0, 5]), _gauge(2))
    assert r3.value == 2


def test_convolution_distance_degenerate_cases():
    g = _gauge()
    mismatch = convolution_distance(RaySheaf.make([0]), RaySheaf.make([0, 1]), g)
    assert mismatch.value == float("inf")
    empty = convolution_distance(RaySheaf.make([]), RaySheaf.make([]), g)
    assert empty.value == 0 and empty.attained is True


def test_convolution_distance_matches_bottleneck_oracle():
    rng = random.Random(31)
    pool = [Fraction(k, 2) for k in range(-6, 10)]
    for _ in range(80):
        m = rng.randint(0, 4)
        n = m if rng.random() < 0.8 else rng.randint(0, 4)
        src = RaySheaf.make(rng.sample(pool, m))
        dst = RaySheaf.make(rng.sample(pool, n))
        speed = rng.choice((Fraction(1), Fraction(1, 2), Fraction(3)))
        g = GaugeSpec(line_cone(), (speed,))
        got = convolution_distance(src, dst, g).value
        want = bottleneck_matching(src.births, dst.births, speed)
        assert got == want


def test_convolution_distance_is_translation_invariant():
    g = _gauge()
    src = RaySheaf.make([0, 2, 5])
    dst = RaySheaf.make([1, 1, 4])
    d = convolution_distance(src, dst, g).value
    moved = convolve_ball(src, 3, g), convolve_ball(dst, 3, g)
    assert convolution_distance(*moved, g).value == d


# -- module presentation -------------------------------------------------------------


def test_to_gamma_module_frozen_dims():
    gm = to_gamma_module(RaySheaf.make([0, 2]))
    gm.validate()
    m = gm.module
    assert [m.dim_at((i,)) for i in range(5)] == [0, 0, 1, 1, 2]
    # structure maps are prefix projections
    proj = m.cover_map((3,), (4,))
    assert proj == FieldMat.make(2, [[1, 0]])


def test_to_gamma_module_duplicate_births():
    gm = to_gamma_module(RaySheaf.make([1, 1]))
    m = gm.module
    assert [m.dim_at((i,)) for i in range(3)] == [0, 0, 2]


def test_convolution_agrees_with_interleaving_on_samples():
    g1, g2 = _gauge(), _gauge(2)
    cases = [
        (RaySheaf.make([0]), RaySheaf.make([3])),
        (RaySheaf.make([0, 1]), RaySheaf.make([0, 5])),
        (RaySheaf.make([]), RaySheaf.make([])),
        (RaySheaf.make([0]), RaySheaf.make([0, 1])),
        (RaySheaf.make([-1, Fraction(1, 2)]), RaySheaf.make([0, 0])),
    ]
    for src, dst in cases:
        for g in (g1, g2):
            rec = compare_with_interleaving(src, dst, g)
            assert rec.equal, (src, dst, rec.convolution.value, rec.interleaving.value)
