import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepersist.cone import (
    ConeSpec,
    GaugeSpec,
    PolySet,
    _halfspace_extreme_rays,
    is_gamma_proper,
    linear_map_compatible,
)
from conepersist.rational import as_vec
from oracles import reference_cone_accepts


def _line():
    return ConeSpec([(-1,)], [(-1,)])


def _quadrant():
    return ConeSpec([(-1, 0), (0, -1)], [(-1, 0), (0, -1)])


def _wedge():
    # x <= 0 and y <= x
    return ConeSpec([(-1, 0), (1, -1)], [(-1, -1), (0, -1)])


def test_canonicalization():
    a = ConeSpec([(-2, 0), (0, -3)], [(-5, 0), (0, -1)])
    assert a == _quadrant()
    assert a.normals == ((-1, 0), (0, -1))
    assert a.generators == ((-1, 0), (0, -1))
    assert hash(a) == hash(_quadrant())
    # implied (non-facet) normal is dropped
    b = ConeSpec([(-1, 0), (0, -1), (-1, -1)], [(-1, 0), (0, -1)])
    assert b == _quadrant()


def test_validation_rejects_bad_descriptions():
    with pytest.raises(ValueError):
        ConeSpec([(-1, 0)], [(-1, 0), (0, -1)])  # halfplane contains a line
    with pytest.raises(ValueError):
        ConeSpec([(-1, 0), (0, -1)], [(1, 0)])  # generator outside
    with pytest.raises(ValueError):
        ConeSpec([(-1, 0), (0, -1)], [(-1, 0)])  # generators span a facet only
    with pytest.raises(ValueError):
        ConeSpec([(-1,), (1,)], [(0,)])  # degenerate point cone
    with pytest.raises(ValueError):
        ConeSpec([(-1, 0)], [(-1,)])  # mixed dimensions
    with pytest.raises(ValueError):
        # the orthant's ray (0, 0, 0, 1) is missing from the generators
        ConeSpec(
            normals=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
            generators=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)],
        )


@st.composite
def _descriptions(draw):
    """Integer cone descriptions in dimensions 1-3.  The normals are the
    facets of the cone some drawn rays span (the extreme rays of its
    polar), now and then with random normals added.  The generators keep
    most of the drawn rays and add every sum of two, so a dropped ray often
    leaves each facet spanned and the generator sum interior: only the
    extreme-ray test can then reject."""
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    spanning = draw(st.lists(vec, min_size=dim, max_size=dim + 1))
    normals = _halfspace_extreme_rays([as_vec(r) for r in spanning], dim)
    if not normals or draw(st.integers(0, 3)) == 0:
        normals += draw(st.lists(vec, min_size=1, max_size=2))
    keep = draw(st.lists(st.integers(0, 3), min_size=len(spanning), max_size=len(spanning)))
    sums = (tuple(x + y for x, y in zip(r, q)) for r, q in itertools.combinations(spanning, 2))
    gens = [r for r, k in zip(spanning, keep) if k] + [s for s in sums if any(s)]
    return normals, gens or spanning


def test_validation_agrees_with_the_generator_subset_search():
    verdicts = []

    @given(_descriptions())
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def agree(desc):
        try:
            ConeSpec(*desc)
            verdict = "accept"
        except ValueError as e:
            verdict = "ray" if "outside the generated cone" in str(e) else "earlier"
        assert (verdict == "accept") == reference_cone_accepts(*desc), desc
        verdicts.append(verdict)

    agree()
    # both verdicts occur, and the extreme-ray test itself rejects often
    assert verdicts.count("accept") >= 0.25 * len(verdicts)
    assert verdicts.count("ray") >= 0.1 * len(verdicts)


def test_membership_and_order():
    q = _quadrant()
    assert q.contains((-1, -2)) and q.contains((0, 0)) and q.contains((0, -1))
    assert not q.contains((1, -1))
    assert q.interior_contains((-1, -1)) and not q.interior_contains((0, -1))
    # x <= y iff x - y in cone: quadrant order is componentwise <=
    assert q.leq((0, 0), (1, 1)) and q.leq((1, 1), (1, 1))
    assert not q.leq((1, 0), (0, 1))
    w = _wedge()
    assert w.contains((-1, -1)) and w.contains((-1, -2))
    assert not w.contains((-1, Fraction(-1, 2)))


def test_antipode_and_polar():
    q = _quadrant()
    assert q.antipode().contains((1, 2))
    assert q.antipode().antipode() == q
    # polar of the nonpositive quadrant is itself in this normal convention
    assert q.polar().normals == q.generators or q.polar() == ConeSpec(
        q.generators, q.normals
    )
    # canonical generators are primitive, so the interior witness is their sum
    assert q.interior_vector() == (-1, -1)


_coord = st.integers(-6, 6).map(Fraction)


@given(st.tuples(_coord, _coord), st.tuples(_coord, _coord), st.tuples(_coord, _coord))
@settings(max_examples=60, deadline=None)
def test_order_is_transitive_and_translation_invariant(x, y, z):
    q = _quadrant()
    if q.leq(x, y) and q.leq(y, z):
        assert q.leq(x, z)
    if q.leq(x, y):
        shifted = tuple(a + b for a, b in zip(x, z)), tuple(a + b for a, b in zip(y, z))
        assert q.leq(*shifted)


def test_gauge_frozen_values():
    # line cone with speed 2: gauge(x) = |x| / 2
    g = GaugeSpec(_line(), (2,))
    assert g((3,)) == Fraction(3, 2)
    assert g((0,)) == 0
    # quadrant with v = (1,2): gauge = max(|x|/1, |y|/2), derived from the
    # halfspace description by hand
    g2 = GaugeSpec(_quadrant(), (1, 2))
    assert g2((3, 2)) == 3
    assert g2((1, -5)) == Fraction(5, 2)
    # wedge with v = (1, 2): normals (-1,0) and (1,-1) give
    # max(|x|/1, |x-y|/1)
    g3 = GaugeSpec(_wedge(), (1, 2))
    assert g3((2, -1)) == 3
    assert g3((-1, 4)) == 5


def test_gauge_requires_interior_direction():
    with pytest.raises(ValueError):
        GaugeSpec(_quadrant(), (1, 0))
    with pytest.raises(ValueError):
        GaugeSpec(_line(), (-1,))


def test_gauge_ball_membership_is_exact():
    g = GaugeSpec(_quadrant(), (1, 2))
    x = (Fraction(3), Fraction(2))
    r = g(x)
    assert g.ball_membership(r, x)
    assert not g.ball_membership(r * Fraction(1023, 1024), x)
    assert g.ball_membership(r * Fraction(1025, 1024), x)


def test_gauge_queries_build_no_cones(monkeypatch):
    cone = _wedge()
    built = []
    init = ConeSpec.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConeSpec, "__init__", counting_init)
    g = GaugeSpec(cone, (1, 2))
    lo, hi = g.bisect((2, -1), Fraction(1, 64))
    assert lo <= g((2, -1)) == 3 <= hi
    assert built == []


@given(st.tuples(_coord, _coord))
@settings(max_examples=40, deadline=None)
def test_gauge_closed_form_inside_bisection_bracket(x):
    g = GaugeSpec(_quadrant(), (1, 2))
    tol = Fraction(1, 2**20)
    lo, hi = g.bisect(x, tol)
    val = g(x)
    assert lo <= val <= hi
    assert hi - lo <= tol


@given(st.tuples(_coord, _coord), st.tuples(_coord, _coord))
@settings(max_examples=40, deadline=None)
def test_gauge_is_a_norm(x, y):
    g = GaugeSpec(_quadrant(), (1, 2))
    s = tuple(a + b for a, b in zip(x, y))
    assert g(s) <= g(x) + g(y)
    assert g(tuple(-a for a in x)) == g(x)
    assert (g(x) == 0) == (x == (0, 0))
    assert g(tuple(3 * a for a in x)) == 3 * g(x)


def test_linear_map_compatibility():
    # x -> (x, x) maps the nonpositive line into the quadrant
    rep = linear_map_compatible([[1], [1]], _line(), _quadrant())
    assert rep.maps_cone and rep.maps_interior
    rep2 = linear_map_compatible([[1], [-1]], _line(), _quadrant())
    assert not rep2.maps_cone and not rep2.maps_interior
    # boundary embedding x -> (x, 0): cone lands on a face, never interior
    rep3 = linear_map_compatible([[1], [0]], _line(), _quadrant())
    assert rep3.maps_cone and not rep3.maps_interior


def test_gamma_properness():
    line = _line()
    # the cone is the nonpositive axis; a support receding upward meets the
    # antipode of its own recession in a whole ray, so properness fails,
    # while a downward-receding support intersects it only at the origin
    ray_up = PolySet(vertices=((Fraction(0),),), recession=((Fraction(1),),))
    ray_down = PolySet(vertices=((Fraction(0),),), recession=((Fraction(-1),),))
    assert not is_gamma_proper(line, ray_up)
    assert is_gamma_proper(line, ray_down)
    bounded = PolySet(vertices=((Fraction(0),), (Fraction(3),)))
    assert is_gamma_proper(line, bounded)
