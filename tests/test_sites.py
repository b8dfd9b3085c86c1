"""Open-set calculus, corner stabilization functors, ephemeral detection."""
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepersist.arrangement import ANTIPODAL, INTERIOR, CellComplex
from conepersist.cone import ConeSpec
from conepersist.docio import document_for
from conepersist.exactla import FieldMat
from conepersist.persist import (
    ArrModule,
    direct_sum,
    point_module,
    principal_module,
    random_module,
    random_morphism,
    shift_module,
    zero_module,
)
from conepersist.sites import (
    CLOSED,
    OPEN,
    GammaModule,
    OpenPiece,
    OpenSet,
    alpha_star,
    alpha_star_morphism,
    alpha_t,
    beta_inv,
    beta_inv_morphism,
    beta_star,
    beta_star_morphism,
    beta_t,
    exactness_probe,
    is_ephemeral,
    open_contains,
    open_equal,
    open_intersect,
    open_union,
    random_gamma_module,
    strict_restrictions_vanish,
)

from oracles import Diagram, limit


def _line():
    return ConeSpec(normals=[(-1,)], generators=[(-1,)])


def _quadrant():
    return ConeSpec(normals=[(-1, 0), (0, -1)], generators=[(-1, 0), (0, -1)])


def _line_cx(breaks=(0,)):
    return CellComplex(_line(), [list(breaks)])


def _quad_cx(bx=(0,), by=(0,)):
    return CellComplex(_quadrant(), [list(bx), list(by)])


# -- open sets -------------------------------------------------------------------


def test_open_piece_validation():
    with pytest.raises(ValueError):
        OpenPiece("halfopen", (0,))


def test_pruning_keeps_maximal_translates():
    u = OpenSet(_line(), [(CLOSED, (0,)), (CLOSED, (-1,))])
    assert u.pieces == (OpenPiece(CLOSED, (Fraction(0),)),)
    # a closed translate strictly inside an interior one is redundant
    v = OpenSet(_line(), [(OPEN, (1,)), (CLOSED, (0,))])
    assert v.pieces == (OpenPiece(OPEN, (Fraction(1),)),)
    # at the same basepoint the closed translate wins
    w = OpenSet(_line(), [(OPEN, (0,)), (CLOSED, (0,))])
    assert w.pieces == (OpenPiece(CLOSED, (Fraction(0),)),)
    # but a closed translate never fits inside the interior at the same point
    z = OpenSet(_line(), [(OPEN, (0,))])
    assert not open_contains(z, w)
    assert open_contains(w, z)


def test_containment_and_equality():
    u = OpenSet(_line(), [(CLOSED, (0,)), (CLOSED, (3,))])
    v = OpenSet(_line(), [(CLOSED, (3,))])
    assert open_equal(u, v)
    assert u == v
    assert hash(u) == hash(v)
    w = OpenSet(_line(), [(CLOSED, (2,))])
    assert open_contains(u, w) and not open_contains(w, u)
    other_cone = OpenSet(_quadrant(), [(CLOSED, (0, 0))])
    with pytest.raises(ValueError):
        open_contains(u, other_cone)


def test_union_and_intersection_frozen():
    c2 = OpenSet(_line(), [(CLOSED, (2,))])
    cm1 = OpenSet(_line(), [(CLOSED, (-1,))])
    assert open_union(c2, cm1) == c2
    assert open_intersect(c2, cm1) == cm1
    a = OpenSet(_quadrant(), [(CLOSED, (0, 3))])
    b = OpenSet(_quadrant(), [(CLOSED, (2, 1))])
    assert open_intersect(a, b) == OpenSet(_quadrant(), [(CLOSED, (0, 1))])
    with pytest.raises(ValueError):
        open_intersect(c2, OpenSet(_line(), [(OPEN, (0,))]))


def test_interior_operator():
    u = OpenSet(_line(), [(CLOSED, (0,)), (CLOSED, (5,))])
    au = alpha_t(u)
    assert au.kinds() == {OPEN}
    assert alpha_t(au) == au
    assert beta_t(au) == au
    with pytest.raises(ValueError):
        beta_t(u)


_base = st.tuples(st.integers(-4, 4).map(lambda n: Fraction(n, 2)),
                  st.integers(-4, 4).map(lambda n: Fraction(n, 2)))


@given(st.lists(_base, min_size=1, max_size=3), st.lists(_base, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_interior_commutes_with_intersection(ps, qs):
    u = OpenSet(_quadrant(), [(CLOSED, p) for p in ps])
    v = OpenSet(_quadrant(), [(CLOSED, q) for q in qs])
    assert open_equal(alpha_t(open_intersect(u, v)),
                      open_intersect(alpha_t(u), alpha_t(v)))


@given(st.lists(_base, min_size=1, max_size=3), st.lists(_base, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_union_is_join_and_intersection_is_meet(ps, qs):
    u = OpenSet(_quadrant(), [(CLOSED, p) for p in ps])
    v = OpenSet(_quadrant(), [(CLOSED, q) for q in qs])
    j = open_union(u, v)
    m = open_intersect(u, v)
    assert open_contains(j, u) and open_contains(j, v)
    assert open_contains(u, m) and open_contains(v, m)


# -- corner stabilization ---------------------------------------------------------


def test_gamma_invariant_accepts_downset_indicators():
    P = principal_module(_line_cx(), 2, (0,))
    GammaModule(P).validate()


def test_gamma_invariant_rejects_skyscrapers():
    S = point_module(_line_cx(), 2, (0,))
    with pytest.raises(ValueError):
        GammaModule(S)


def test_stabilization_kills_skyscrapers():
    S = point_module(_line_cx(), 2, (0,))
    assert beta_star(S).is_zero()
    assert is_ephemeral(S)


def test_stabilization_is_canonical_and_idempotent():
    for seed in range(6):
        F = random_module(_quad_cx((0,), (0, 1)), 2, seed)
        g = beta_star(F)
        m = g.module
        for c in m.complex.cells():
            inner = m.complex.just_inside(c, INTERIOR)
            if inner != c and m.dim_at(c):
                assert m.structure_map(inner, c) == FieldMat.identity(2, m.dim_at(c))
        assert beta_star(m) == g


def test_example_stalks_of_an_upward_ray():
    # gamma-module of the indicator of [t, infinity): value k strictly above t
    t = Fraction(1)
    cx = _line_cx((t,))
    G = GammaModule(ArrModule(cx, 2, {(2,): 1}, {}))
    down = beta_inv(G)
    up = alpha_star(G)
    assert down.dim_at_point((t,)) == 1
    assert up.dim_at_point((t,)) == 0
    assert down.dim_at_point((t + 1,)) == 1 and up.dim_at_point((t + 1,)) == 1
    assert down.dim_at_point((t - 1,)) == 0 and up.dim_at_point((t - 1,)) == 0


def test_round_trips_on_random_gamma_modules():
    for seed in range(10):
        cx = _quad_cx((0,), (Fraction(1, 2),)) if seed % 2 else _line_cx((0, 1))
        g = random_gamma_module(cx, 2, seed)
        assert beta_star(beta_inv(g)) == g
        assert beta_star(alpha_star(g)) == g


def test_functors_act_on_morphisms():
    cx = _line_cx((0, 1))
    F = random_module(cx, 2, 1)
    G = random_module(cx, 2, 2)
    f = random_morphism(F, G, 3)
    sf = beta_star_morphism(f)
    sf.validate()
    assert sf.src == beta_star(F).module
    assert sf.dst == beta_star(G).module


def test_zero_module_round_trip():
    z = zero_module(_line_cx(), 2)
    assert beta_star(z).is_zero()
    assert beta_inv(beta_star(z)).is_zero()


# -- stabilized values as honest limits -------------------------------------------


def _truncated_limit_dim(F, cell, depth):
    """Limit of F over the cells of (x + interior cone) within the given
    graded depth of the adjacent open cell, x the cell's representative."""
    cx = F.complex
    top = cx.just_inside(cell, INTERIOR)
    axes = cx.axes

    def grade(u):
        return sum(ax.oriented(t) - ax.oriented(i) for ax, t, i in zip(axes, top, u))

    region = [
        u for u in cx.cells()
        if cx.cell_leq(u, top) and 0 <= grade(u) <= depth
    ]
    # the diagram is covariant on the opposite of the cell order
    leq = lambda a, b: cx.cell_leq(b, a)
    dims = {u: F.dim_at(u) for u in region}
    diag = Diagram(region, leq, dims, _cover_arrows(F, region, leq), F.p)
    res = limit(diag)
    proj = res.projections[top]
    return res.dim, proj.rank()


def _cover_arrows(F, region, leq):
    arrows = {}
    for a in region:
        for b in region:
            if a == b or not leq(a, b):
                continue
            if any(c not in (a, b) and leq(a, c) and leq(c, b) for c in region):
                continue
            arrows[(a, b)] = F.structure_map(b, a)
    return arrows


def test_stabilized_value_agrees_with_finite_limits():
    # the net of values just inside the corner is initial: truncating the
    # genuinely infinite limit at any depth must reproduce the cell value
    for seed in (0, 1, 2, 3):
        F = random_module(_line_cx((0, 1)), 2, seed)
        stab = beta_star(F).module
        for cell in ((1,), (3,)):
            top = F.complex.just_inside(cell, INTERIOR)
            for depth in (1, 2, 3):
                dim, proj_rank = _truncated_limit_dim(F, cell, depth)
                assert dim == F.dim_at(top) == stab.dim_at(cell)
                assert proj_rank == dim


def test_stabilized_value_agrees_with_finite_limits_two_axes():
    for seed in (0, 5):
        F = random_module(_quad_cx((0,), (0,)), 3, seed)
        stab = beta_star(F).module
        cell = (1, 1)
        top = F.complex.just_inside(cell, INTERIOR)
        for depth in (1, 2):
            dim, proj_rank = _truncated_limit_dim(F, cell, depth)
            assert dim == F.dim_at(top) == stab.dim_at(cell)
            assert proj_rank == dim


# -- ephemeral detection -----------------------------------------------------------


def test_ephemeral_iff_strict_restrictions_vanish():
    cx = _line_cx((0, 1))
    for seed in range(20):
        F = random_module(cx, 2, seed, max_dim=2)
        assert is_ephemeral(F) == strict_restrictions_vanish(F)
    S = point_module(cx, 2, (0,))
    assert is_ephemeral(S) and strict_restrictions_vanish(S)
    P = principal_module(cx, 2, (0,))
    assert not is_ephemeral(P) and not strict_restrictions_vanish(P)


def test_strict_restriction_test_is_one_axis_only():
    F = random_module(_quad_cx(), 2, 0)
    with pytest.raises(ValueError):
        strict_restrictions_vanish(F)


def test_ephemeral_closed_under_sums_and_shifts():
    cx = _line_cx((0,))
    S = point_module(cx, 2, (0,))
    T = point_module(cx, 2, (Fraction(1, 2),))
    assert is_ephemeral(direct_sum(S, T))
    assert is_ephemeral(shift_module(S, (Fraction(3, 2),)))


def test_exactness_probe_on_random_morphisms():
    cx = _line_cx((0, 1))
    for seed in range(8):
        F = random_module(cx, 2, seed)
        G = random_module(cx, 2, seed + 100)
        f = random_morphism(F, G, seed)
        rep = exactness_probe(f)
        assert rep.ok, rep.failures
        assert rep.dims["kernel"] + rep.dims["image"] == rep.dims["middle"]


# sha256 of every corner functor's documents on seeded modules and
# morphisms: a change to how the functors pull back must keep it
_STABILIZED_DIGEST = "c17ea64dba40f2c0bb0cd01f3c69285ca210cd74cdc5d42ff79bca7ea545b8c8"


def _stabilized_documents(i):
    """Documents of every corner functor applied to a seeded module pair
    and two morphisms between them: p alternates 2, 3; pairs 2 and 3 of
    every four are 2-D."""
    rng = random.Random(f"stabilized:{i}")
    p = (2, 3)[i % 2]
    pool = [Fraction(n, 2) for n in range(-3, 4)]
    if i % 4 >= 2:
        cx = _quad_cx(sorted(rng.sample(pool, 1)), sorted(rng.sample(pool, 2)))
    else:
        cx = _line_cx(sorted(rng.sample(pool, 3)))
    F = random_module(cx, p, rng.randrange(10**6), max_dim=2)
    G = random_module(cx, p, rng.randrange(10**6), max_dim=2)
    docs = []
    for mod in (F, G):
        g = GammaModule(mod, validate=False)
        docs += [beta_star(mod), beta_inv(g), alpha_star(g)]
    for f in (random_morphism(F, F, rng.randrange(10**6)), random_morphism(F, G, rng.randrange(10**6))):
        docs += [beta_star_morphism(f), beta_inv_morphism(f), alpha_star_morphism(f)]
    return [document_for(d) for d in docs]


def test_pinned_stabilizations():
    records = [_stabilized_documents(i) for i in range(24)]
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _STABILIZED_DIGEST
