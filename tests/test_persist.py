"""Modules on cell arrangements: constructors, structure maps, exactness."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepersist.arrangement import CellComplex, common_refinement
from conepersist.cone import ConeSpec
from conepersist.exactla import FieldMat
from conepersist.persist import (
    ArrModule,
    ModMorphism,
    direct_sum,
    identity_morphism,
    point_module,
    pointwise_cokernel,
    pointwise_image,
    pointwise_kernel,
    principal_module,
    random_module,
    random_morphism,
    restrict_module,
    shift_module,
    smoothing,
    zero_module,
    zero_morphism,
    _quotient_data,
)


def _line_cx(breaks=(0,)):
    cone = ConeSpec(normals=[(-1,)], generators=[(-1,)])
    return CellComplex(cone, [list(breaks)])


def _quad_cx(bx=(0,), by=(0,)):
    cone = ConeSpec(normals=[(-1, 0), (0, -1)], generators=[(-1, 0), (0, -1)])
    return CellComplex(cone, [list(bx), list(by)])


# -- constructors ----------------------------------------------------------------


def test_zero_module():
    z = zero_module(_line_cx(), 2)
    assert z.is_zero()
    assert z.total_dim() == 0
    assert z.dim_at_point((Fraction(0),)) == 0


def test_principal_module_is_a_closed_downset_indicator():
    P = principal_module(_line_cx(), 2, (3,))
    # refines the grid so 3 is a breakpoint, then fills everything below
    assert P.complex.axes[0].breaks == (Fraction(0), Fraction(3))
    assert P.total_dim() == 4
    for x, want in ((-10, 1), (0, 1), (1, 1), (3, 1), (4, 0)):
        assert P.dim_at_point((Fraction(x),)) == want
    m = P.eval_map((Fraction(-5),), (Fraction(3),))
    assert m == FieldMat.identity(2, 1)
    P.validate()


def test_point_module_is_a_skyscraper():
    S = point_module(_line_cx(), 3, (0,))
    assert S.total_dim() == 1
    assert S.dim_at_point((Fraction(0),)) == 1
    assert S.dim_at_point((Fraction(1, 7),)) == 0
    down = S.eval_map((Fraction(-1),), (Fraction(0),))
    assert down.nrows == 0 and down.ncols == 1


def test_principal_module_two_axes():
    P = principal_module(_quad_cx(), 2, (1, 2))
    assert P.dim_at_point((0, 0)) == 1
    assert P.dim_at_point((1, 2)) == 1
    assert P.dim_at_point((2, 0)) == 0
    assert P.dim_at_point((0, 3)) == 0
    P.validate()


# -- structure maps ----------------------------------------------------------------


@given(st.integers(0, 10_000), st.data())
@settings(max_examples=40, deadline=None)
def test_structure_maps_compose(seed, data):
    cx = _quad_cx((0,), (0, 1))
    F = random_module(cx, 2, seed)
    cells = sorted(cx.cells())
    a = data.draw(st.sampled_from(cells))
    b = data.draw(st.sampled_from([c for c in cells if cx.cell_leq(a, c)]))
    c = data.draw(st.sampled_from([d for d in cells if cx.cell_leq(b, d)]))
    assert F.structure_map(a, c) == F.structure_map(a, b) @ F.structure_map(b, c)


def test_structure_map_rejects_unordered_cells():
    F = principal_module(_line_cx(), 2, (0,))
    with pytest.raises(ValueError):
        F.structure_map((2,), (0,))


def test_eval_map_identity_within_a_cell():
    F = principal_module(_line_cx(), 5, (0,))
    m = F.eval_map((Fraction(-3),), (Fraction(-1, 2),))
    assert m == FieldMat.identity(5, 1)


# -- validation ----------------------------------------------------------------


def test_validate_rejects_bad_shapes():
    cx = _line_cx()
    with pytest.raises(ValueError):
        ArrModule(cx, 2, {(0,): 1, (1,): 1}, {((0,), (1,)): FieldMat.zero(2, 2, 1)})
    with pytest.raises(ValueError):
        ArrModule(cx, 2, {(9,): 1}, {})
    with pytest.raises(ValueError):
        ArrModule(cx, 1, {(0,): 1}, {})


def test_validate_rejects_non_cover_keys():
    cx = _line_cx((0, 1))
    dims = {(0,): 1, (4,): 1}
    with pytest.raises(ValueError):
        ArrModule(cx, 2, dims, {((0,), (4,)): FieldMat.identity(2, 1)})


def test_validate_rejects_non_commuting_square():
    cx = _quad_cx()
    one = FieldMat.identity(2, 1)
    zero = FieldMat.zero(2, 1, 1)
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    maps = {
        ((0, 1), (1, 1)): one,
        ((1, 0), (1, 1)): one,
        ((0, 0), (0, 1)): one,
        ((0, 0), (1, 0)): zero,
    }
    with pytest.raises(ValueError):
        ArrModule(cx, 2, dims, maps)


def test_morphism_validate_rejects_unnatural_components():
    P = principal_module(_line_cx(), 2, (0,))
    S = restrict_module(point_module(_line_cx(), 2, (0,)), P.complex, lambda c: c)
    # S -> P with the identity at the breakpoint cell is not natural:
    # P keeps going below 0 while S dies
    with pytest.raises(ValueError):
        ModMorphism(S, P, {(1,): FieldMat.identity(2, 1)})
    # the other direction is natural (kill everything below the point)
    ModMorphism(P, S, {(1,): FieldMat.identity(2, 1)}).validate()


# -- direct sums and shifts ----------------------------------------------------------------


@given(st.integers(0, 10_000), st.integers(0, 10_000),
       st.integers(-6, 6).map(lambda n: Fraction(n, 2)))
@settings(max_examples=30, deadline=None)
def test_direct_sum_adds_pointwise_dimensions(s1, s2, x):
    F = random_module(_line_cx((0,)), 2, s1)
    G = random_module(_line_cx((Fraction(1, 2), 1)), 2, s2)
    S = direct_sum(F, G)
    S.validate()
    assert S.dim_at_point((x,)) == F.dim_at_point((x,)) + G.dim_at_point((x,))


def test_direct_sum_rejects_field_mismatch():
    F = point_module(_line_cx(), 2, (0,))
    G = point_module(_line_cx(), 3, (0,))
    with pytest.raises(ValueError):
        direct_sum(F, G)


@given(st.integers(0, 10_000),
       st.integers(-4, 4).map(lambda n: Fraction(n, 2)),
       st.integers(-4, 4).map(lambda n: Fraction(n, 2)))
@settings(max_examples=30, deadline=None)
def test_shift_module_translates_evaluation(seed, v, x):
    F = random_module(_line_cx((0, 1)), 3, seed)
    S = shift_module(F, (v,))
    assert S.dim_at_point((x,)) == F.dim_at_point((x + v,))
    y = x - 2
    assert S.eval_map((y,), (x,)) == F.eval_map((y + v,), (x + v,))


def test_restriction_preserves_evaluation():
    F = random_module(_line_cx((0,)), 2, 7)
    refined = F.complex.with_extra_breaks([[Fraction(1, 3), Fraction(5)]])
    R, maps = common_refinement(F.complex, refined)
    G = restrict_module(F, R, maps[0])
    G.validate()
    pts = [Fraction(n, 3) for n in range(-4, 17)]
    for x in pts:
        assert G.dim_at_point((x,)) == F.dim_at_point((x,))
        for y in pts:
            if y <= x:
                assert G.eval_map((y,), (x,)) == F.eval_map((y,), (x,))


# -- smoothing ----------------------------------------------------------------


def test_smoothing_by_zero_is_identity():
    F = random_module(_line_cx((0, 1)), 2, 11)
    f = smoothing(F, (0,), (0,))
    f.validate()
    for c in f.src.complex.cells():
        d = f.src.dim_at(c)
        if d:
            assert f.at(c) == FieldMat.identity(2, d)


def test_smoothing_shape_and_direction():
    P = principal_module(_line_cx(), 2, (0,))
    f = smoothing(P, (0,), (-2,))
    f.validate()
    assert not f.is_zero()
    assert f.src.dim_at_point((0,)) == 1
    assert f.dst.dim_at_point((2,)) == 1
    with pytest.raises(ValueError):
        smoothing(P, (0,), (1,))


def test_smoothing_composes_like_translation():
    # passing from shift 0 to -1 to -2 equals passing directly to -2
    F = random_module(_line_cx((0, 1)), 2, 23)
    f10 = smoothing(F, (0,), (-1,))
    f21 = smoothing(F, (-1,), (-2,))
    f20 = smoothing(F, (0,), (-2,))
    refined, maps = common_refinement(f20.src.complex, f10.src.complex, f21.src.complex)
    for c in refined.cells():
        lhs = f20.at(maps[0](c))
        rhs = f21.at(maps[2](c)) @ f10.at(maps[1](c))
        if lhs.nrows and lhs.ncols:
            assert lhs == rhs


# -- kernels, images, cokernels ----------------------------------------------------------------


@given(st.sampled_from([2, 3]), st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_kernel_image_cokernel_ranks(p, s1, s2, s3):
    cx = _quad_cx((0,), (0,))
    F = random_module(cx, p, s1)
    G = random_module(cx, p, s2)
    f = random_morphism(F, G, s3)
    f.validate()
    ker, incl_k = pointwise_kernel(f)
    im, incl_i, cores = pointwise_image(f)
    cok, proj = pointwise_cokernel(f)
    for m in (ker, im, cok):
        m.validate()
    for c in cx.cells():
        rank = f.at(c).rank()
        assert ker.dim_at(c) == F.dim_at(c) - rank
        assert im.dim_at(c) == rank
        assert cok.dim_at(c) == G.dim_at(c) - rank
        # f factors through its image
        assert incl_i.at(c) @ cores.at(c) == f.at(c)
        # the kernel inclusion is killed by f, the image by the projection
        assert (f.at(c) @ incl_k.at(c)).is_zero()
        assert (proj.at(c) @ incl_i.at(c)).is_zero()
        # the cokernel's projection q has a section s with q s = id
        q, s = _quotient_data(p, G.dim_at(c), incl_i.at(c))
        assert q @ s == FieldMat.identity(p, q.nrows)
        assert (q @ incl_i.at(c)).is_zero()


def test_kernel_of_identity_and_zero():
    F = principal_module(_line_cx(), 2, (0,))
    ker, _ = pointwise_kernel(identity_morphism(F))
    assert ker.is_zero()
    ker2, incl = pointwise_kernel(zero_morphism(F, F))
    assert ker2.dims == F.dims
    cok, _ = pointwise_cokernel(identity_morphism(F))
    assert cok.is_zero()


# -- composition ----------------------------------------------------------------


def test_compose_with_identity():
    F = random_module(_line_cx((0,)), 2, 3)
    G = random_module(_line_cx((0,)), 2, 4)
    f = random_morphism(F, G, 5)
    assert identity_morphism(G).compose(f) == f
    assert f.compose(identity_morphism(F)) == f
    with pytest.raises(ValueError):
        f.compose(f)


# -- random generation ----------------------------------------------------------------


def test_random_module_is_reproducible_and_valid():
    cx = _quad_cx((0,), (0, 1))
    a = random_module(cx, 2, 42)
    b = random_module(cx, 2, 42)
    assert a == b
    assert a != random_module(cx, 2, 43) or a.total_dim() == 0
    over_f5 = random_module(cx, 5, 42)
    over_f5.validate()


def test_random_morphism_is_reproducible_and_natural():
    cx = _line_cx((0, 1))
    F = random_module(cx, 3, 1)
    G = random_module(cx, 3, 2)
    f = random_morphism(F, G, 9)
    g = random_morphism(F, G, 9)
    assert f == g
    f.validate()


def test_random_module_rejects_three_axes():
    cone = ConeSpec(
        normals=[(-1, 0, 0), (0, -1, 0), (0, 0, -1)],
        generators=[(-1, 0, 0), (0, -1, 0), (0, 0, -1)],
    )
    cx = CellComplex(cone, [[0], [0], [0]])
    with pytest.raises(ValueError):
        random_module(cx, 2, 0)
