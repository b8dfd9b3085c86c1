"""Modules on cell arrangements: constructors, structure maps, exactness."""
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conepersist.arrangement import CellComplex, common_refinement
from conepersist.cone import ConeSpec
from conepersist.docio import document_for
from conepersist.exactla import FieldMat
from conepersist.persist import (
    ArrModule,
    ModMorphism,
    direct_sum,
    hom_space,
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


def test_structure_map_walks_a_long_line():
    # 1,000 breakpoints put 1,999 cover steps between the end cells, more
    # than the interpreter's stack allows one frame each
    cx = _line_cx(range(1000))
    P = principal_module(cx, 2, (999,))
    assert P.structure_map((0,), (1999,)) == FieldMat.identity(2, 1)
    F = random_module(cx, 3, 7, max_dim=2, zero_chance=0)
    G = random_module(cx, 3, 7, max_dim=2, zero_chance=0)
    a, b, c = (0,), (1001,), (2000,)
    assert F.structure_map(a, c) == G.structure_map(a, b) @ G.structure_map(b, c)
    # the walk down from c caches the map from a to every cell on the way
    assert F._smap_cache[(a, b)] == G.structure_map(a, b)


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


# -- natural maps ----------------------------------------------------------------


def _natural_count(src, dst, unknowns):
    """Brute force: how many cellwise matrix families src -> dst, with an
    entry per unknown, pass ModMorphism.validate."""
    p = src.p
    cells = list(unknowns)
    sizes = [r * c for r, c in unknowns.values()]
    count = 0
    for flat in itertools.product(range(p), repeat=sum(sizes)):
        comps, off = {}, 0
        for cell, (r, c), n in zip(cells, unknowns.values(), sizes):
            comps[cell] = FieldMat.make(p, [list(flat[off + i * c : off + (i + 1) * c]) for i in range(r)])
            off += n
        try:
            ModMorphism(src, dst, comps)
        except ValueError:
            continue
        count += 1
    return count


@given(st.sampled_from([2, 3]), st.booleans(), st.integers(0, 10**6), st.integers(0, 10**6), st.data())
@settings(max_examples=60, deadline=None)
def test_hom_space_is_the_natural_maps(p, two_d, s1, s2, data):
    cx = _quad_cx() if two_d else _line_cx((0, 1))
    max_dim = 1 if two_d else 2
    src = random_module(cx, p, s1, max_dim=max_dim, zero_chance=0.4)
    dst = random_module(cx, p, s2, max_dim=max_dim, zero_chance=0.4)
    unknowns, _, space = hom_space(src, dst)
    assert unknowns == {
        c: (dst.dim_at(c), src.dim_at(c)) for c in cx.cells() if src.dim_at(c) and dst.dim_at(c)
    }
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=space.dim, max_size=space.dim))
    ModMorphism(src, dst, space.element(coeffs))  # validates naturality
    assume(p ** sum(r * c for r, c in unknowns.values()) <= 729)
    assert _natural_count(src, dst, unknowns) == p**space.dim


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


# sha256 of the kernel, image and cokernel documents of seeded morphisms:
# a change to how subobjects carry their bases must keep it
_SUBOBJECT_DIGEST = "4b416f05f31ef6edfb69e31bbfeb3872f85a7e5813a4737497285e8c8fec716c"


def _subobject_documents(i):
    """Documents of the kernel inclusion, the image inclusion and
    corestriction, and the cokernel projection of a seeded morphism: p
    alternates 2, 3; pairs 2 and 3 of every four are 2-D."""
    rng = random.Random(f"subobjects:{i}")
    p = (2, 3)[i % 2]
    pool = [Fraction(n, 2) for n in range(-3, 4)]
    if i % 4 >= 2:
        cx = _quad_cx(sorted(rng.sample(pool, 1)), sorted(rng.sample(pool, 2)))
    else:
        cx = _line_cx(sorted(rng.sample(pool, 3)))
    F = random_module(cx, p, rng.randrange(10**6))
    G = random_module(cx, p, rng.randrange(10**6))
    f = random_morphism(F, G, rng.randrange(10**6))
    _, incl_k = pointwise_kernel(f)
    _, incl_i, cores = pointwise_image(f)
    _, proj = pointwise_cokernel(f)
    return [document_for(m) for m in (incl_k, incl_i, cores, proj)]


def test_pinned_subobjects():
    records = [_subobject_documents(i) for i in range(24)]
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _SUBOBJECT_DIGEST


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
