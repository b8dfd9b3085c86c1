"""Cell arrangements: axis grids, cone-order on cells, refinement."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepersist.arrangement import (
    ANTIPODAL,
    INTERIOR,
    AxisGrid,
    CellComplex,
    axis_cell_map,
    cell_map,
    common_refinement,
    orthant_transform,
)
from conepersist.cone import ConeSpec


def _line():
    return ConeSpec(normals=[(-1,)], generators=[(-1,)])


def _quadrant():
    return ConeSpec(normals=[(-1, 0), (0, -1)], generators=[(-1, 0), (0, -1)])


def _wedge():
    return ConeSpec(normals=[(-1, 0), (1, -1)], generators=[(-1, -1), (0, -1)])


# -- single axis ---------------------------------------------------------------


def test_axis_grid_cells_and_membership():
    g = AxisGrid(breaks=(Fraction(0), Fraction(1)), sign=-1)
    assert g.ncells == 5
    # interval / point / interval / point / interval
    assert g.cell_of(Fraction(-5)) == 0
    assert g.cell_of(Fraction(0)) == 1
    assert g.cell_of(Fraction(1, 2)) == 2
    assert g.cell_of(Fraction(1)) == 3
    assert g.cell_of(Fraction(7)) == 4


def test_axis_grid_representatives():
    g = AxisGrid(breaks=(Fraction(0), Fraction(1)), sign=-1)
    assert g.representative(0) == -1
    assert g.representative(1) == 0
    assert g.representative(2) == Fraction(1, 2)
    assert g.representative(3) == 1
    assert g.representative(4) == 2
    empty = AxisGrid(breaks=(), sign=-1)
    assert empty.ncells == 1
    assert empty.representative(0) == 0


def test_axis_grid_orientation_follows_sign():
    g = AxisGrid(breaks=(Fraction(0), Fraction(1)), sign=-1)
    assert [g.oriented(i) for i in range(5)] == [0, 1, 2, 3, 4]
    h = AxisGrid(breaks=(Fraction(0), Fraction(1)), sign=1)
    assert [h.oriented(i) for i in range(5)] == [4, 3, 2, 1, 0]


def test_axis_grid_just_inside():
    g = AxisGrid(breaks=(Fraction(0),), sign=-1)
    # intervals are already open
    assert g.just_inside(0, INTERIOR) == 0
    assert g.just_inside(2, ANTIPODAL) == 2
    # sign -1: the cone side is numerically below the breakpoint
    assert g.just_inside(1, INTERIOR) == 0
    assert g.just_inside(1, ANTIPODAL) == 2
    h = AxisGrid(breaks=(Fraction(0),), sign=1)
    assert h.just_inside(1, INTERIOR) == 2
    assert h.just_inside(1, ANTIPODAL) == 0


def test_axis_grid_validation():
    with pytest.raises(ValueError):
        AxisGrid(breaks=(Fraction(1), Fraction(0)), sign=-1)
    with pytest.raises(ValueError):
        AxisGrid(breaks=(Fraction(0), Fraction(0)), sign=-1)
    with pytest.raises(ValueError):
        AxisGrid(breaks=(), sign=0)


@given(st.lists(st.integers(-4, 4).map(Fraction), min_size=1, max_size=4, unique=True),
       st.integers(-6, 6).map(Fraction))
@settings(max_examples=80, deadline=None)
def test_axis_cell_of_round_trips_through_representative(breaks, x):
    g = AxisGrid(breaks=tuple(sorted(breaks)), sign=-1)
    idx = g.cell_of(x)
    assert g.cell_of(g.representative(idx)) == idx
    # representatives are strictly increasing in the raw index
    reps = [g.representative(i) for i in range(g.ncells)]
    assert all(a < b for a, b in zip(reps, reps[1:]))


_GRID_POINTS = st.integers(-8, 8).map(lambda n: Fraction(n, 2))


@given(st.lists(_GRID_POINTS, max_size=4, unique=True),
       st.lists(_GRID_POINTS, max_size=3, unique=True),
       st.integers(0, 6).map(lambda n: Fraction(n, 4)),
       st.sampled_from((-1, 1)))
@settings(max_examples=120, deadline=None)
def test_axis_cell_map_matches_cell_of(breaks, extra, v, sign):
    # the fine grid is laid out as the decision's witness grid: the coarse
    # breakpoints, their translates by -v and -2v, and some unrelated ones
    coarse = AxisGrid(tuple(sorted(breaks)), sign)
    fine_breaks = set(extra)
    for k in range(3):
        fine_breaks |= {b - k * v for b in coarse.breaks}
    fine = AxisGrid(tuple(sorted(fine_breaks)), sign)
    for s in (Fraction(0), v, 2 * v):
        want = [coarse.cell_of(fine.representative(i) + s) for i in range(fine.ncells)]
        assert axis_cell_map(fine, coarse, s) == want


def test_axis_cell_map_rejects_a_grid_that_does_not_refine():
    coarse = AxisGrid((Fraction(0), Fraction(1)), -1)
    fine = AxisGrid((Fraction(0),), -1)
    with pytest.raises(ValueError):
        axis_cell_map(fine, coarse)
    # refines only after the shift
    shifted = AxisGrid((Fraction(-1), Fraction(0)), -1)
    with pytest.raises(ValueError):
        axis_cell_map(shifted, coarse)
    assert axis_cell_map(shifted, coarse, Fraction(1)) == [0, 1, 2, 3, 4]


# -- orthant transforms --------------------------------------------------------


def test_orthant_transform_is_the_normal_matrix():
    for cone in (_line(), _quadrant(), _wedge()):
        t = orthant_transform(cone)
        assert [tuple(row) for row in t] == list(cone.normals)


def test_orthant_transform_rejects_non_simplicial():
    # cone over a square base has four facets in dimension three
    square = ConeSpec(
        normals=[(-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)],
        generators=[(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1)],
    )
    with pytest.raises(ValueError):
        orthant_transform(square)


# -- complexes -----------------------------------------------------------------


def test_complex_cells_and_lookup():
    cx = CellComplex(_quadrant(), [[0], [Fraction(0), Fraction(1)]])
    assert cx.ncells == 15
    assert len(list(cx.cells())) == 15
    assert cx.cell_of((Fraction(-2), Fraction(1, 2))) == (0, 2)
    assert cx.cell_of((Fraction(0), Fraction(1))) == (1, 3)
    assert cx.cell_kind((1, 2)) == ("point", "open")
    assert cx.is_fully_open((0, 4))
    assert not cx.is_fully_open((1, 0))


def test_complex_requires_axis_aligned_cone_or_transform():
    with pytest.raises(ValueError):
        CellComplex(_wedge(), [[0], [0]])
    cx = CellComplex(_wedge(), [[0], [0]], transform=orthant_transform(_wedge()))
    # under the normal-matrix transform the cone becomes the positive orthant
    assert all(a.sign == 1 for a in cx.axes)
    assert cx.in_antipode_interior((-1, -2))
    assert not cx.in_antipode_interior((1, -2))


def test_complex_axis_count_mismatch():
    with pytest.raises(ValueError):
        CellComplex(_quadrant(), [[0]])


def test_breaks_are_sorted_and_deduplicated():
    cx = CellComplex(_line(), [[1, 0, 1, Fraction(1, 2)]])
    assert cx.axes[0].breaks == (Fraction(0), Fraction(1, 2), Fraction(1))


def test_compatible_means_same_cone_and_coordinates():
    a = CellComplex(_line(), [[0]])
    b = CellComplex(_line(), [[Fraction(3)]])
    assert a.compatible(b)
    assert a != b
    assert a == CellComplex(_line(), [[0]])
    w = CellComplex(_wedge(), [[0], [0]], transform=orthant_transform(_wedge()))
    assert not a.compatible(w)


_pt2 = st.tuples(st.integers(-4, 4).map(lambda n: Fraction(n, 2)),
                 st.integers(-4, 4).map(lambda n: Fraction(n, 2)))


@given(_pt2, _pt2)
@settings(max_examples=80, deadline=None)
def test_cell_order_matches_cone_order_of_representatives(x, y):
    cx = CellComplex(_quadrant(), [[0, 1], [Fraction(-1), Fraction(1, 2)]])
    a, b = cx.cell_of(x), cx.cell_of(y)
    ra, rb = cx.representative(a), cx.representative(b)
    assert cx.cell_leq(a, b) == cx.leq_vec(ra, rb)


def test_cover_pairs_are_covers():
    cx = CellComplex(_quadrant(), [[0], [0, 1]])
    pairs = list(cx.cover_pairs())
    # one oriented step down per axis wherever possible
    assert len(pairs) == 2 * 5 + 4 * 3
    all_cells = list(cx.cells())
    for a, b in pairs:
        assert a != b and cx.cell_leq(a, b)
        between = [c for c in all_cells if cx.cell_leq(a, c) and cx.cell_leq(c, b)]
        assert len(between) == 2


def _fresh_step_down(cx, cell, j):
    # one step down the cone order on axis j, from the axis sign alone
    ax = cx.axes[j]
    if ax.oriented(cell[j]) == 0:
        return None
    return cell[:j] + (cell[j] - 1 if ax.sign == -1 else cell[j] + 1,) + cell[j + 1 :]


def test_per_complex_tables_match_fresh_enumeration():
    # cells(), cover_pairs() and the step-down table are built once per
    # complex; each must equal a fresh enumeration, on every way a complex
    # is made, and a derived complex must build its own
    cones = [
        _line(),
        ConeSpec(normals=[(1,)], generators=[(1,)]),
        _quadrant(),
        ConeSpec(normals=[(-1, 0), (0, 1)], generators=[(-1, 0), (0, 1)]),
    ]
    for cone in cones:
        dim = cone.dim
        base = CellComplex(cone, [[0, Fraction(1, 2)], [-1]][:dim])
        derived = [
            base._derived([(Fraction(-1), Fraction(2)), ()][:dim]),
            base.shifted((Fraction(1, 3),) * dim),
            base.with_extra_breaks([[Fraction(1, 4)], [0, 3]][:dim]),
        ]
        for cx in [base] + derived:
            fresh = tuple(itertools.product(*(range(a.ncells) for a in cx.axes)))
            assert cx.cells() == fresh and cx.cells() == cx.cells()
            assert cx.cover_pairs() == tuple(
                (a, b) for b in fresh for j in range(dim) if (a := _fresh_step_down(cx, b, j)) is not None
            )
            assert cx.cover_pairs() == cx.cover_pairs()
            for cell in fresh:
                for j in range(dim):
                    assert cx.step_down(cell, j) == _fresh_step_down(cx, cell, j)
                    step = cx._steps[j][cell[j]]
                    assert (step is None) == (_fresh_step_down(cx, cell, j) is None)
                    assert step is None or _fresh_step_down(cx, cell, j)[j] == step
        for cx in derived:
            assert cx.cells() is not base.cells()
            assert cx.cover_pairs() is not base.cover_pairs()
            assert cx._steps is not base._steps


def test_just_inside_lands_in_open_cells_and_is_idempotent():
    cx = CellComplex(_quadrant(), [[0, 1], [0]])
    for cell in cx.cells():
        for d in (INTERIOR, ANTIPODAL):
            moved = cx.just_inside(cell, d)
            assert cx.is_fully_open(moved)
            assert cx.just_inside(moved, d) == moved
    # the interior nudge moves down the cone order, the antipodal one up
    assert cx.cell_leq(cx.just_inside((1, 1), INTERIOR), (1, 1))
    assert cx.cell_leq((1, 1), cx.just_inside((1, 1), ANTIPODAL))
    with pytest.raises(ValueError):
        cx.just_inside((0, 0), "sideways")


def test_direction_predicates():
    cx = CellComplex(_quadrant(), [[0], [0]])
    assert cx.in_antipode_interior((Fraction(1, 2), Fraction(3)))
    assert not cx.in_antipode_interior((1, 0))
    assert cx.in_antipode((1, 0))
    assert not cx.in_antipode((-1, 1))


@given(_pt2, _pt2)
@settings(max_examples=60, deadline=None)
def test_shifted_complex_relabels_points(x, v):
    cx = CellComplex(_quadrant(), [[0, 1], [Fraction(-1, 2)]])
    moved = cx.shifted(v)
    xv = tuple(a + b for a, b in zip(x, v))
    assert moved.cell_of(x) == cx.cell_of(xv)


def test_with_extra_breaks_refines():
    cx = CellComplex(_line(), [[0]])
    finer = cx.with_extra_breaks([[Fraction(1, 2), 0]])
    assert finer.axes[0].breaks == (Fraction(0), Fraction(1, 2))
    assert cx.compatible(finer)


def test_common_refinement_cell_maps():
    a = CellComplex(_line(), [[0]])
    b = CellComplex(_line(), [[Fraction(1, 2)]])
    refined, (to_a, to_b) = common_refinement(a, b)
    assert refined.axes[0].breaks == (Fraction(0), Fraction(1, 2))
    for x in (Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9)):
        cell = refined.cell_of((x,))
        assert to_a(cell) == a.cell_of((x,))
        assert to_b(cell) == b.cell_of((x,))


@given(st.lists(st.integers(-3, 3).map(Fraction), min_size=1, max_size=3, unique=True),
       st.lists(st.integers(-3, 3).map(Fraction), min_size=1, max_size=3, unique=True),
       st.lists(st.integers(-6, 6).map(lambda n: Fraction(n, 2)), max_size=3, unique=True),
       st.integers(-8, 8).map(lambda n: Fraction(n, 2)))
@settings(max_examples=60, deadline=None)
def test_common_refinement_property(bx, by, bz, x):
    inputs = [CellComplex(_line(), [bs]) for bs in (bx, by, bz)]
    refined, maps = common_refinement(*inputs)
    cell = refined.cell_of((x,))
    for c, to_c in zip(inputs, maps):
        assert to_c(cell) == c.cell_of((x,))


def test_common_refinement_rejects_mismatched_cones():
    a = CellComplex(_line(), [[0]])
    w = CellComplex(_wedge(), [[0], [0]], transform=orthant_transform(_wedge()))
    with pytest.raises(ValueError):
        common_refinement(a, w)


def _cone_case(k):
    """A line, a quadrant, or a wedge with its orthant transform."""
    return [(_line(), None), (_quadrant(), None), (_wedge(), orthant_transform(_wedge()))][k]


@given(st.integers(0, 2), st.data())
@settings(max_examples=80, deadline=None)
def test_derived_grids_match_the_constructor(k, data):
    cone, transform = _cone_case(k)
    axis_points = st.lists(_GRID_POINTS, max_size=3, unique=True)
    breaks = [data.draw(axis_points) for _ in range(cone.dim)]
    extra = [data.draw(axis_points) for _ in range(cone.dim)]
    other = [data.draw(axis_points) for _ in range(cone.dim)]
    v = [data.draw(_GRID_POINTS) for _ in range(cone.dim)]
    cx = CellComplex(cone, breaks, transform)
    refined, maps = common_refinement(cx, CellComplex(cone, other, transform))
    for got, raw in (
        (cx.shifted(v), [[b - vj for b in bs] for bs, vj in zip(breaks, v)]),
        (cx.with_extra_breaks(extra), [bs + ex for bs, ex in zip(breaks, extra)]),
        (refined, [bs + ot for bs, ot in zip(breaks, other)]),
    ):
        want = CellComplex(cone, raw, transform)
        assert got == want and hash(got) == hash(want)
        assert got.axes == want.axes  # breakpoints and signs
        assert (got.cone, got.transform, got.dim) == (want.cone, want.transform, want.dim)
    # each refinement map is the per-axis table composition, cell by cell
    for m, coarse in zip(maps, (cx, CellComplex(cone, other, transform))):
        tables = [axis_cell_map(f, c) for f, c in zip(refined.axes, coarse.axes)]
        for cell in refined.cells():
            assert m(cell) == cell_map(refined, coarse)(cell) == tuple(t[i] for t, i in zip(tables, cell))
