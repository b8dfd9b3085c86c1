import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepersist.exactla import FieldMat, affine_solution_space
from oracles import (
    Diagram,
    _dense_rows,
    _solve_space_generic,
    colimit,
    enumerated_colimit_dim,
    enumerated_limit_dim,
    limit,
)


def test_basic_arithmetic_mod_2_and_5():
    a = FieldMat.make(2, [[1, 1], [0, 1]])
    b = FieldMat.make(2, [[1, 0], [1, 1]])
    assert a @ b == FieldMat.make(2, [[0, 1], [1, 1]])
    assert a + a == FieldMat.zero(2, 2, 2)
    c = FieldMat.make(5, [[2, 3], [4, 1]])
    assert (-c) == FieldMat.make(5, [[3, 2], [1, 4]])
    assert c - c == FieldMat.zero(5, 2, 2)


def test_degenerate_shapes_compose():
    # compositions through a zero dimensional space must keep their shape
    a = FieldMat.zero(2, 2, 0)
    b = FieldMat.zero(2, 0, 3)
    assert (a @ b) == FieldMat.zero(2, 2, 3)
    assert a.transpose() == FieldMat.zero(2, 0, 2)
    assert FieldMat.zero(2, 0, 3).transpose() == FieldMat.zero(2, 3, 0)
    with pytest.raises(ValueError):
        b @ a @ b  # 0x3 then 3x? against 0 rows
    i0 = FieldMat.identity(2, 0)
    assert i0 @ b == b
    assert FieldMat.vstack(FieldMat.zero(2, 0, 3), b) == b
    assert FieldMat.hstack(a, FieldMat.zero(2, 2, 2)) == FieldMat.zero(2, 2, 2)


def test_shape_mismatches_raise():
    with pytest.raises(ValueError):
        FieldMat.make(2, [[1], [1, 0]])
    with pytest.raises(ValueError):
        FieldMat.make(2, [[1, 0]]) @ FieldMat.make(2, [[1, 0]])
    with pytest.raises(ValueError):
        FieldMat.vstack(FieldMat.zero(2, 1, 2), FieldMat.zero(2, 1, 3))
    with pytest.raises(ValueError):
        FieldMat.make(4, [[1]])  # not prime


def test_frozen_rref_rank_kernel():
    m = FieldMat.make(2, [[1, 1, 0], [1, 1, 1]])
    red, piv = m.rref()
    assert piv == (0, 2)
    assert m.rank() == 2
    k = m.kernel_basis()
    assert k.ncols == 1
    assert (m @ k).is_zero()
    # the kernel of this matrix is spanned by (1,1,0)
    assert tuple(r[0] for r in k.entries) == (1, 1, 0)


def test_solve_and_inverse():
    m = FieldMat.make(3, [[1, 2], [0, 1]])
    rhs = FieldMat.make(3, [[1], [1]])
    x = m.solve(rhs)
    assert m @ x == rhs
    inv = m.inverse()
    assert inv @ m == FieldMat.identity(3, 2)
    assert m @ inv == FieldMat.identity(3, 2)
    assert FieldMat.make(2, [[1, 1], [1, 1]]).inverse() is None
    # inconsistent system
    bad = FieldMat.make(2, [[1, 1], [1, 1]]).solve(FieldMat.make(2, [[0], [1]]))
    assert bad is None


@st.composite
def _fp_matrix(draw, p, max_n=3):
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, max_n))
    rows = [[draw(st.integers(0, p - 1)) for _ in range(m)] for _ in range(n)]
    return FieldMat.make(p, rows, m)


_fields = st.sampled_from([2, 3])


@given(_fields.flatmap(_fp_matrix))
@settings(max_examples=120, deadline=None)
def test_kernel_and_column_space_properties(m):
    k = m.kernel_basis()
    assert (m @ k).is_zero()
    assert m.rank() + k.ncols == m.ncols
    cs = m.column_space_basis()
    assert cs.rank() == m.rank() == cs.ncols


@given(_fields.flatmap(lambda p: st.tuples(_fp_matrix(p, max_n=2), _fp_matrix(p, max_n=2))))
@settings(max_examples=100, deadline=None)
def test_solve_agrees_with_truth_table(pair):
    a, rhs = pair
    if rhs.nrows != a.nrows:
        return
    x = a.solve(rhs)
    # enumerate every candidate solution
    any_solution = None
    for vals in itertools.product(range(a.p), repeat=a.ncols * rhs.ncols):
        cand = FieldMat.make(
            a.p,
            [vals[i * rhs.ncols : (i + 1) * rhs.ncols] for i in range(a.ncols)],
            rhs.ncols,
        )
        if a @ cand == rhs:
            any_solution = cand
            break
    assert (x is not None) == (any_solution is not None)
    if x is not None:
        assert a @ x == rhs


@st.composite
def _block_system(draw, p):
    """Unknown blocks of up to 3x3 and equations summing L @ X @ R terms,
    with identity factors only where the shapes fit."""
    unknowns = {
        k: (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        for k in range(draw(st.integers(1, 4)))
    }

    def mat(r, c):
        return FieldMat.make(p, [[draw(st.integers(0, p - 1)) for _ in range(c)] for _ in range(r)], c)

    equations = []
    for _ in range(draw(st.integers(0, 5))):
        m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        terms = []
        for name in draw(st.lists(st.sampled_from(sorted(unknowns)), min_size=1, max_size=3)):
            r, c = unknowns[name]
            left = None if r == m and draw(st.booleans()) else mat(m, r)
            right = None if c == n and draw(st.booleans()) else mat(c, n)
            terms.append((left, name, right))
        # homogeneous equations keep enough systems feasible to compare bases
        rhs = mat(m, n) if draw(st.booleans()) else FieldMat.zero(p, m, n)
        equations.append((terms, rhs))
    return unknowns, equations


def _assert_matches_dense_reference(p, system):
    unknowns, equations = system
    space = affine_solution_space(p, unknowns, equations)
    layout = space._layout
    index = {name: (r, c, o) for name, r, c, o in layout}
    total = sum(r * c for _, r, c, _ in layout)
    rows, rhs_vals = _dense_rows(p, index, total, equations)
    ref = _solve_space_generic(p, layout, total, rows, rhs_vals)
    assert space.feasible == ref.feasible
    assert space._particular == ref._particular
    assert space._basis == ref._basis


@given(_block_system(2))
@settings(max_examples=150, deadline=None)
def test_sparse_f2_rows_match_the_generic_solver(system):
    _assert_matches_dense_reference(2, system)


@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: st.tuples(st.just(p), _block_system(p))))
@settings(max_examples=300, deadline=None)
def test_sparse_rows_match_the_dense_reference(case):
    p, system = case
    _assert_matches_dense_reference(p, system)


def _chain_diagram(dims, mats, p=2):
    n = len(dims)
    elements = list(range(n))
    arrows = {(i, i + 1): m for i, m in enumerate(mats)}
    return Diagram(elements, lambda a, b: a <= b, dict(enumerate(dims)), arrows, p)


def test_diagram_rejects_non_functorial():
    # square with two different composites
    els = ["a", "b", "c", "d"]
    order = {
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d"),
        ("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"),
    }
    i1 = FieldMat.identity(2, 1)
    z1 = FieldMat.zero(2, 1, 1)
    arrows = {("a", "b"): i1, ("a", "c"): i1, ("b", "d"): i1, ("c", "d"): z1}
    with pytest.raises(ValueError):
        Diagram(els, lambda a, b: (a, b) in order, {e: 1 for e in els}, arrows, 2)
    arrows[("c", "d")] = i1
    d = Diagram(els, lambda a, b: (a, b) in order, {e: 1 for e in els}, arrows, 2)
    assert d.composite("a", "d") == i1


def test_limit_colimit_frozen_chain():
    # 2 -> 1 surjection then 1 -> 1 identity.  A compatible family is a
    # free choice at the start, so the limit has dim 2; the three gluing
    # relations are independent, so the colimit has dim 4 - 3 = 1.
    m0 = FieldMat.make(2, [[1, 1]])
    m1 = FieldMat.identity(2, 1)
    d = _chain_diagram([2, 1, 1], [m0, m1])
    lim = limit(d)
    assert lim.dim == 2
    col = colimit(d)
    assert col.dim == 1
    # projections commute with arrows
    assert m0 @ lim.projections[0] == lim.projections[1]
    assert col.injections[1] @ m0 == col.injections[0]


def _random_diagrams():
    rng_dims = st.lists(st.integers(0, 2), min_size=2, max_size=3)

    @st.composite
    def build(draw):
        dims = draw(rng_dims)
        mats = []
        for a, b in zip(dims, dims[1:]):
            rows = [[draw(st.integers(0, 1)) for _ in range(a)] for _ in range(b)]
            mats.append(FieldMat.make(2, rows, a))
        return _chain_diagram(dims, mats)

    return build()


@given(_random_diagrams())
@settings(max_examples=40, deadline=None)
def test_limit_colimit_match_enumeration(d):
    assert limit(d).dim == enumerated_limit_dim(d)
    assert colimit(d).dim == enumerated_colimit_dim(d)


def test_solution_space_matches_truth_table():
    # one-unknown Sylvester equation A X - X B = C over F_2
    a = FieldMat.make(2, [[1, 1], [0, 1]])
    b = FieldMat.make(2, [[1, 0], [1, 1]])
    c = FieldMat.make(2, [[0, 1], [1, 0]])
    space = affine_solution_space(
        2,
        {"x": (2, 2)},
        [([(a, "x", None), (None, "x", b)], c)],  # minus is plus mod 2
    )
    truth = []
    for bits in itertools.product(range(2), repeat=4):
        x = FieldMat.make(2, [bits[:2], bits[2:]])
        if a @ x + x @ b == c:
            truth.append(x)
    assert space.feasible == bool(truth)
    if space.feasible:
        assert 2**space.dim == len(truth)
        seen = {space.element(co)["x"] for co in itertools.product(range(space.p), repeat=space.dim)}
        assert seen == set(truth)


def test_solution_space_infeasible():
    space = affine_solution_space(
        2,
        {"x": (1, 1)},
        [
            ([(None, "x", None)], FieldMat.make(2, [[1]])),
            ([(None, "x", None)], FieldMat.make(2, [[0]])),
        ],
    )
    assert not space.feasible
    assert space.particular() is None
