"""Axis-aligned rational cell arrangements compatible with a cone order.

Per axis, breakpoints b_1 < ... < b_k cut the line into 2k+1 cells
(alternating open intervals and breakpoint singletons); a cell of the
complex is a product of per-axis cells, addressed by a tuple of raw axis
indices (even = open interval, odd = breakpoint).  The cone must be a
signed orthant in the complex's working coordinates; a general simplicial
cone enters through the stored rational change of coordinates that carries
it onto one.  All points, shift vectors and breakpoints passed to this
module live in the working coordinates.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cone import ConeSpec
from .qlinalg import qinverse, qmat
from .rational import Vec, as_vec

__all__ = [
    "AxisGrid",
    "CellComplex",
    "axis_cell_map",
    "cell_map",
    "common_refinement",
    "orthant_transform",
    "table_lookup",
]

Cell = tuple[int, ...]

INTERIOR = "interior"
ANTIPODAL = "antipodal_interior"


@dataclass(frozen=True)
class AxisGrid:
    """Breakpoints and cone sign for one axis.

    sign +1 means the cone's halfline on this axis is the nonnegative one,
    sign -1 the nonpositive one.  Raw cell index 2m is the m-th open
    interval, 2m+1 the m-th breakpoint.
    """

    breaks: tuple[Fraction, ...]
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("axis sign must be +1 or -1")
        if any(a >= b for a, b in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def ncells(self) -> int:
        return 2 * len(self.breaks) + 1

    def cell_of(self, x: Fraction) -> int:
        j = bisect.bisect_left(self.breaks, x)
        if j < len(self.breaks) and self.breaks[j] == x:
            return 2 * j + 1
        return 2 * j

    def representative(self, idx: int) -> Fraction:
        if idx % 2:
            return self.breaks[idx // 2]
        m = idx // 2
        if not self.breaks:
            return Fraction(0)
        if m == 0:
            return self.breaks[0] - 1
        if m == len(self.breaks):
            return self.breaks[-1] + 1
        return (self.breaks[m - 1] + self.breaks[m]) / 2

    def oriented(self, idx: int) -> int:
        """Position in the cone order: larger means deeper toward the
        antipodal side."""
        return idx if self.sign == -1 else 2 * len(self.breaks) - idx

    def just_inside(self, idx: int, direction: str) -> int:
        if idx % 2 == 0:
            return idx
        toward_interior = (direction == INTERIOR)
        step_down = self.sign == -1  # interior side is numerically below
        if not toward_interior:
            step_down = not step_down
        return idx - 1 if step_down else idx + 1


def orthant_transform(cone: ConeSpec):
    """Rational change of coordinates carrying a simplicial cone onto a
    signed orthant: rows are the facet normals, so the image cone is the
    positive orthant.  Raises for non-simplicial cones."""
    if len(cone.normals) != cone.dim:
        raise ValueError("cone is not simplicial: facet count differs from dimension")
    t = qmat(cone.normals)
    if qinverse(t) is None:
        raise ValueError("facet normals are not independent")
    return t


class CellComplex:
    """Product arrangement of per-axis breakpoint grids under a cone order."""

    def __init__(self, cone: ConeSpec, breakpoints, transform=None):
        self.cone = cone
        self.dim = cone.dim
        if len(breakpoints) != self.dim:
            raise ValueError("one breakpoint list per axis required")
        self.transform = tuple(tuple(Fraction(x) for x in row) for row in transform) if transform else None
        signs = self._axis_signs(cone, self.transform)
        self.axes: tuple[AxisGrid, ...] = tuple(
            AxisGrid(tuple(sorted({Fraction(b) for b in as_vec(bs)})), signs[j])
            for j, bs in enumerate(breakpoints)
        )

    @staticmethod
    def _axis_signs(cone: ConeSpec, transform=None) -> list[int]:
        # the transported cone {u : xi . T^-1 u >= 0} must be a signed
        # orthant: one normal per axis, supported on that axis alone
        dim = cone.dim
        if transform is not None:
            tinv = qinverse(qmat(transform))
            if tinv is None:
                raise ValueError("transform is singular")
            rows = []
            for xi in cone.normals:
                rows.append(tuple(
                    sum(Fraction(xi[i]) * tinv[i][j] for i in range(dim)) for j in range(dim)
                ))
        else:
            rows = [as_vec(xi) for xi in cone.normals]
        if len(rows) != dim:
            raise ValueError("cone is not compatible: need exactly one facet per axis")
        signs: list[int | None] = [None] * dim
        for r in rows:
            support = [j for j, x in enumerate(r) if x != 0]
            if len(support) != 1:
                raise ValueError(f"facet normal {r} is not axis aligned under the transform")
            j = support[0]
            if signs[j] is not None:
                raise ValueError(f"axis {j} has two facet normals")
            signs[j] = 1 if r[j] > 0 else -1
        return [s for s in signs]  # all set: len(rows) == dim and no dupes

    def _derived(self, breaks) -> "CellComplex":
        """Complex on this cone and transform with the given breakpoints
        per axis, each already a sorted sequence of distinct Fractions.
        The cone and transform are shared, so the axis signs carry over
        and nothing is parsed or derived again."""
        out = object.__new__(CellComplex)
        out.cone, out.dim, out.transform = self.cone, self.dim, self.transform
        out.axes = tuple(AxisGrid(tuple(bs), a.sign) for a, bs in zip(self.axes, breaks))
        return out

    # -- identity ------------------------------------------------------------

    def _key(self):
        return (self.cone, self.transform, tuple(a.breaks for a in self.axes))

    def __eq__(self, other):
        return isinstance(other, CellComplex) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"CellComplex(dim={self.dim}, breaks={[list(a.breaks) for a in self.axes]})"

    def compatible(self, other: "CellComplex") -> bool:
        return (
            isinstance(other, CellComplex)
            and self.cone == other.cone
            and self.transform == other.transform
        )

    # -- cells ---------------------------------------------------------------

    def cells(self):
        """All cells in lexicographic raw-index order."""
        return product(*(range(a.ncells) for a in self.axes))

    @property
    def ncells(self) -> int:
        n = 1
        for a in self.axes:
            n *= a.ncells
        return n

    def cell_of(self, x) -> Cell:
        x = as_vec(x)
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        return tuple(a.cell_of(v) for a, v in zip(self.axes, x))

    def representative(self, cell: Cell) -> Vec:
        return tuple(a.representative(i) for a, i in zip(self.axes, cell))

    def cell_kind(self, cell: Cell) -> tuple[str, ...]:
        return tuple("point" if i % 2 else "open" for i in cell)

    def is_fully_open(self, cell: Cell) -> bool:
        return all(i % 2 == 0 for i in cell)

    def cell_leq(self, a: Cell, b: Cell) -> bool:
        """Transported cone order on cells (product of oriented axis chains)."""
        return all(ax.oriented(i) <= ax.oriented(j) for ax, i, j in zip(self.axes, a, b))

    def step_down(self, cell: Cell, j: int) -> Cell | None:
        """The cell covered by cell on axis j (one step down in the cone
        order), or None when cell is at the bottom of that axis."""
        ax = self.axes[j]
        if ax.oriented(cell[j]) == 0:
            return None
        raw = cell[j] - 1 if ax.sign == -1 else cell[j] + 1
        return cell[:j] + (raw,) + cell[j + 1 :]

    def cover_pairs(self):
        """All pairs (a, b) with a covered by b in the cell order."""
        for b in self.cells():
            for j in range(self.dim):
                a = self.step_down(b, j)
                if a is not None:
                    yield a, b

    def just_inside(self, cell: Cell, direction: str) -> Cell:
        if direction not in (INTERIOR, ANTIPODAL):
            raise ValueError(f"direction must be {INTERIOR!r} or {ANTIPODAL!r}")
        return tuple(a.just_inside(i, direction) for a, i in zip(self.axes, cell))

    # -- cone directions in working coordinates ------------------------------

    def leq_vec(self, x, y) -> bool:
        """x <= y in the transported cone order."""
        x, y = as_vec(x), as_vec(y)
        return all(a.sign * (xi - yi) >= 0 for a, xi, yi in zip(self.axes, x, y))

    def in_antipode_interior(self, v) -> bool:
        v = as_vec(v)
        return all(a.sign * vi < 0 for a, vi in zip(self.axes, v))

    def in_antipode(self, v) -> bool:
        v = as_vec(v)
        return all(a.sign * vi <= 0 for a, vi in zip(self.axes, v))

    # -- derived complexes ---------------------------------------------------

    def shifted(self, v) -> "CellComplex":
        """Complex whose evaluation at x mirrors this one's at x + v."""
        v = as_vec(v)
        if len(v) != self.dim:
            raise ValueError("shift vector dimension mismatch")
        return self._derived([[b - vj for b in a.breaks] for a, vj in zip(self.axes, v)])

    def with_extra_breaks(self, extra) -> "CellComplex":
        if len(extra) != self.dim:
            raise ValueError("one breakpoint list per axis required")
        return self._derived([sorted(set(a.breaks).union(as_vec(ex))) for a, ex in zip(self.axes, extra)])


def axis_cell_map(fine: AxisGrid, coarse: AxisGrid, shift=0) -> list[int]:
    """For each fine axis cell, the coarse axis cell containing its
    translate by shift.

    The fine grid must refine the coarse grid moved by -shift, so every
    translated open fine cell lies inside one open coarse cell.  One merge
    walk locates each translated fine breakpoint among the coarse ones; an
    open cell then maps to the open coarse cell below the image of its
    upper endpoint (above the image of the last breakpoint for the top
    cell)."""
    cb = coarse.breaks
    n = len(cb)
    out: list[int] = []
    j = hits = 0
    for f in fine.breaks:
        y = f + shift if shift else f
        while j < n and cb[j] < y:
            j += 1
        out.append(2 * j)
        if j < n and cb[j] == y:
            out.append(2 * j + 1)
            hits += 1
        else:
            out.append(2 * j)
    if hits != n:
        raise ValueError("fine axis grid does not refine the shifted coarse grid")
    out.append(2 * n)
    return out


def cell_map(fine: CellComplex, coarse: CellComplex, shift=None):
    """Fine cell -> the coarse cell holding its translate by shift (zero
    when omitted), as a lookup built once from per-axis integer tables."""
    shift = shift or (0,) * fine.dim
    return table_lookup(fine, [axis_cell_map(f, c, sj) for f, c, sj in zip(fine.axes, coarse.axes, shift)])


def table_lookup(fine: CellComplex, tables):
    """The cell map whose axis j sends raw index i to tables[j][i], as a
    dict lookup over every cell of fine."""
    return dict(zip(fine.cells(), product(*tables))).__getitem__


def common_refinement(*complexes: CellComplex):
    """Smallest common refinement plus, per input complex, the cell map
    sending a refined cell to the input cell containing it."""
    if not complexes:
        raise ValueError("need at least one complex")
    first = complexes[0]
    for c in complexes[1:]:
        if not first.compatible(c):
            raise ValueError("complexes disagree on cone or coordinates")
    merged = [
        tuple(sorted(set().union(*(set(c.axes[j].breaks) for c in complexes))))
        for j in range(first.dim)
    ]
    # an input that already refines the others is the answer itself
    refined = next(
        (c for c in complexes if all(a.breaks == m for a, m in zip(c.axes, merged))),
        None,
    ) or first._derived(merged)
    return refined, [cell_map(refined, c) for c in complexes]
