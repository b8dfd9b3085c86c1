"""Axis-aligned rational cell arrangements compatible with a cone order.

Per axis, breakpoints b_1 < ... < b_k cut the line into 2k+1 cells
(alternating open intervals and breakpoint singletons); a cell of the
complex is a product of per-axis cells, addressed by a tuple of raw axis
indices (even = open interval, odd = breakpoint).  The cone must be a
signed orthant in the complex's working coordinates; a general simplicial
cone enters through the stored rational change of coordinates that carries
it onto one.  All points, shift vectors and breakpoints passed to this
module live in the working coordinates.

Every cell map between grids on one cone is built the same way: per axis,
merge_breaks merges sorted breakpoint runs and tags each point with the runs
it lies on (axis_cell_map's fine grid is already that merge and is tagged
directly), axis_table reads an integer table from those tags, and
table_lookup turns the per-axis tables into a lookup on cells.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product

from .cone import ConeSpec
from .qlinalg import qinverse, qmat
from .rational import Vec, as_vec

__all__ = [
    "AxisGrid",
    "CellComplex",
    "axis_cell_map",
    "axis_table",
    "cell_map",
    "common_refinement",
    "merge_breaks",
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
    """Product arrangement of per-axis breakpoint grids under a cone order.

    A complex never changes after construction, so its cell tuple, its
    cover pairs and its per-axis step-down table are each built on first
    use and kept on the complex.  A derived complex (`shifted`,
    `with_extra_breaks`, a refinement) builds its own."""

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
        return self is other or (isinstance(other, CellComplex) and self._key() == other._key())

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

    def cells(self) -> tuple[Cell, ...]:
        """All cells in lexicographic raw-index order, as one tuple built
        on first use."""
        return self._cells

    @cached_property
    def _cells(self) -> tuple[Cell, ...]:
        return tuple(product(*(range(a.ncells) for a in self.axes)))

    @cached_property
    def _steps(self) -> tuple[tuple[int | None, ...], ...]:
        """Per axis j, raw index i -> the raw index one step down the cone
        order from i, or None at the bottom of the axis."""
        return tuple(
            tuple(None if ax.oriented(i) == 0 else i + ax.sign for i in range(ax.ncells)) for ax in self.axes
        )

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
        raw = self._steps[j][cell[j]]
        return None if raw is None else cell[:j] + (raw,) + cell[j + 1 :]

    def cover_pairs(self) -> tuple[tuple[Cell, Cell], ...]:
        """All pairs (a, b) with a covered by b in the cell order, by cell
        b in cells() order and then by axis, as one tuple built on first
        use."""
        return self._cover_pairs

    @cached_property
    def _cover_pairs(self) -> tuple[tuple[Cell, Cell], ...]:
        return tuple(
            (b[:j] + (raw,) + b[j + 1 :], b)
            for b in self._cells
            for j, steps in enumerate(self._steps)
            if (raw := steps[b[j]]) is not None
        )

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


def merge_breaks(runs) -> tuple[list[Fraction], list[int]]:
    """The sorted union of some runs of breakpoints, and per point its tag:
    bit k set when the point lies on runs[k]."""
    tags: dict[Fraction, int] = {}
    for k, run in enumerate(runs):
        bit = 1 << k
        for x in run:
            tags[x] = tags.get(x, 0) | bit
    merged = sorted(tags)
    return merged, [tags[x] for x in merged]


def axis_table(masks: list[int], target: int) -> list[int]:
    """Axis cell table of a merged grid, given the tags of its breakpoints,
    into the grid of those breakpoints tagged in target: a breakpoint in
    target goes to its own cell, every other cell to the open cell it lies
    in."""
    out, j = [], 0
    for m in masks:
        if m & target:
            out += (2 * j, 2 * j + 1)
            j += 1
        else:
            out += (2 * j, 2 * j)
    out.append(2 * j)
    return out


def axis_cell_map(fine: AxisGrid, coarse: AxisGrid, shift=0) -> list[int]:
    """For each fine axis cell, the coarse axis cell containing its
    translate by shift.

    The fine grid must refine the coarse grid moved by -shift, so every
    translated open fine cell lies inside one open coarse cell.  The merge
    of the two is then the fine grid itself, tagged where a fine
    breakpoint is a moved coarse one, and axis_table reads the map from
    those tags."""
    moved = {b - shift for b in coarse.breaks} if shift else set(coarse.breaks)
    masks = [int(b in moved) for b in fine.breaks]
    if sum(masks) != len(moved):
        raise ValueError("fine axis grid does not refine the shifted coarse grid")
    return axis_table(masks, 1)


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
    per_axis = [merge_breaks(c.axes[j].breaks for c in complexes) for j in range(first.dim)]
    bits = [1 << k for k in range(len(complexes))]
    # an input whose bit tags every merged breakpoint already refines the
    # others and is the answer itself
    refined = next(
        (c for c, bit in zip(complexes, bits) if all(m & bit for _, masks in per_axis for m in masks)),
        None,
    ) or first._derived([merged for merged, _ in per_axis])
    return refined, [table_lookup(refined, [axis_table(masks, bit) for _, masks in per_axis]) for bit in bits]
