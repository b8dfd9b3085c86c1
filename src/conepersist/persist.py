"""Persistence modules on axis-aligned cell arrangements.

A module assigns a finite dimensional vector space over a prime field to
every cell and a structure map to every cover pair, oriented from the
cone-larger cell to the cone-smaller one; composites along any descending
path agree.  Morphisms are cellwise matrices natural with respect to the
structure maps.
"""
from __future__ import annotations

import itertools
import random

from .arrangement import Cell, CellComplex, common_refinement
from .exactla import FieldMat, _check_prime, affine_solution_space
from .rational import Vec, as_vec

__all__ = [
    "ArrModule",
    "ModMorphism",
    "identity_morphism",
    "zero_morphism",
    "zero_module",
    "point_module",
    "principal_module",
    "direct_sum",
    "on_common_grid",
    "hom_space",
    "shift_module",
    "shift_morphism",
    "smoothing",
    "restrict_module",
    "restrict_morphism",
    "pointwise_kernel",
    "pointwise_cokernel",
    "pointwise_image",
    "random_module",
    "random_morphism",
]


class ArrModule:
    """Functor from the cell poset (cone order) to finite dimensional
    spaces over F_p, with arrows pointing from larger to smaller cells."""

    def __init__(self, complex_: CellComplex, p: int, dims, maps, validate: bool = True):
        self.complex = complex_
        self.p = p
        self.dims: dict[Cell, int] = {c: int(d) for c, d in dims.items() if d}
        self.maps: dict[tuple[Cell, Cell], FieldMat] = dict(maps)
        self._smap_cache: dict[tuple[Cell, Cell], FieldMat] = {}
        self._rank_cache: dict[tuple[Cell, Cell], int] = {}
        if validate:
            self.validate()

    # -- basic access ---------------------------------------------------------

    def dim_at(self, cell: Cell) -> int:
        return self.dims.get(cell, 0)

    def dim_at_point(self, x) -> int:
        return self.dim_at(self.complex.cell_of(x))

    def cover_map(self, a: Cell, b: Cell) -> FieldMat:
        """Structure map F(b) -> F(a) for a covered by b."""
        m = self.maps.get((a, b))
        if m is not None:
            return m
        return FieldMat.zero(self.p, self.dim_at(a), self.dim_at(b))

    def structure_map(self, a: Cell, b: Cell) -> FieldMat:
        """Composite structure map F(b) -> F(a) for any a <= b, cached for
        a and every cell on the path down to it."""
        if a == b:
            return FieldMat.identity(self.p, self.dim_at(a))
        out = self._smap_cache.get((a, b))
        if out is not None:
            return out
        if not self.complex.cell_leq(a, b):
            raise ValueError(f"cells are not ordered: {a} !<= {b}")
        # step down from b on the first axis that differs, until a or a
        # cell whose map from a is cached, then compose back up
        path = [b]
        while out is None and path[-1] != a:
            cur = path[-1]
            j = next(j for j in range(len(a)) if a[j] != cur[j])
            path.append(self.complex.step_down(cur, j))
            out = self._smap_cache.get((a, path[-1]))
        for i in range(len(path) - 2, -1, -1):
            step = self.cover_map(path[i + 1], path[i])
            out = step if out is None else out @ step
            self._smap_cache[(a, path[i])] = out
        return out

    def structure_rank(self, a: Cell, b: Cell) -> int:
        """Rank of structure_map(a, b), cached per cell pair."""
        if a == b:
            return self.dim_at(a)
        key = (a, b)
        r = self._rank_cache.get(key)
        if r is None:
            r = self._rank_cache[key] = self.structure_map(a, b).rank()
        return r

    def eval_map(self, x, y) -> FieldMat:
        """Structure map F(cell of y) -> F(cell of x) for x <= y in the cone
        order (points in working coordinates)."""
        a, b = self.complex.cell_of(x), self.complex.cell_of(y)
        return self.structure_map(a, b)

    # -- invariants -----------------------------------------------------------

    def validate(self):
        _check_prime(self.p)
        for c, d in self.dims.items():
            if len(c) != self.complex.dim or d < 0:
                raise ValueError(f"bad cell or dimension: {c} -> {d}")
            for j, i in enumerate(c):
                if not (0 <= i < self.complex.axes[j].ncells):
                    raise ValueError(f"cell index out of range: {c}")
        for (a, b), m in self.maps.items():
            if not (self.dim_at(a) and self.dim_at(b)):
                raise ValueError(f"map between cells that carry no space: {(a, b)}")
            if m.p != self.p:
                raise ValueError("matrix field mismatch")
            if m.nrows != self.dim_at(a) or m.ncols != self.dim_at(b):
                raise ValueError(f"map shape mismatch at {(a, b)}")
            if not self._is_cover(a, b):
                raise ValueError(f"map key is not a cover pair: {(a, b)}")
        self._check_squares()

    def _is_cover(self, a: Cell, b: Cell) -> bool:
        diff = [j for j in range(len(a)) if a[j] != b[j]]
        if len(diff) != 1:
            return False
        j = diff[0]
        ax = self.complex.axes[j]
        return ax.oriented(a[j]) == ax.oriented(b[j]) - 1

    def _check_squares(self):
        # commuting squares suffice: the cell poset is a product of chains
        cx = self.complex
        for b in cx.cells():
            downs = [(j, m) for j in range(cx.dim) if (m := cx.step_down(b, j)) is not None]
            for (_, m1), (j2, m2) in itertools.combinations(downs, 2):
                a = cx.step_down(m1, j2)
                left = self.cover_map(a, m1) @ self.cover_map(m1, b)
                right = self.cover_map(a, m2) @ self.cover_map(m2, b)
                if left != right:
                    raise ValueError(f"structure maps do not commute over {b}")

    def is_zero(self) -> bool:
        return not self.dims

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other):
        if not isinstance(other, ArrModule):
            return NotImplemented
        return (
            self.complex == other.complex
            and self.p == other.p
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.complex, self.p, tuple(sorted(self.dims.items()))))

    def __repr__(self):
        return f"ArrModule(p={self.p}, total_dim={self.total_dim()}, cells={len(self.dims)})"


class ModMorphism:
    """Natural transformation between modules on one complex."""

    def __init__(self, src: ArrModule, dst: ArrModule, components, validate: bool = True):
        if src.complex != dst.complex or src.p != dst.p:
            raise ValueError("morphism endpoints live on different complexes or fields")
        self.src = src
        self.dst = dst
        self.components: dict[Cell, FieldMat] = dict(components)
        if validate:
            self.validate()

    def at(self, cell: Cell) -> FieldMat:
        m = self.components.get(cell)
        if m is not None:
            return m
        return FieldMat.zero(self.src.p, self.dst.dim_at(cell), self.src.dim_at(cell))

    def validate(self):
        for c, m in self.components.items():
            if not (self.src.dim_at(c) and self.dst.dim_at(c)):
                raise ValueError(f"component at a cell that carries no space: {c}")
            if m.nrows != self.dst.dim_at(c) or m.ncols != self.src.dim_at(c):
                raise ValueError(f"component shape mismatch at {c}")
            if m.p != self.src.p:
                raise ValueError("component field mismatch")
        for a, b in self.src.complex.cover_pairs():
            if not (self.dst.dim_at(a) and self.src.dim_at(b)):
                continue  # both sides are empty matrices of one shape
            lhs = self.dst.cover_map(a, b) @ self.at(b)
            rhs = self.at(a) @ self.src.cover_map(a, b)
            if lhs != rhs:
                raise ValueError(f"naturality fails on cover {(a, b)}")

    def compose(self, other: "ModMorphism") -> "ModMorphism":
        """self after other."""
        if other.dst is not self.src and other.dst != self.src:
            raise ValueError("morphisms are not composable")
        comps = {}
        for c in self.src.complex.cells():
            if other.src.dim_at(c) and self.dst.dim_at(c):
                comps[c] = self.at(c) @ other.at(c)
        return ModMorphism(other.src, self.dst, comps, validate=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def __eq__(self, other):
        if not isinstance(other, ModMorphism):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        cells = set(self.components) | set(other.components)
        return all(self.at(c) == other.at(c) for c in cells)

    def __repr__(self):
        return f"ModMorphism(cells={len(self.components)})"


def identity_morphism(mod: ArrModule) -> ModMorphism:
    comps = {c: FieldMat.identity(mod.p, d) for c, d in mod.dims.items()}
    return ModMorphism(mod, mod, comps, validate=False)


def zero_morphism(src: ArrModule, dst: ArrModule) -> ModMorphism:
    return ModMorphism(src, dst, {}, validate=False)


# -- constructors --------------------------------------------------------------


def zero_module(complex_: CellComplex, p: int) -> ArrModule:
    return ArrModule(complex_, p, {}, {}, validate=False)


def _ensure_breaks(complex_: CellComplex, x: Vec) -> CellComplex:
    return complex_.with_extra_breaks([[xi] for xi in x])


def principal_module(complex_: CellComplex, p: int, x) -> ArrModule:
    """Indicator module of the closed downset x + cone (dimension one on
    every cell below x, identity structure maps).  The complex is refined
    so that x sits on the breakpoint lattice."""
    x = as_vec(x)
    cx = _ensure_breaks(complex_, x)
    top = cx.cell_of(x)
    dims = {c: 1 for c in cx.cells() if cx.cell_leq(c, top)}
    one = FieldMat.identity(p, 1)
    maps = {}
    for a, b in cx.cover_pairs():
        if a in dims and b in dims:
            maps[(a, b)] = one
    return ArrModule(cx, p, dims, maps, validate=False)


def point_module(complex_: CellComplex, p: int, x) -> ArrModule:
    """Skyscraper of dimension one on the singleton cell at x."""
    x = as_vec(x)
    cx = _ensure_breaks(complex_, x)
    return ArrModule(cx, p, {cx.cell_of(x): 1}, {}, validate=False)


def restrict_module(mod: ArrModule, refined: CellComplex, cell_map) -> ArrModule:
    """Pull back along a cell map: cell c of refined carries the value at
    cell_map(c), the coarse cell containing it for a refinement (the
    corner functors pull back along the just-inside map instead)."""
    dims = {}
    for c in refined.cells():
        d = mod.dim_at(cell_map(c))
        if d:
            dims[c] = d
    maps = {}
    for a, b in refined.cover_pairs():
        if dims.get(a) and dims.get(b):
            maps[(a, b)] = mod.structure_map(cell_map(a), cell_map(b))
    return ArrModule(refined, mod.p, dims, maps, validate=False)


def restrict_morphism(f: ModMorphism, refined: CellComplex, cell_map) -> ModMorphism:
    src = restrict_module(f.src, refined, cell_map)
    dst = restrict_module(f.dst, refined, cell_map)
    comps = {}
    for c in refined.cells():
        if src.dim_at(c) and dst.dim_at(c):
            comps[c] = f.at(cell_map(c))
    return ModMorphism(src, dst, comps, validate=False)


def on_common_grid(f: ArrModule, g: ArrModule):
    """f and g restricted to the common refinement of their grids."""
    if f.p != g.p:
        raise ValueError("field mismatch")
    refined, (mf, mg) = common_refinement(f.complex, g.complex)
    return restrict_module(f, refined, mf), restrict_module(g, refined, mg)


def direct_sum(f: ArrModule, g: ArrModule) -> ArrModule:
    """Cellwise direct sum on the common refinement of the two complexes."""
    rf, rg = on_common_grid(f, g)
    refined = rf.complex
    dims = {}
    for c in refined.cells():
        d = rf.dim_at(c) + rg.dim_at(c)
        if d:
            dims[c] = d
    maps = {}
    for a, b in refined.cover_pairs():
        if dims.get(a) and dims.get(b):
            maps[(a, b)] = _block_diag(f.p, rf.cover_map(a, b), rg.cover_map(a, b))
    return ArrModule(refined, f.p, dims, maps, validate=False)


def _block_diag(p: int, a: FieldMat, b: FieldMat) -> FieldMat:
    rows = a.nrows + b.nrows
    cols = a.ncols + b.ncols
    ent = [[0] * cols for _ in range(rows)]
    for i in range(a.nrows):
        for j in range(a.ncols):
            ent[i][j] = a.entries[i][j]
    for i in range(b.nrows):
        for j in range(b.ncols):
            ent[a.nrows + i][a.ncols + j] = b.entries[i][j]
    return FieldMat.make(p, ent)


def shift_module(mod: ArrModule, v) -> ArrModule:
    """Translation: the result evaluated at x is mod evaluated at x + v.
    Cells correspond index for index under the shifted complex."""
    shifted = mod.complex.shifted(v)
    return ArrModule(shifted, mod.p, dict(mod.dims), dict(mod.maps), validate=False)


def shift_morphism(f: ModMorphism, v) -> ModMorphism:
    """Translate both endpoints; components ride along by cell index."""
    return ModMorphism(
        shift_module(f.src, v), shift_module(f.dst, v), dict(f.components), validate=False
    )


def smoothing(mod: ArrModule, v, w) -> ModMorphism:
    """Comparison morphism from the v-shift to the w-shift, for w below v
    in the cone order; its component at a cell is the structure map of mod
    from (representative + v) down to (representative + w)."""
    v, w = as_vec(v), as_vec(w)
    if not mod.complex.leq_vec(w, v):
        raise ValueError("second shift must be below the first in the cone order")
    sv = shift_module(mod, v)
    sw = shift_module(mod, w)
    refined, (mv, mw) = common_refinement(sv.complex, sw.complex)
    rv = restrict_module(sv, refined, mv)
    rw = restrict_module(sw, refined, mw)
    # shifted cells share the indices of mod's cells, so the refinement
    # maps already name the cells of mod holding representative + v and + w
    comps = {}
    for c in refined.cells():
        if rv.dim_at(c) and rw.dim_at(c):
            comps[c] = mod.structure_map(mw(c), mv(c))
    return ModMorphism(rv, rw, comps, validate=False)


# -- pointwise (co)kernels ------------------------------------------------------


def _subobject(ambient: ArrModule, basis: dict[Cell, FieldMat]):
    """The submodule of ambient spanned cellwise by the columns of basis,
    and its inclusion.  Each structure map carries basis[b] into the span
    of basis[a], and the submodule's map is read off in that basis."""
    maps = {}
    for a, b in ambient.complex.cover_pairs():
        if a in basis and b in basis:
            sol = basis[a].solve(ambient.cover_map(a, b) @ basis[b])
            if sol is None:
                raise AssertionError("subspace is not preserved by structure maps")
            maps[(a, b)] = sol
    dims = {c: m.ncols for c, m in basis.items()}
    sub = ArrModule(ambient.complex, ambient.p, dims, maps, validate=False)
    return sub, ModMorphism(sub, ambient, dict(basis), validate=False)


def pointwise_kernel(f: ModMorphism):
    """Kernel module and its inclusion into the source."""
    basis = {}
    for c in f.src.complex.cells():
        if f.src.dim_at(c):
            k = f.at(c).kernel_basis()
            if k.ncols:
                basis[c] = k
    return _subobject(f.src, basis)


def pointwise_image(f: ModMorphism):
    """Image module, its inclusion into the target, and the corestriction
    of f onto it."""
    im_basis: dict[Cell, FieldMat] = {}
    for c in f.src.complex.cells():
        m = f.at(c)
        if m.nrows and m.ncols:
            b = m.column_space_basis()
            if b.ncols:
                im_basis[c] = b
    im, incl = _subobject(f.dst, im_basis)
    cores_comps = {}
    for c, basis in im_basis.items():
        sol = basis.solve(f.at(c))
        if sol is None:
            raise AssertionError("column basis does not span the image")
        cores_comps[c] = sol
    cores = ModMorphism(f.src, im, cores_comps, validate=False)
    return im, incl, cores


def pointwise_cokernel(f: ModMorphism):
    """Cokernel module and the projection from the target."""
    dst = f.dst
    p = dst.p
    proj: dict[Cell, FieldMat] = {}
    section: dict[Cell, FieldMat] = {}
    dims = {}
    for c in dst.complex.cells():
        n = dst.dim_at(c)
        if not n:
            continue
        img = f.at(c).column_space_basis() if f.src.dim_at(c) else FieldMat.zero(p, n, 0)
        q, s = _quotient_data(p, n, img)
        if q.nrows:
            proj[c] = q
            section[c] = s
            dims[c] = q.nrows
    maps = {}
    for a, b in dst.complex.cover_pairs():
        if dims.get(a) and dims.get(b):
            maps[(a, b)] = proj[a] @ dst.cover_map(a, b) @ section[b]
    cok = ArrModule(dst.complex, p, dims, maps, validate=False)
    pr = ModMorphism(dst, cok, dict(proj), validate=False)
    return cok, pr


def _quotient_data(p: int, n: int, img: FieldMat):
    """Projection q: F^n -> F^n/im and a linear section s with q s = id.

    Completes the image basis with the unit vectors that are pivots of
    [img | I], inverts, and reads q off the bottom rows of the inverse."""
    k = img.ncols
    _, pivots = FieldMat.hstack(img, FieldMat.identity(p, n)).rref()
    chosen = [c - k for c in pivots if c >= k]
    # section: the chosen unit vectors as columns
    s = FieldMat(p, tuple(tuple(int(i == e) for e in chosen) for i in range(n)), len(chosen))
    inv = FieldMat.hstack(img, s).inverse()
    if inv is None:
        raise AssertionError("basis completion failed")
    return FieldMat(p, inv.entries[k:], n), s


# -- natural maps -----------------------------------------------------------------


def hom_space(src: ArrModule, dst: ArrModule):
    """The natural maps src -> dst of two modules on one grid, as
    (unknowns, equations, space).  The unknowns are the components, keyed
    by cell in cells() order, of shape (dst.dim_at(c), src.dim_at(c)) where
    both are nonzero.  Each cover pair (a, b) with dst(a) and src(b)
    nonzero and an unknown at a or b gives the naturality equation
    dst(a <= b) X_b - X_a src(a <= b) = 0, in cover_pairs() order.  space
    is their SolutionSpace, which always holds the zero map."""
    unknowns = {}
    for c in src.complex.cells():
        rows, cols = dst.dim_at(c), src.dim_at(c)
        if rows and cols:
            unknowns[c] = (rows, cols)
    equations = []
    for a, b in src.complex.cover_pairs():
        rows, cols = dst.dim_at(a), src.dim_at(b)
        if not rows or not cols:
            continue
        terms = []
        if b in unknowns:
            terms.append((dst.cover_map(a, b), b, None))
        if a in unknowns:
            terms.append((None, a, -src.cover_map(a, b)))
        if terms:
            equations.append((terms, FieldMat.zero(src.p, rows, cols)))
    space = affine_solution_space(src.p, unknowns, equations)
    if not space.feasible:
        raise AssertionError("homogeneous naturality system lost the zero solution")
    return unknowns, equations, space


# -- random generation ----------------------------------------------------------


def random_module(
    complex_: CellComplex,
    p: int,
    seed: int,
    max_dim: int = 3,
    zero_chance: float = 0.3,
) -> ArrModule:
    """Seeded random module: sample cell dimensions, then fill structure
    maps square by square so every 2-face commutes."""
    if complex_.dim > 2:
        raise ValueError("random generation supports one or two axes")
    mod = _draw_module(complex_, p, random.Random(seed), max_dim, zero_chance)
    mod.validate()
    return mod


def _rand_mat(rng: random.Random, p: int, rows: int, cols: int) -> FieldMat:
    return FieldMat.make(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def _draw_module(complex_, p, rng, max_dim, zero_chance):
    dims = {}
    for c in complex_.cells():
        d = 0 if rng.random() < zero_chance else rng.randint(1, max_dim)
        if d:
            dims[c] = d
    maps: dict[tuple[Cell, Cell], FieldMat] = {}
    if complex_.dim == 1:
        for a, b in complex_.cover_pairs():
            if dims.get(a) and dims.get(b):
                maps[(a, b)] = _rand_mat(rng, p, dims[a], dims[b])
        return ArrModule(complex_, p, dims, maps, validate=False)

    # two axes: sweep cells in oriented lex order, closing each square
    ax0, ax1 = complex_.axes
    order = sorted(
        complex_.cells(),
        key=lambda c: (ax0.oriented(c[0]), ax1.oriented(c[1])),
    )

    down = complex_.step_down
    for b in order:
        m1 = down(b, 0)
        m2 = down(b, 1)
        edges = []
        if m1 is not None and dims.get(m1) and dims.get(b):
            edges.append((m1, b))
        if m2 is not None and dims.get(m2) and dims.get(b):
            edges.append((m2, b))
        if not edges:
            continue
        if m1 is None or m2 is None:
            for e in edges:
                maps[e] = _rand_mat(rng, p, dims[e[0]], dims[e[1]])
            continue
        a = down(m1, 1)
        # constraint: maps[a,m1] @ X1 == maps[a,m2] @ X2 on the square
        # (a,m1,m2,b); each map read joins nonzero cells the sweep has passed
        da = dims.get(a, 0)
        unknowns = {}
        if (m1, b) in edges:
            unknowns["x1"] = (dims[m1], dims[b])
        if (m2, b) in edges:
            unknowns["x2"] = (dims[m2], dims[b])
        if not da:
            for e in edges:
                maps[e] = _rand_mat(rng, p, dims[e[0]], dims[e[1]])
            continue
        terms = []
        if "x1" in unknowns:
            terms.append((maps[(a, m1)], "x1", None))
        if "x2" in unknowns:
            terms.append((-maps[(a, m2)], "x2", None))
        rhs = FieldMat.zero(p, da, dims[b])
        space = affine_solution_space(p, unknowns, [(terms, rhs)])
        coeffs = [rng.randrange(p) for _ in range(space.dim)]
        sol = space.element(coeffs)
        for name, e in (("x1", (m1, b)), ("x2", (m2, b))):
            if name in unknowns:
                maps[e] = sol[name]
    return ArrModule(complex_, p, dims, maps, validate=False)


def random_morphism(src: ArrModule, dst: ArrModule, seed: int) -> ModMorphism:
    """Seeded random natural transformation src -> dst (zero if only the
    zero map is natural)."""
    if src.complex != dst.complex or src.p != dst.p:
        raise ValueError("endpoints must share complex and field")
    _, _, space = hom_space(src, dst)
    rng = random.Random(seed)
    comps = space.element([rng.randrange(src.p) for _ in range(space.dim)])
    return ModMorphism(src, dst, comps, validate=False)
