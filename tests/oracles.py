"""Independent oracles for cross-checking the library's answers.

Everything here recomputes results from first principles with the dumbest
sound method available (truth tables, permutation sweeps, set closures) so
that agreement with the library is evidence, not circularity.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from conepersist.exactla import Diagram, FieldMat, SolutionSpace, _check_term, _null_basis, _rref
from conepersist.persist import ArrModule, restrict_module
from conepersist.arrangement import common_refinement
from conepersist.rational import as_vec


def _entry_assignments(shapes, p):
    """All dicts cell -> FieldMat over the given shape table."""
    cells = list(shapes)
    sizes = [shapes[c][0] * shapes[c][1] for c in cells]
    total = sum(sizes)
    for bits in itertools.product(range(p), repeat=total):
        out = {}
        pos = 0
        for c, (r, k) in zip(cells, (shapes[c] for c in cells)):
            vals = bits[pos : pos + r * k]
            pos += r * k
            out[c] = FieldMat.make(p, [vals[i * k : (i + 1) * k] for i in range(r)], k)
        yield out


def raw_is_interleaved(F: ArrModule, G: ArrModule, v) -> bool:
    """Exhaustive decision: enumerate every candidate component family for
    both directions and check naturality and the two triangle identities
    entry by entry."""
    v = as_vec(v)
    refined, (mf, mg) = common_refinement(F.complex, G.complex)
    F0 = restrict_module(F, refined, mf)
    G0 = restrict_module(G, refined, mg)
    b0 = refined
    w1 = b0.with_extra_breaks(
        [[b - vj for b in ax.breaks] for ax, vj in zip(b0.axes, v)]
    )
    w2 = w1.with_extra_breaks(
        [[b - 2 * vj for b in ax.breaks] for ax, vj in zip(b0.axes, v)]
    )
    p = F.p

    def plus(x, w):
        return tuple(a + b for a, b in zip(x, w))

    def family_shapes(A, B):
        # component at a cell: A(rep + v) -> B(rep)
        shapes = {}
        for c in w1.cells():
            r = w1.representative(c)
            rows = B.dim_at_point(r)
            cols = A.dim_at_point(plus(r, v))
            if rows and cols:
                shapes[c] = (rows, cols)
        return shapes

    def at(fam, A, B, c):
        if c in fam:
            return fam[c]
        r = w1.representative(c)
        return FieldMat.zero(p, B.dim_at_point(r), A.dim_at_point(plus(r, v)))

    def natural(fam, A, B):
        for a, b in w1.cover_pairs():
            ra, rb = w1.representative(a), w1.representative(b)
            lhs = B.eval_map(ra, rb) @ at(fam, A, B, b)
            rhs = at(fam, A, B, a) @ A.eval_map(plus(ra, v), plus(rb, v))
            if lhs != rhs:
                return False
        return True

    f_shapes = family_shapes(F0, G0)
    g_shapes = family_shapes(G0, F0)
    nf = sum(r * c for r, c in f_shapes.values())
    ng = sum(r * c for r, c in g_shapes.values())
    if nf > 16 or ng > 16:
        raise ValueError(f"oracle instance too large: {nf}+{ng} entries")

    f_cands = [f for f in _entry_assignments(f_shapes, p) if natural(f, F0, G0)]
    g_cands = [g for g in _entry_assignments(g_shapes, p) if natural(g, G0, F0)]

    w2_cells = list(w2.cells())
    reps = [w2.representative(t) for t in w2_cells]
    chi_f = [F0.eval_map(r, plus(r, tuple(2 * x for x in v))) for r in reps]
    chi_g = [G0.eval_map(r, plus(r, tuple(2 * x for x in v))) for r in reps]

    for f in f_cands:
        for g in g_cands:
            ok = True
            for r, cf, cg in zip(reps, chi_f, chi_g):
                c0 = w1.cell_of(r)
                cv = w1.cell_of(plus(r, v))
                if at(g, G0, F0, c0) @ at(f, F0, G0, cv) != cf:
                    ok = False
                    break
                if at(f, F0, G0, c0) @ at(g, G0, F0, cv) != cg:
                    ok = False
                    break
            if ok:
                return True
    return False


def bottleneck_matching(src_births, dst_births, speed) -> Fraction | float:
    """Least c with a perfect matching of cost <= c * speed, by sweeping
    every permutation."""
    s, t = list(src_births), list(dst_births)
    if len(s) != len(t):
        return float("inf")
    if not s:
        return Fraction(0)
    best = None
    for perm in itertools.permutations(range(len(t))):
        cost = max(abs(s[i] - t[j]) for i, j in enumerate(perm))
        if best is None or cost < best:
            best = cost
    return best / Fraction(speed)


def enumerated_limit_dim(d: Diagram) -> int:
    """Count compatible families by enumerating the full product space."""
    order = list(d.elements)
    dims = [d.dims[e] for e in order]
    total = sum(dims)
    if total > 16:
        raise ValueError("oracle instance too large")
    count = 0
    for vec in itertools.product(range(d.p), repeat=total):
        parts = {}
        pos = 0
        for e, k in zip(order, dims):
            parts[e] = FieldMat.make(d.p, [[x] for x in vec[pos : pos + k]], 1)
            pos += k
        if all(m @ parts[a] == parts[b] for (a, b), m in d.arrows.items()):
            count += 1
    dim = 0
    while d.p**dim < count:
        dim += 1
    assert d.p**dim == count, "compatible families do not form a subspace?"
    return dim


def enumerated_colimit_dim(d: Diagram) -> int:
    """Dimension of the quotient: grow the relation span by closure and
    subtract."""
    order = list(d.elements)
    offset, total = {}, 0
    for e in order:
        offset[e] = total
        total += d.dims[e]
    if total > 16:
        raise ValueError("oracle instance too large")
    rels = []
    for (a, b), m in d.arrows.items():
        for j in range(d.dims[a]):
            vec = [0] * total
            vec[offset[a] + j] = 1
            for i in range(d.dims[b]):
                vec[offset[b] + i] = (vec[offset[b] + i] - m.entries[i][j]) % d.p
            rels.append(tuple(vec))
    span = {tuple([0] * total)}
    frontier = list(span)
    while frontier:
        base = frontier.pop()
        for r in rels:
            for k in range(1, d.p):
                cand = tuple((x + k * y) % d.p for x, y in zip(base, r))
                if cand not in span:
                    span.add(cand)
                    frontier.append(cand)
    dim = 0
    while d.p**dim < len(span):
        dim += 1
    assert d.p**dim == len(span)
    return total - dim


def _dense_rows(p, index, total, equations):
    """One dense coefficient row and one right-hand value per scalar entry
    of each equation."""
    rows: list[list[int]] = []
    rhs_vals: list[int] = []
    for terms, rhs in equations:
        m, n = rhs.nrows, rhs.ncols
        for i in range(m):
            for j in range(n):
                row = [0] * total
                for L, name, R in terms:
                    r, c, o = index[name]
                    _check_term(L, R, r, c, m, n)
                    for a in range(r):
                        la = 1 if L is None and a == i else (L.entries[i][a] if L is not None else 0)
                        if la == 0:
                            continue
                        for b in range(c):
                            rb = 1 if R is None and b == j else (R.entries[b][j] if R is not None else 0)
                            if rb:
                                row[o + a * c + b] = (row[o + a * c + b] + la * rb) % p
                rows.append(row)
                rhs_vals.append(rhs.entries[i][j] % p)
    return rows, rhs_vals


def _solve_space_generic(p, layout, total, rows, rhs_vals) -> SolutionSpace:
    """The dense reference for affine_solution_space: eliminate the full
    augmented matrix of every scalar equation."""
    aug = [row + [b] for row, b in zip(rows, rhs_vals)]
    pivots = _rref(aug, p)
    if pivots and pivots[-1] >= total:
        return SolutionSpace(p, layout, None, [])
    particular = [0] * total
    for r, c in enumerate(pivots):
        particular[c] = aug[r][total]
    return SolutionSpace(p, layout, particular, _null_basis(aug, pivots, total, p))
