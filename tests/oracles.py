"""Independent oracles for cross-checking the library's answers.

Everything here recomputes results from first principles with the dumbest
sound method available (truth tables, permutation sweeps, set closures) so
that agreement with the library is evidence, not circularity.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from conepersist import interleave
from conepersist.exactla import FieldMat, SolutionSpace, _check_prime, _check_term, _null_basis, _rref
from conepersist.persist import (
    ArrModule,
    ModMorphism,
    on_common_grid,
    restrict_module,
    restrict_morphism,
    shift_morphism,
    smoothing,
)
from conepersist.arrangement import CellComplex, common_refinement
from conepersist.cone import _halfspace_extreme_rays, _primitive
from conepersist.qlinalg import qrank, qsolve
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


def raw_is_interleaved(F: ArrModule, G: ArrModule, v, max_candidates: int = 2**16) -> bool:
    """Exhaustive decision: enumerate every candidate component family for
    both directions and check naturality and the two triangle identities
    entry by entry.  Raises ValueError when either direction has more than
    max_candidates families."""
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
    if p**nf > max_candidates or p**ng > max_candidates:
        raise ValueError(f"oracle instance too large: {nf}+{ng} entries over F_{p}")

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


def raw_c_isomorphic(src_births, dst_births, c, speed, p) -> bool:
    """Whether some matrix over F_p on the forward pattern (entry (j, i)
    allowed when s[i] - c*speed <= t[j]) is invertible with its inverse on
    the mirrored pattern (entry (i, j) allowed when t[j] - c*speed <=
    s[i]): a sweep over every matrix on the forward pattern, with no
    permutation shortcut."""
    s, t = list(src_births), list(dst_births)
    if len(s) != len(t):
        return False
    n, slack = len(s), c * speed
    positions = [(j, i) for j in range(n) for i in range(n) if s[i] - slack <= t[j]]
    for values in itertools.product(range(p), repeat=len(positions)):
        ent = [[0] * n for _ in range(n)]
        for (j, i), x in zip(positions, values):
            ent[j][i] = x
        inv = FieldMat.make(p, ent).inverse()
        if inv is not None and all(
            inv.entries[i][j] == 0 or t[j] - slack <= s[i] for i in range(n) for j in range(n)
        ):
            return True
    return False


# -- finite poset diagrams (the reference for limits and colimits) ----------


class Diagram:
    """A functor from a finite poset to F_p vector spaces.

    elements: hashable poset elements; leq: the order relation (callable);
    dims: dimension per element; arrows: matrix per cover pair (a, b) with
    a covered by b, mapping the space at a to the space at b (shape
    dims[b] x dims[a]).  Construction validates cover keys, shapes, and
    functoriality (all composites between comparable pairs agree).
    """

    def __init__(
        self,
        elements: Sequence,
        leq: Callable,
        dims: dict,
        arrows: dict,
        p: int,
    ):
        _check_prime(p)
        self.p = p
        self.elements = tuple(elements)
        self.dims = dict(dims)
        es = self.elements
        self._leq = {(a, b) for a in es for b in es if leq(a, b)}
        for a in es:
            if (a, a) not in self._leq:
                raise ValueError("order must be reflexive")
        covers = set()
        for a, b in self._leq:
            if a == b:
                continue
            if not any(c != a and c != b and (a, c) in self._leq and (c, b) in self._leq for c in es):
                covers.add((a, b))
        self.covers = covers
        if set(arrows) != covers:
            missing = covers - set(arrows)
            extra = set(arrows) - covers
            raise ValueError(f"arrows must be keyed by cover pairs; missing={missing} extra={extra}")
        self.arrows = dict(arrows)
        for (a, b), m in self.arrows.items():
            if m.p != p or (m.nrows, m.ncols) != (self.dims[b], self.dims[a]):
                raise ValueError(f"arrow {a}->{b} has wrong shape or field")
        self._composites: dict = {}
        self._validate_functorial()

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def composite(self, a, b) -> FieldMat:
        """The composite map from a up to b (a <= b), path independent."""
        if (a, b) not in self._leq:
            raise ValueError(f"{a} not <= {b}")
        return self._composite_checked(a, b)[0]

    def _composite_checked(self, a, b):
        key = (a, b)
        if key in self._composites:
            return self._composites[key]
        if a == b:
            res = (FieldMat.identity(self.p, self.dims[a]), True)
        else:
            candidates = []
            for (m, bb), arrow in self.arrows.items():
                if bb == b and (a, m) in self._leq:
                    sub, ok = self._composite_checked(a, m)
                    candidates.append((arrow * sub, ok))
            first = candidates[0][0]
            agree = all(ok and c == first for c, ok in candidates)
            res = (first, agree)
        self._composites[key] = res
        return res

    def _validate_functorial(self) -> None:
        for a in self.elements:
            for b in self.elements:
                if (a, b) in self._leq and not self._composite_checked(a, b)[1]:
                    raise ValueError(f"functoriality violation between {a} and {b}")

    def _order_blocks(self) -> tuple[list, dict, int]:
        order = list(self.elements)
        offset = {}
        total = 0
        for e in order:
            offset[e] = total
            total += self.dims[e]
        return order, offset, total


@dataclass(frozen=True)
class LimitResult:
    dim: int
    projections: dict  # element -> FieldMat (dims[e] x dim)


@dataclass(frozen=True)
class ColimitResult:
    dim: int
    injections: dict  # element -> FieldMat (dim x dims[e])


def limit(d: Diagram) -> LimitResult:
    """Limit of the diagram: compatible families, as the kernel of the
    stacked constraints arrow(x_a) - x_b = 0 over all cover pairs."""
    order, offset, total = d._order_blocks()
    rows: list[list[int]] = []
    for (a, b), m in sorted(d.arrows.items(), key=lambda kv: (order.index(kv[0][0]), order.index(kv[0][1]))):
        for i in range(d.dims[b]):
            row = [0] * total
            for j in range(d.dims[a]):
                row[offset[a] + j] = m.entries[i][j]
            row[offset[b] + i] = (row[offset[b] + i] - 1) % d.p
            rows.append(row)
    k = FieldMat.make(d.p, rows, total).kernel_basis()
    projections = {
        e: FieldMat(d.p, tuple(k.entries[offset[e] + i] for i in range(d.dims[e])), k.ncols)
        for e in order
    }
    return LimitResult(k.ncols, projections)


def colimit(d: Diagram) -> ColimitResult:
    """Colimit: direct sum of the spaces modulo x_a ~ arrow(x_a)."""
    order, offset, total = d._order_blocks()
    relations: list[list[int]] = []
    for (a, b), m in sorted(d.arrows.items(), key=lambda kv: (order.index(kv[0][0]), order.index(kv[0][1]))):
        for j in range(d.dims[a]):
            rel = [0] * total
            rel[offset[a] + j] = 1
            for i in range(d.dims[b]):
                rel[offset[b] + i] = (rel[offset[b] + i] - m.entries[i][j]) % d.p
            relations.append(rel)
    pivots = _rref(relations, d.p)
    free = [c for c in range(total) if c not in pivots]
    # quotient coordinates: reduce a vector by the reduced relation rows,
    # then read off the free coordinates
    def project(vec: list[int]) -> list[int]:
        v = vec[:]
        for r, pc in enumerate(pivots):
            if v[pc]:
                f = v[pc]
                v = [(x - f * y) % d.p for x, y in zip(v, relations[r])]
        return [v[c] for c in free]

    injections = {}
    for e in order:
        cols = []
        for j in range(d.dims[e]):
            unit = [0] * total
            unit[offset[e] + j] = 1
            cols.append(project(unit))
        injections[e] = FieldMat(
            d.p, tuple(tuple(col[i] for col in cols) for i in range(len(free))), d.dims[e]
        )
    return ColimitResult(len(free), injections)


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


# -- plain references for the FieldMat kernels -----------------------------------


def reference_product(p: int, a: FieldMat, b: FieldMat) -> tuple:
    """Entries of a @ b by the triple loop, reduced mod p."""
    return tuple(
        tuple(sum(a.entries[i][t] * b.entries[t][j] for t in range(a.ncols)) % p for j in range(b.ncols))
        for i in range(a.nrows)
    )


def reference_rank(p: int, m: FieldMat) -> int:
    """log_p of the size of the row space of m, enumerated from every
    combination of its rows (or of its columns, when they are fewer): no
    elimination."""
    vecs = m.entries if m.nrows <= m.ncols else [[row[j] for row in m.entries] for j in range(m.ncols)]
    space = {
        tuple(sum(c * x for c, x in zip(coeffs, col)) % p for col in zip(*vecs))
        for coeffs in itertools.product(range(p), repeat=len(vecs))
    }
    rank = 0
    while p**rank < len(space):
        rank += 1
    assert p**rank == len(space)
    return rank


def reference_vstack(a: FieldMat, b: FieldMat) -> tuple:
    return tuple(a.entries) + tuple(b.entries)


def reference_hstack(a: FieldMat, b: FieldMat) -> tuple:
    return tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a.entries, b.entries))


# -- the composite-morphism reference for InterleavingWitness.verify ----------


def _restrict_onto(mod: ArrModule, fine: CellComplex) -> ArrModule:
    refined, (m_self, _) = common_refinement(mod.complex, fine)
    if refined != fine:
        raise ValueError("target complex does not refine the module's complex")
    return restrict_module(mod, refined, m_self)


def _restrict_morphism_onto(f: ModMorphism, fine: CellComplex) -> ModMorphism:
    refined, (m_self, _) = common_refinement(f.src.complex, fine)
    if refined != fine:
        raise ValueError("target complex does not refine the morphism's complex")
    return restrict_morphism(f, refined, m_self)


def reference_verify(w) -> bool:
    """InterleavingWitness.verify by whole morphisms: restrict g, the
    v-shift of f and the 2v comparison morphism of F onto the 2v grid and
    compare g after f with it as morphisms (endpoints included), then the
    same with f and g, F and G swapped."""
    try:
        w.f.validate()
        w.g.validate()
    except ValueError:
        return False
    two_v = tuple(2 * x for x in w.v)
    w2 = w.f.src.complex.with_extra_breaks(
        [[b - 2 * vj for b in ax.breaks] for ax, vj in zip(w.F.complex.axes, w.v)]
    )
    lhs_f = _restrict_morphism_onto(w.g, w2).compose(_restrict_morphism_onto(shift_morphism(w.f, w.v), w2))
    chi_f = _restrict_morphism_onto(smoothing(w.F, two_v, (Fraction(0),) * len(w.v)), w2)
    if lhs_f != chi_f:
        return False
    lhs_g = _restrict_morphism_onto(w.f, w2).compose(_restrict_morphism_onto(shift_morphism(w.g, w.v), w2))
    chi_g = _restrict_morphism_onto(smoothing(w.G, two_v, (Fraction(0),) * len(w.v)), w2)
    return lhs_g == chi_g


# -- the generator-subset reference for ConeSpec's extreme-ray check ----------


def _in_generated_cone(x, gens, dim: int) -> bool:
    """Exact membership of x in the cone generated by gens (Caratheodory)."""
    if all(v == 0 for v in x):
        return True
    if not gens:
        return False
    for k in range(1, dim + 1):
        for subset in itertools.combinations(gens, k):
            cols = [list(g) for g in subset]
            if qrank(cols) < k:
                continue
            a = [[cols[j][i] for j in range(k)] for i in range(dim)]
            lam = qsolve(a, list(x))
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


def reference_cone_accepts(normals, generators) -> bool:
    """Whether ConeSpec(normals, generators) constructs, decided the slow
    way: the constructor's canonicalization and its generator, rank and
    interior checks, then every extreme ray of the halfspace cone searched
    for among the cones spanned by generator subsets."""
    norms_q, gens_q = [as_vec(n) for n in normals], [as_vec(g) for g in generators]
    dims = {len(v) for v in norms_q + gens_q}
    if not norms_q or not gens_q or len(dims) != 1:
        return False
    if any(all(x == 0 for x in v) for v in norms_q + gens_q):
        return False
    dim = dims.pop()

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    gens = sorted({_primitive(g) for g in gens_q})
    norms = sorted({_primitive(n) for n in norms_q})
    if len(norms) > 1:
        # a facet's tight generators span a hyperplane
        facets = []
        for n in norms:
            tight = [list(g) for g in gens if dot(n, g) == 0]
            if dim == 1 or (tight and qrank(tight) >= dim - 1):
                facets.append(n)
        norms = facets or norms
    if any(dot(n, g) < 0 for n in norms for g in gens):
        return False
    if qrank([list(n) for n in norms]) != dim:
        return False
    interior = [sum(g[i] for g in gens) for i in range(dim)]
    if any(dot(n, interior) <= 0 for n in norms):
        return False
    rays = _halfspace_extreme_rays([as_vec(n) for n in norms], dim)
    return all(_in_generated_cone(as_vec(r), [as_vec(g) for g in gens], dim) for r in rays)


# -- the plain candidate walk for interleaving_distance's exact mode ----------


def reference_exact_distance(F: ArrModule, G: ArrModule, v0, budget: int):
    """interleaving_distance(F, G, v0, budget=budget) in exact mode, walked
    with a full decision at every probe: _first_true over all candidates,
    then the same midpoint and infinity tail.  A BudgetExceededError
    carries the bracket of the decisions made before it."""
    v0 = interleave._direction_checked(F.complex, v0)
    F0, G0 = on_common_grid(F, G)
    memo = {}

    def decide(c):
        if c not in memo:
            try:
                memo[c] = interleave._decide(F0, G0, tuple(c * x for x in v0), budget)
            except interleave.BudgetExceededError as e:
                falses = [x for x, w in memo.items() if w is None]
                trues = [x for x, w in memo.items() if w is not None]
                raise interleave.BudgetExceededError(
                    e.required, e.budget, max(falses, default=None), min(trues, default=None)
                ) from None
        return memo[c]

    def result(value, attained, param):
        witness = interleave._certified(decide(param))
        return interleave.DistanceResult(value, attained, "exact", v0, None, witness, param)

    cands = interleave._candidate_parameters(F0.complex, v0)
    first = interleave._first_true(cands, lambda c: decide(c) is not None)
    if first is None:
        tail = cands[-1] + 1
        if decide(tail) is None:
            return interleave.DistanceResult(float("inf"), None, "exact", v0)
        return result(cands[-1], False, tail)
    if first:
        mid = (cands[first - 1] + cands[first]) / 2
        if decide(mid) is not None:
            return result(cands[first - 1], False, mid)
    return result(cands[first], True, cands[first])
