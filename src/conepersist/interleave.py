"""Interleaving decision and distance for modules on cell arrangements.

A v-interleaving is a pair of natural maps f from the v-shift of F to G
and g from the v-shift of G to F whose mixed composites realize the 2v
comparison morphisms of F and G.  The decision procedure works on three
nested refinements: the union grid of both modules, the grid extended by
its own v-translate (where f and g live cellwise), and the grid extended
by the 2v-translate (where the composite equations live).  Natural
families are constant on the cells of these grids, so the search over
cellwise matrices is exhaustive.

The distance in a fixed interior antipodal direction changes truth value
only at parameters where a breakpoint difference is bridged by the shift
or the doubled shift, so binary search over that finite candidate set plus
one certification query between consecutive candidates computes the exact
value; a sample beyond the breakpoint diameter certifies infinity.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import CellComplex, axis_table, cell_map, merge_breaks, table_lookup
from .exactla import FieldMat, affine_solution_space
from .persist import ArrModule, ModMorphism, hom_space, on_common_grid, restrict_module, smoothing
from .rational import Vec, as_vec
from .sites import beta_star

__all__ = [
    "BudgetExceededError",
    "InterleavingWitness",
    "DistanceResult",
    "is_interleaved",
    "interleaving_distance",
    "zero_interleaving_criterion",
    "isometry_check",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 20
_PRESAMPLE = 64
_PRESAMPLE_SEED = 0xC0FFEE


class BudgetExceededError(Exception):
    """Search space dimension exceeded the enumeration budget.

    Distinct from a negative decision: nothing is claimed about existence.
    known_false / known_true bracket the distance when raised during a
    distance computation."""

    def __init__(self, required: int, budget: int, known_false=None, known_true=None):
        self.required = required
        self.budget = budget
        self.known_false = known_false
        self.known_true = known_true
        msg = f"search dimension {required} exceeds budget {budget}"
        if known_false is not None or known_true is not None:
            msg += f" (bracket: >{known_false}, <={known_true})"
        super().__init__(msg)


def _pulls_back(mod: ArrModule, src: ArrModule, cmap) -> bool:
    """Whether mod is src restricted along the cell map cmap, compared
    cell by cell without building the restriction."""
    cx = mod.complex
    if mod.p != src.p or any(mod.dim_at(c) != src.dim_at(cmap(c)) for c in cx.cells()):
        return False
    return all(
        mod.cover_map(a, b) == src.structure_map(cmap(a), cmap(b))
        for a, b in cx.cover_pairs()
        if mod.dim_at(a) and mod.dim_at(b)
    )


@dataclass
class InterleavingWitness:
    """Cellwise interleaving data, checkable independently of the search."""

    v: Vec
    f: ModMorphism  # shift of F by v -> G, on the witness grid
    g: ModMorphism  # shift of G by v -> F, on the witness grid
    F: ArrModule
    G: ArrModule

    def verify(self) -> bool:
        """Whether f and g form a v-interleaving of F and G.

        With W the witness grid (the complex of f) and w2 its refinement
        by the 2v-translates of F's breakpoints, it checks cell by cell:

        - f and g are natural, with components of the right shapes;
        - f.src, f.dst, g.src and g.dst are the restrictions of
          shift(F, v), G, shift(G, v) and F onto W;
        - on every cell t of w2, g(a1 t) @ f(b1 t) equals the structure
          map F(s0 t <= s2 t), and f(a1 t) @ g(b1 t) equals G(s0 t <= s2 t).
          Here a1 and b1 send t and t + v to their cells of W, and s0 and
          s2 send t and t + 2v to their cells of the module's grid.

        Raises ValueError when the grids of F, G and W disagree on cone or
        coordinates, or when W or w2 does not refine a grid these cell
        maps need."""
        f, g, F, G, v = self.f, self.g, self.F, self.G, self.v
        try:
            f.validate()
            g.validate()
        except ValueError:
            return False
        W = f.src.complex
        if not (W.compatible(F.complex) and W.compatible(G.complex)):
            raise ValueError("witness grid and modules disagree on cone or coordinates")
        if g.src.complex != W:
            return False
        for mod, src, shift in ((f.src, F, v), (f.dst, G, None), (g.src, G, v), (g.dst, F, None)):
            if not _pulls_back(mod, src, cell_map(W, src.complex, shift)):
                return False
        two_v = tuple(2 * x for x in v)
        w2 = W.with_extra_breaks([[b - 2 * vj for b in ax.breaks] for ax, vj in zip(F.complex.axes, v)])
        a1, b1 = cell_map(w2, W), cell_map(w2, W, v)
        for A, outer, inner in ((F, g, f), (G, f, g)):
            s0, s2 = cell_map(w2, A.complex), cell_map(w2, A.complex, two_v)
            for t in w2.cells():
                lo, hi = s0(t), s2(t)
                if A.dim_at(lo) and A.dim_at(hi) and outer.at(a1(t)) @ inner.at(b1(t)) != A.structure_map(lo, hi):
                    return False
        return True


@dataclass
class DistanceResult:
    value: Fraction | float
    attained: bool | None
    mode: str
    direction: Vec
    bracket: tuple | None = None
    witness: InterleavingWitness | None = None
    witness_parameter: Fraction | None = None


# -- decision ---------------------------------------------------------------------


def _decide(F0: ArrModule, G0: ArrModule, v, budget: int) -> InterleavingWitness | None:
    """An interleaving of two modules on one grid in shift v, or None when
    provably none exists.  The witness is built on the modules the search
    already restricted onto its witness grid (F0 and G0 themselves on the
    identity path), and nothing is verified here: _certified checks the one
    witness a caller returns."""
    base = F0.complex
    v = as_vec(v)
    if len(v) != base.dim:
        raise ValueError("shift vector dimension mismatch")
    if not base.in_antipode(v):
        raise ValueError("shift vector must lie in the antipodal cone")
    p = F0.p

    if v == (Fraction(0),) * base.dim and F0 == G0:
        # the v = 0 witness grid is the base itself
        comps = {c: FieldMat.identity(p, d) for c, d in F0.dims.items()}
        f = ModMorphism(F0, G0, comps, validate=False)
        return InterleavingWitness(v, f, ModMorphism(G0, F0, comps, validate=False), F0, G0)

    grids = _Grids(base, v)
    s0, sv, s2 = map(grids.lookup, ("s0", "sv", "s2"))
    # sound pruning: a witness makes the F comparison factor through G at
    # the v-translate (and symmetrically), bounding its rank; when every
    # comparison is zero, the zero maps interleave
    all_zero = True
    for t in grids.w2.cells():
        lo, mid, hi = s0(t), sv(t), s2(t)
        rank_f, rank_g = F0.structure_rank(lo, hi), G0.structure_rank(lo, hi)
        if rank_f > G0.dim_at(mid) or rank_g > F0.dim_at(mid):
            return None
        all_zero = all_zero and not rank_f and not rank_g
    if all_zero:
        w1, t0, tv = grids.w1, grids.lookup("t0"), grids.lookup("tv")
        f, g = (
            ModMorphism(restrict_module(A, w1, tv), restrict_module(B, w1, t0), {}, validate=False)
            for A, B in ((F0, G0), (G0, F0))
        )
        return InterleavingWitness(v, f, g, F0, G0)

    # cheap sufficient probes: fix a natural family on one side and solve
    # the whole remaining system, which is linear; any hit is a complete
    # witness, misses fall through to the exhaustive sweep
    search = _Search(F0, G0, grids)
    small, large = sorted((search.f, search.g), key=lambda side: side.space.dim)
    hit = search.first_hit(_probes(small, large, p))
    if hit is None:
        if _rank_pair_refutes(F0, G0, grids):
            return None
        if small.space.dim > budget:
            raise BudgetExceededError(small.space.dim, budget)
        hit = search.first_hit(_enumerate(small, p))
        if hit is None:
            return None
    return InterleavingWitness(v, *hit, F0, G0)


# A breakpoint x of a decision grid is tagged with the translates of the
# base breakpoints it lies on: 1 for b, 2 for b - v, 4 for b - 2v.  Per
# cell map: its source grid, and the tags that make x + shift a breakpoint
# of its target (w1 at shift v holds b and b - v, so x on b - v or b - 2v).
_TABLE_TARGETS = (
    ("t0", "w1", 1), ("tv", "w1", 2),
    ("s0", "w2", 1), ("sv", "w2", 2), ("s2", "w2", 4),
    ("a1", "w2", 1 | 2), ("b1", "w2", 2 | 4),
)


class _Grids:
    """The grids of one decision in shift v: the witness grid w1 (the base
    and its v-translate) and the composite grid w2 (w1 and the base's
    2v-translate), with the per-axis tables of their cell maps.  t0 and
    tv send w1 to the base at shifts 0 and v; s0, sv and s2 send w2 to the
    base at 0, v and 2v; a1 and b1 send w2 to w1 at 0 and v.  Per axis, one
    arrangement.merge_breaks of the base breakpoints with their two
    translates gives both grids, and arrangement.axis_table reads every
    table from its tags."""

    def __init__(self, base: CellComplex, v: Vec):
        breaks = {"w1": [], "w2": []}
        self.tables: dict[str, list[list[int]]] = {name: [] for name, _, _ in _TABLE_TARGETS}
        for ax, vj in zip(base.axes, v):
            merged, tags = merge_breaks([b - k * vj for b in ax.breaks] for k in range(3))
            on_w1 = [(x, m) for x, m in zip(merged, tags) if m & 3]
            masks = {"w1": [m for _, m in on_w1], "w2": tags}
            breaks["w1"].append([x for x, _ in on_w1])
            breaks["w2"].append(merged)
            for name, grid, target in _TABLE_TARGETS:
                self.tables[name].append(axis_table(masks[grid], target))
        self.w1, self.w2 = base._derived(breaks["w1"]), base._derived(breaks["w2"])

    def lookup(self, name: str):
        """The cell map of that name, as a lookup on its source grid."""
        grid = next(g for n, g, _ in _TABLE_TARGETS if n == name)
        return table_lookup(getattr(self, grid), self.tables[name])


def _rank_pair_refutes(F0: ArrModule, G0: ArrModule, grids: _Grids) -> bool:
    """Whether some cells t <= u of w2 have rank F0(s0 t <= s2 u) above
    rank G0(sv t <= sv u), or the same with F0 and G0 swapped.  A
    v-interleaving factors F0(s0 t <= s2 u) through G0(sv t <= sv u), so
    either refutes it.  The cell maps and the cell order factor by axis,
    so the base-cell quadruples (s0 t, s2 u, sv t, sv u) are the product
    of one small set per axis."""
    per_axis = []
    for ax, s0, sv, s2 in zip(grids.w2.axes, grids.tables["s0"], grids.tables["sv"], grids.tables["s2"]):
        up = sorted(range(ax.ncells), key=ax.oriented)
        per_axis.append({(s0[t], s2[u], sv[t], sv[u]) for i, t in enumerate(up) for u in up[i:]})
    rank_f, rank_g = F0.structure_rank, G0.structure_rank
    for quads in itertools.product(*per_axis):
        a, b, c, d = zip(*quads)
        if rank_f(a, b) > rank_g(c, d) or rank_g(a, b) > rank_f(c, d):
            return True
    return False


class _Side:
    """One direction of the search: the natural maps from shift(A, v) to
    B, with both restricted onto the witness grid w1 (along tv and t0),
    so the unknowns and components are keyed by w1 cell."""

    def __init__(self, A: ArrModule, B: ArrModule, w1: CellComplex, t0, tv):
        self.src, self.dst = restrict_module(A, w1, tv), restrict_module(B, w1, t0)
        self.unknowns, self.nat_eqs, self.space = hom_space(self.src, self.dst)

    def morphism(self, comps: dict) -> ModMorphism:
        """The components as a map src -> dst, unchecked: verify() checks
        naturality of the one witness a caller returns."""
        return ModMorphism(self.src, self.dst, comps, validate=False)


class _Search:
    """Both sides of one decision and the composite equations that tie
    them: on each cell t of w2, g(a1 t) f(b1 t) = F0(s0 t <= s2 t) and
    f(a1 t) g(b1 t) = G0(s0 t <= s2 t).  Fixing one side makes the other
    side's system linear."""

    def __init__(self, F0: ArrModule, G0: ArrModule, grids: _Grids):
        t0, tv, s0, s2, a1, b1 = map(grids.lookup, ("t0", "tv", "s0", "s2", "a1", "b1"))
        self.p = F0.p
        self.f = _Side(F0, G0, grids.w1, t0, tv)
        self.g = _Side(G0, F0, grids.w1, t0, tv)

        def target(A: ArrModule, t):
            lo, hi = s0(t), s2(t)
            return A.structure_map(lo, hi) if A.dim_at(lo) and A.dim_at(hi) else None

        # (a1 t, b1 t, F0 target, G0 target) per cell with a non-empty
        # target; a zero target still constrains the solution
        self.targets = []
        for t in grids.w2.cells():
            tf, tg = target(F0, t), target(G0, t)
            if tf is not None or tg is not None:
                self.targets.append((a1(t), b1(t), tf, tg))

    def other(self, side: _Side) -> _Side:
        return self.g if side is self.f else self.f

    def first_hit(self, attempts):
        """The maps (f, g) of the first (side, coeffs) of attempts whose
        natural family on that side extends to an interleaving."""
        for fixed, coeffs in attempts:
            known = fixed.morphism(fixed.space.element(coeffs))
            solved = self.solve(fixed, known)
            if solved is not None:
                return (known, solved) if fixed is self.f else (solved, known)
        return None

    def solve(self, fixed: _Side, known: ModMorphism):
        """The map of the other side that completes fixed's map known to
        an interleaving, or None when none exists.  The composite whose
        target is fixed's own module (F for f) has the unknown on the
        left, the other one has it on the right; a rank test refutes
        either before solving."""
        other = self.other(fixed)
        equations = list(other.nat_eqs)
        for a1, b1, tf, tg in self.targets:
            own, cross = (tf, tg) if fixed is self.f else (tg, tf)
            for rhs, cell, unknown, left in ((own, b1, a1, True), (cross, a1, b1, False)):
                if rhs is None:
                    continue
                if unknown not in other.unknowns:
                    if not rhs.is_zero():
                        return None
                    continue
                emat = known.at(cell)
                stacked = FieldMat.vstack(emat, rhs) if left else FieldMat.hstack(emat, rhs)
                if stacked.rank() != emat.rank():
                    return None
                term = (None, unknown, emat) if left else (emat, unknown, None)
                equations.append(([term], rhs))
        space = affine_solution_space(self.p, other.unknowns, equations)
        return other.morphism(space.particular()) if space.feasible else None


_PROBE_ROUNDS = 6


def _probes(small: _Side, large: _Side, p: int):
    """(side, coeffs) to try first: seeded random families on alternating
    sides, the larger naturality space first.  No zero family: _decide
    has returned the zero witness unless some comparison is nonzero, and
    a zero family makes every composite zero."""
    rng = random.Random(_PRESAMPLE_SEED ^ 0x5EED5EED)
    for k in range(_PROBE_ROUNDS):
        side = large if k % 2 == 0 else small
        yield side, tuple(rng.randrange(p) for _ in range(side.space.dim))


def _enumerate(side: _Side, p: int):
    """(side, coeffs) for every natural family on side: a seeded random
    presample, then the rest in odometer order."""
    dim = side.space.dim
    rng = random.Random(_PRESAMPLE_SEED)
    seen = set()
    while len(seen) < min(_PRESAMPLE, p**dim):
        c = tuple(rng.randrange(p) for _ in range(dim))
        if c not in seen:
            seen.add(c)
            yield side, c
    for c in itertools.product(range(p), repeat=dim):
        if c not in seen:
            yield side, c


def _certified(w: InterleavingWitness) -> InterleavingWitness:
    """w, once verify() passes; the one witness a public entry point
    returns is checked here, and only it."""
    if not w.verify():
        raise AssertionError("search produced a witness that fails verification")
    return w


def is_interleaved(F: ArrModule, G: ArrModule, v, budget: int = DEFAULT_BUDGET):
    """Interleaving witness in shift v, or None when provably none exists.

    Raises BudgetExceededError when the search space is too large to sweep;
    that outcome makes no existence claim either way."""
    w = _decide(*on_common_grid(F, G), v, budget)
    return None if w is None else _certified(w)


def zero_interleaving_criterion(F: ArrModule, v) -> bool:
    """Whether the doubled comparison morphism of F vanishes, which decides
    interleaving with the zero module in shift v."""
    v = as_vec(v)
    two_v = tuple(2 * x for x in v)
    zero = (Fraction(0),) * len(v)
    return smoothing(F, two_v, zero).is_zero()


# -- distance ---------------------------------------------------------------------


def _direction_checked(complex_: CellComplex, v0) -> Vec:
    v0 = as_vec(v0)
    if len(v0) != complex_.dim:
        raise ValueError("direction dimension mismatch")
    if not complex_.in_antipode_interior(v0):
        raise ValueError("direction must lie in the interior of the antipodal cone")
    return v0


def _candidate_parameters(grid: CellComplex, v0: Vec) -> list[Fraction]:
    """Zero and every parameter at which the shift or the doubled shift
    bridges two breakpoints of one axis of grid, in increasing order."""
    cands = {Fraction(0)}
    for ax, vj in zip(grid.axes, v0):
        speed, breaks = abs(vj), ax.breaks
        for i, b in enumerate(breaks):
            for b2 in breaks[i + 1 :]:
                cands.add((b2 - b) / speed)
                cands.add((b2 - b) / (2 * speed))
    return sorted(cands)


def _diameter_bound(grid: CellComplex, v0: Vec) -> Fraction:
    return max(
        ((ax.breaks[-1] - ax.breaks[0]) / abs(vj) for ax, vj in zip(grid.axes, v0) if ax.breaks),
        default=Fraction(0),
    )


def _first_true(cands: list, holds):
    """Index of the first candidate at which the monotone predicate holds,
    or None when it fails at the last one.  Tests the last candidate, then
    bisects."""
    if not holds(cands[-1]):
        return None
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return hi


def interleaving_distance(
    F: ArrModule,
    G: ArrModule,
    v0,
    mode: str = "exact",
    tol: Fraction | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DistanceResult:
    """Interleaving distance in direction v0.

    Exact mode walks the finite set of parameters where the decision can
    change, certifying the value and whether it is attained.  Bracketed
    mode bisects down to tol and reports the enclosing interval."""
    v0 = _direction_checked(F.complex, v0)
    if mode == "bracketed":
        if tol is None or tol <= 0:
            raise ValueError("bracketed mode needs a positive tolerance")
    elif mode != "exact":
        raise ValueError("mode must be 'exact' or 'bracketed'")
    # one base grid for every decision, so the restricted modules keep
    # their structure-map caches across probes
    F0, G0 = on_common_grid(F, G)
    # parameter -> _decide's unverified witness, or None; only the
    # witness a result carries gets verified
    memo: dict[Fraction, InterleavingWitness | None] = {}

    def decide(c: Fraction):
        if c not in memo:
            try:
                memo[c] = _decide(F0, G0, tuple(c * x for x in v0), budget)
            except BudgetExceededError as e:
                falses = [x for x, w in memo.items() if w is None]
                trues = [x for x, w in memo.items() if w is not None]
                raise BudgetExceededError(
                    e.required,
                    e.budget,
                    known_false=max(falses) if falses else None,
                    known_true=min(trues) if trues else None,
                ) from None
        return memo[c]

    def result(value, attained, param, bracket=None) -> DistanceResult:
        """The result whose certified witness sits at param."""
        witness = _certified(decide(param))
        return DistanceResult(value, attained, mode, v0, bracket, witness, witness_parameter=param)

    infinite = DistanceResult(float("inf"), None, mode, v0)
    if mode == "bracketed":
        lo = Fraction(0)
        if decide(lo) is not None:
            return result(lo, True, lo, (lo, lo))
        hi = max(_diameter_bound(F0.complex, v0), Fraction(1)) + 1
        if decide(hi) is None:
            return infinite
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if decide(mid) is not None:
                hi = mid
            else:
                lo = mid
        return result(hi, None, hi, (lo, hi))

    cands = _candidate_parameters(F0.complex, v0)
    first = _first_true(cands, lambda c: decide(c) is not None)
    if first is None:
        # the widest breakpoint pair of each axis is a candidate, so the
        # last one already exceeds the breakpoint diameter
        tail = cands[-1] + 1
        return infinite if decide(tail) is None else result(cands[-1], False, tail)
    if first:
        # the decision is constant strictly between consecutive candidates,
        # so one interior sample settles whether the threshold is attained
        mid = (cands[first - 1] + cands[first]) / 2
        if decide(mid) is not None:
            return result(cands[first - 1], False, mid)
    return result(cands[first], True, cands[first])


# -- derived checks ---------------------------------------------------------------


@dataclass
class IsometryRecord:
    ambient: DistanceResult
    stabilized: DistanceResult
    equal: bool


def isometry_check(
    F: ArrModule, G: ArrModule, v0, budget: int = DEFAULT_BUDGET
) -> IsometryRecord:
    """Distance between the modules versus distance between their corner
    stabilizations, in the same direction."""
    d1 = interleaving_distance(F, G, v0, budget=budget)
    d2 = interleaving_distance(
        beta_star(F).module, beta_star(G).module, v0, budget=budget
    )
    return IsometryRecord(ambient=d1, stabilized=d2, equal=d1.value == d2.value)
