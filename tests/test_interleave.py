"""Interleaving decision and distance, cross-checked against a raw oracle."""
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conepersist.arrangement import CellComplex, axis_cell_map, cell_map
from conepersist.cone import ConeSpec
from conepersist.docio import document_for, witness_from_payload, witness_to_payload
from conepersist.exactla import FieldMat
from conepersist import interleave, persist
from conepersist.interleave import (
    BudgetExceededError,
    InterleavingWitness,
    interleaving_distance,
    is_interleaved,
    isometry_check,
    zero_interleaving_criterion,
)
from conepersist.persist import (
    ArrModule,
    ModMorphism,
    direct_sum,
    on_common_grid,
    point_module,
    principal_module,
    random_module,
    shift_module,
    zero_module,
)

from oracles import raw_is_interleaved, reference_verify


def _line():
    return ConeSpec(normals=[(-1,)], generators=[(-1,)])


def _line_cx(breaks=(0,)):
    return CellComplex(_line(), [list(breaks)])


def _quad_cx(bx=(0,), by=(0,)):
    quad = ConeSpec(normals=[(-1, 0), (0, -1)], generators=[(-1, 0), (0, -1)])
    return CellComplex(quad, [list(bx), list(by)])


def _half_open_interval():
    """Indicator of (0, 1]: dimension one on the open part and the right
    endpoint, identity between them."""
    cx = _line_cx((0, 1))
    return ArrModule(cx, 2, {(2,): 1, (3,): 1}, {((2,), (3,)): FieldMat.identity(2, 1)})


# -- decision vs oracle ------------------------------------------------------------


def test_decision_matches_raw_oracle():
    trues = falses = 0
    for seed in range(60):
        rng = random.Random(9000 + seed)
        cx = _line_cx((0, 1))
        F = random_module(cx, 2, rng.randrange(10**6), max_dim=2)
        style = rng.random()
        if style < 0.5:
            u = Fraction(rng.randint(-1, 1), rng.choice((1, 2)))
            G = shift_module(F, (u,))
            c = abs(u) + Fraction(rng.randint(0, 2), 2)
        else:
            G = random_module(cx, 2, rng.randrange(10**6), max_dim=2)
            c = Fraction(rng.randint(0, 3), 2)
        if F.total_dim() > 6 or G.total_dim() > 6:
            continue  # keep the brute-force sweep affordable
        try:
            expect = raw_is_interleaved(F, G, (c,))
        except ValueError:
            continue
        witness = is_interleaved(F, G, (c,))
        assert (witness is not None) == expect
        if witness is not None:
            assert witness.verify()
        trues += expect
        falses += not expect
    assert trues >= 10 and falses >= 10


def test_decision_rejects_bad_shift_vectors():
    F = principal_module(_line_cx(), 2, (0,))
    with pytest.raises(ValueError):
        is_interleaved(F, F, (-1,))
    with pytest.raises(ValueError):
        is_interleaved(F, F, (1, 1))


def test_zero_shift_identity():
    F = random_module(_line_cx((0, 1)), 2, 5)
    w = is_interleaved(F, F, (0,))
    assert w is not None and w.verify()


# -- frozen distances ---------------------------------------------------------------


def test_distance_between_shifted_downsets():
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    r = interleaving_distance(P0, P3, (1,))
    assert r.value == 3 and r.attained is True
    assert r.witness is not None and r.witness.verify()


def test_distance_skyscraper_to_zero_not_attained():
    cx = _line_cx()
    S = point_module(cx, 2, (0,))
    r = interleaving_distance(S, zero_module(cx, 2), (1,))
    assert r.value == 0 and r.attained is False
    assert r.witness is not None and r.witness.verify()


def test_distance_half_open_interval_to_zero():
    F = _half_open_interval()
    r = interleaving_distance(F, zero_module(F.complex, 2), (1,))
    assert r.value == Fraction(1, 2) and r.attained is True


def test_distance_detects_rank_obstruction():
    P0 = principal_module(_line_cx(), 2, (0,))
    r = interleaving_distance(direct_sum(P0, P0), P0, (1,))
    assert r.value == float("inf") and r.attained is None


def test_distance_two_axes():
    P00 = principal_module(_quad_cx(), 2, (0, 0))
    P11 = principal_module(_quad_cx(), 2, (1, 1))
    r = interleaving_distance(P00, P11, (1, 1))
    assert r.value == 1 and r.attained is True
    assert is_interleaved(P00, P11, (Fraction(1, 2), Fraction(1, 2))) is None


def test_distance_direction_validation():
    P0 = principal_module(_line_cx(), 2, (0,))
    with pytest.raises(ValueError):
        interleaving_distance(P0, P0, (-1,))
    with pytest.raises(ValueError):
        interleaving_distance(P0, P0, (0,))


# -- bracketed mode -----------------------------------------------------------------


def test_bracketed_mode_encloses_exact_value():
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    tol = Fraction(1, 64)
    r = interleaving_distance(P0, P3, (1,), mode="bracketed", tol=tol)
    lo, hi = r.bracket
    assert hi - lo <= tol
    assert lo < 3 <= hi
    assert r.value == hi
    assert r.witness is not None and r.witness.verify()


def test_bracketed_mode_requires_tolerance():
    P0 = principal_module(_line_cx(), 2, (0,))
    with pytest.raises(ValueError):
        interleaving_distance(P0, P0, (1,), mode="bracketed")
    with pytest.raises(ValueError):
        interleaving_distance(P0, P0, (1,), mode="nearest")


def test_bracketed_infinite_distance():
    P0 = principal_module(_line_cx(), 2, (0,))
    r = interleaving_distance(
        direct_sum(P0, P0), P0, (1,), mode="bracketed", tol=Fraction(1, 8)
    )
    assert r.value == float("inf")


# -- witnesses ----------------------------------------------------------------------


def test_corrupted_witness_fails_verification():
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    w = interleaving_distance(P0, P3, (1,)).witness
    assert w.verify()
    key = next(c for c, m in w.f.components.items() if not m.is_zero())
    w.f.components[key] = FieldMat.zero(2, w.f.components[key].nrows,
                                       w.f.components[key].ncols)
    assert not w.verify()


# -- certify once ---------------------------------------------------------------------


@pytest.fixture
def verified(monkeypatch):
    """Every witness verify() is called on, in call order."""
    calls = []
    original = InterleavingWitness.verify

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(InterleavingWitness, "verify", counted)
    return calls


@pytest.fixture
def found(monkeypatch):
    """Per decision the search made: whether it found an interleaving."""
    outcomes = []
    original = interleave._decide

    def counted(*args):
        out = original(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(interleave, "_decide", counted)
    return outcomes


def _only_returned_witness_verified(verified, result):
    assert len(verified) == 1 and verified[0] is result.witness
    assert result.witness.verify()


def test_exact_distance_verifies_only_the_returned_witness(verified, found):
    F = random_module(_line_cx((0, 1)), 2, 0, max_dim=2)
    r = interleaving_distance(F, shift_module(F, (Fraction(1, 2),)), (1,))
    assert r.value == Fraction(1, 2) and r.attained is True
    assert sum(found) >= 2
    _only_returned_witness_verified(verified, r)


def test_bracketed_distance_verifies_only_the_returned_witness(verified, found):
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    r = interleaving_distance(P0, P3, (1,), mode="bracketed", tol=Fraction(1, 64))
    assert r.bracket[0] < 3 <= r.bracket[1]
    assert sum(found) >= 2
    _only_returned_witness_verified(verified, r)


def test_unattained_distance_verifies_only_the_returned_witness(verified):
    cx = _line_cx()
    r = interleaving_distance(point_module(cx, 2, (0,)), zero_module(cx, 2), (1,))
    assert r.value == 0 and r.attained is False
    assert r.witness_parameter > 0
    _only_returned_witness_verified(verified, r)


def test_infinite_distance_verifies_nothing(verified, found):
    P0 = principal_module(_line_cx(), 2, (0,))
    for mode, tol in (("exact", None), ("bracketed", Fraction(1, 8))):
        r = interleaving_distance(direct_sum(P0, P0), P0, (1,), mode=mode, tol=tol)
        assert r.value == float("inf") and r.witness is None
    assert found and not any(found)
    assert verified == []


def test_decision_verifies_the_witness_it_returns(verified):
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    w = is_interleaved(P0, P3, (3,))
    assert len(verified) == 1 and verified[0] is w
    assert is_interleaved(P0, P3, (1,)) is None
    assert len(verified) == 1


@pytest.fixture
def restricted(monkeypatch):
    """Every restrict_module call, from persist and from interleave."""
    calls = []
    original = persist.restrict_module

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(persist, "restrict_module", counted)
    monkeypatch.setattr(interleave, "restrict_module", counted)
    return calls


def test_witness_reuses_the_searched_restrictions(restricted):
    # per witness path: two restrictions onto the common grid, then none
    # for the identity, four for the zero maps and four for the two search
    # sides, whose modules the witness keeps
    cx = _line_cx()
    P0 = principal_module(cx, 2, (0,))
    paths = [
        ("identity", P0, P0, (0,), 2),
        ("searched", P0, principal_module(cx, 2, (3,)), (3,), 6),
        ("zero", point_module(cx, 2, (0,)), zero_module(cx, 2), (1,), 6),
    ]
    for name, F, G, v, calls in paths:
        restricted.clear()
        w = is_interleaved(F, G, v)
        assert len(restricted) == calls, name
        assert w.verify(), name
        assert w.f.is_zero() == (name == "zero"), name


# -- interleaving with zero ----------------------------------------------------------


def test_zero_interleaving_criterion_frozen():
    S = point_module(_line_cx(), 2, (0,))
    assert zero_interleaving_criterion(S, (Fraction(1, 2),))
    assert not zero_interleaving_criterion(S, (0,))
    P = principal_module(_line_cx(), 2, (0,))
    assert not zero_interleaving_criterion(P, (5,))
    H = _half_open_interval()
    assert zero_interleaving_criterion(H, (Fraction(1, 2),))
    assert not zero_interleaving_criterion(H, (Fraction(1, 4),))


def test_criterion_agrees_with_decision():
    for seed in range(12):
        F = random_module(_line_cx((0, 1)), 2, seed, max_dim=2)
        z = zero_module(F.complex, 2)
        for c in (Fraction(0), Fraction(1, 2), Fraction(3, 2)):
            expect = zero_interleaving_criterion(F, (c,))
            assert (is_interleaved(F, z, (c,)) is not None) == expect


# -- metric behavior ----------------------------------------------------------------


def _dist(F, G, v0):
    return interleaving_distance(F, G, v0).value


def test_metric_axioms_sampled():
    cx = _line_cx((0, 1))
    mods = [random_module(cx, 2, s, max_dim=2) for s in (3, 7, 11)]
    v0 = (1,)
    for F in mods:
        assert _dist(F, F, v0) == 0
    for F in mods:
        for G in mods:
            assert _dist(F, G, v0) == _dist(G, F, v0)
    for F in mods:
        for G in mods:
            for H in mods:
                a, b, c = _dist(F, H, v0), _dist(F, G, v0), _dist(G, H, v0)
                if b != float("inf") and c != float("inf"):
                    assert a <= b + c


def test_deeper_directions_shrink_distance():
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    d1 = _dist(P0, P3, (1,))
    d2 = _dist(P0, P3, (2,))
    d3 = _dist(P0, P3, (3,))
    assert d1 >= d2 >= d3
    assert d2 == Fraction(3, 2) and d3 == 1


# -- budget --------------------------------------------------------------------------


def test_budget_zero_raises_on_enumeration():
    # a pair whose decision needs the sweep: the probes miss and no rank
    # pair refutes, because an interleaving exists
    cx = _line_cx((0, 1))
    F = random_module(cx, 2, 46)
    G = random_module(cx, 2, 1046)
    with pytest.raises(BudgetExceededError) as e:
        is_interleaved(F, G, (Fraction(1, 2),), budget=0)
    assert e.value.required > e.value.budget == 0


def test_budget_error_carries_known_bounds():
    cx = _line_cx((0, 1))
    F = random_module(cx, 2, 176)
    G = random_module(cx, 2, 676)
    assert interleaving_distance(F, G, (1,)).value == Fraction(1, 2)
    with pytest.raises(BudgetExceededError) as e:
        interleaving_distance(F, G, (1,), budget=0)
    # parameters decided before the failure become certified bounds
    assert e.value.known_true == 1
    # the memo keeps both kinds of decision, so both bounds can show
    cx = _line_cx((0, 1, 2))
    F = random_module(cx, 2, 15, max_dim=2)
    G = random_module(cx, 2, 715, max_dim=2)
    assert interleaving_distance(F, G, (1,)).value == 1
    with pytest.raises(BudgetExceededError) as e:
        interleaving_distance(F, G, (1,), budget=0)
    assert e.value.known_false == Fraction(1, 2)
    assert e.value.known_true == 2


def inter_probe(F, G, directions, budget):
    """Decision outcome for each shift in directions; 'budget' marks an
    inconclusive search."""
    out = []
    for v in directions:
        try:
            w = is_interleaved(F, G, v, budget)
            out.append({"direction": v, "interleaved": w is not None})
        except BudgetExceededError:
            out.append({"direction": v, "interleaved": "budget"})
    return out


def test_inter_probe_reports_budget_inconclusive():
    cx = _line_cx((0, 1))
    F = random_module(cx, 2, 46)
    G = random_module(cx, 2, 1046)
    out = inter_probe(F, G, [(Fraction(1, 2),)], budget=0)
    assert out[0]["interleaved"] == "budget"


# -- isometry under stabilization ----------------------------------------------------


def test_isometry_check_on_samples():
    cx = _line_cx((0, 1))
    for s in (2, 9):
        F = random_module(cx, 2, s, max_dim=2)
        G = shift_module(F, (Fraction(1, 2),))
        rec = isometry_check(F, G, (1,))
        assert rec.equal
        assert rec.ambient.value == rec.stabilized.value


# -- cellwise verify, rank pairs and decision grids ---------------------------------


_HALVES = st.integers(-2, 2).map(lambda n: Fraction(n, 2))


@st.composite
def _small_complex(draw):
    """A line with one or two breakpoints, or a plane with one per axis."""
    if draw(st.booleans()):
        return _quad_cx([draw(_HALVES)], [draw(_HALVES)])
    return _line_cx(draw(st.lists(_HALVES, min_size=1, max_size=2, unique=True)))


def _outcome(check, w):
    """check(w), or the type of the exception it raises."""
    try:
        return check(w)
    except Exception as e:  # noqa: BLE001 - the type is the outcome
        return type(e)


@given(st.sampled_from((2, 3)), _small_complex(), st.integers(0, 10**6), st.data())
@settings(max_examples=60, deadline=None)
def test_verify_matches_the_reference(p, cx, seed, data):
    F = random_module(cx, p, seed, max_dim=2 if cx.dim == 1 else 1)
    u = tuple(data.draw(_HALVES) for _ in range(cx.dim))
    v = tuple(abs(x) + data.draw(st.integers(0, 2).map(lambda n: Fraction(n, 2))) for x in u)
    try:
        w = is_interleaved(F, shift_module(F, u), v, budget=8)
    except BudgetExceededError:
        reject()
    assert w is not None  # a translate by u is v-interleaved for v >= |u|
    variants = [
        w,
        InterleavingWitness(w.v, w.g, w.f, w.F, w.G),
        InterleavingWitness(w.v, w.f, w.g, w.G, w.F),
    ]
    for name in ("f", "g"):
        old = getattr(w, name)
        comps = old.components
        if not comps:
            continue
        cell = data.draw(st.sampled_from(sorted(comps)))
        m = comps[cell]
        i, j = data.draw(st.integers(0, m.nrows - 1)), data.draw(st.integers(0, m.ncols - 1))
        flipped = [list(r) for r in m.entries]
        flipped[i][j] += 1
        for new in (
            {**comps, cell: FieldMat.make(p, flipped)},
            {c: x for c, x in comps.items() if c != cell},
        ):
            mor = ModMorphism(old.src, old.dst, new, validate=False)
            f, g = (mor, w.g) if name == "f" else (w.f, mor)
            variants.append(InterleavingWitness(w.v, f, g, w.F, w.G))
    assert w.verify() is True
    for x in variants:
        assert _outcome(InterleavingWitness.verify, x) == _outcome(reference_verify, x)
    loaded = witness_from_payload(witness_to_payload(w))
    assert loaded.verify() is reference_verify(loaded) is True


def test_verify_checks_the_witness_endpoints():
    # two skyscrapers are interleaved by zero maps, and with F and G
    # swapped every mixed composite still matches (all are zero, and no
    # cell sees the swapped modules across 2v); only the endpoint check
    # sees that f no longer starts at the v-shift of F
    cx = _line_cx()
    w = is_interleaved(point_module(cx, 2, (0,)), point_module(cx, 2, (Fraction(1, 2),)), (1,))
    assert w is not None and w.verify() and not w.f.components
    swapped = InterleavingWitness(w.v, w.f, w.g, w.G, w.F)
    assert swapped.verify() is reference_verify(swapped) is False


@given(st.sampled_from((2, 3)), _small_complex(), _small_complex(), st.integers(0, 10**6),
       st.integers(0, 10**6), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_pair_refutations_are_sound(p, cx, cy, sf, sg, translate, data):
    F = random_module(cx, p, sf, max_dim=2, zero_chance=0.5)
    if translate or cy.dim != cx.dim:
        G = shift_module(F, tuple(data.draw(_HALVES) for _ in range(cx.dim)))
    else:
        G = random_module(cy, p, sg, max_dim=2, zero_chance=0.5)
    v = tuple(data.draw(st.integers(0, 3).map(lambda n: Fraction(n, 2))) for _ in range(cx.dim))
    F0, G0 = on_common_grid(F, G)
    refutes = interleave._rank_pair_refutes(F0, G0, interleave._Grids(F0.complex, v))
    try:
        interleaved = raw_is_interleaved(F, G, v, max_candidates=3**6)
    except ValueError:
        reject()  # too large for the brute-force oracle
    assert not (refutes and interleaved)


def test_rank_pair_refutes_before_the_sweep(monkeypatch):
    # F and G have the same dimensions on every cell, so the pointwise
    # prune passes, and no probe can succeed.  Only G carries a class from
    # the top cell to the bottom one across the breakpoint: rank
    # G((0,) <= (2,)) = 1, while F's maps across it compose to zero.
    cx = _line_cx((0,))
    dims = {(0,): 1, (1,): 2, (2,): 1}
    F = ArrModule(cx, 2, dims, {
        ((0,), (1,)): FieldMat.make(2, [[1, 0]]),
        ((1,), (2,)): FieldMat.make(2, [[0], [0]]),
    })
    G = ArrModule(cx, 2, dims, {
        ((0,), (1,)): FieldMat.make(2, [[0, 1]]),
        ((1,), (2,)): FieldMat.make(2, [[0], [1]]),
    })
    v = (Fraction(1, 2),)
    sweeps, refuted = [], []
    enumerate_, refutes = interleave._enumerate, interleave._rank_pair_refutes
    monkeypatch.setattr(interleave, "_enumerate", lambda *a: sweeps.append(a) or enumerate_(*a))
    monkeypatch.setattr(
        interleave, "_rank_pair_refutes", lambda *a: refuted.append(refutes(*a)) or refuted[-1]
    )
    assert is_interleaved(F, G, v) is None
    assert refuted == [True] and sweeps == []
    assert raw_is_interleaved(F, G, v) is False


@given(_small_complex(), st.data())
@settings(max_examples=60, deadline=None)
def test_decision_grids_match_the_constructor_and_cell_maps(base, data):
    v = tuple(data.draw(st.integers(0, 4).map(lambda n: Fraction(n, 4))) for _ in range(base.dim))
    grids = interleave._Grids(base, v)
    w1 = CellComplex(base.cone, [[b - k * vj for b in ax.breaks for k in (0, 1)]
                                 for ax, vj in zip(base.axes, v)])
    w2 = CellComplex(base.cone, [[b - k * vj for b in ax.breaks for k in (0, 1, 2)]
                                 for ax, vj in zip(base.axes, v)])
    assert (grids.w1, grids.w2) == (w1, w2)
    assert hash(grids.w1) == hash(w1) and hash(grids.w2) == hash(w2)
    assert grids.w1.axes == w1.axes and grids.w2.axes == w2.axes
    for name, fine, coarse, k in (
        ("t0", w1, base, 0), ("tv", w1, base, 1),
        ("s0", w2, base, 0), ("sv", w2, base, 1), ("s2", w2, base, 2),
        ("a1", w2, w1, 0), ("b1", w2, w1, 1),
    ):
        shift = tuple(k * vj for vj in v)
        got, want = grids.lookup(name), cell_map(fine, coarse, shift)
        tables = [axis_cell_map(f, c, sj) for f, c, sj in zip(fine.axes, coarse.axes, shift)]
        for cell in fine.cells():
            assert got(cell) == want(cell) == tuple(t[i] for t, i in zip(tables, cell))
            # point location, independent of the shared table builder
            point = tuple(x + sj for x, sj in zip(fine.representative(cell), shift))
            assert got(cell) == coarse.cell_of(point)


# -- pinned results ------------------------------------------------------------------


def _pinned_pair(i):
    """Seeded pair i: p alternates 2, 3; pairs 2 and 3 of every four are
    2-D; G is a translate of F or an independent draw."""
    rng = random.Random(f"pinned:{i}")
    p = (2, 3)[i % 2]
    if i % 4 >= 2:
        cx = _quad_cx([Fraction(rng.randint(-2, 2), 2)], [Fraction(rng.randint(-2, 2), 2)])
    else:
        cx = _line_cx(sorted(rng.sample([Fraction(n, 2) for n in range(-3, 4)], 2)))
    max_dim = 1 if cx.dim == 2 else 2
    F = random_module(cx, p, rng.randrange(10**6), max_dim=max_dim)
    if rng.random() < 0.5:
        G = shift_module(F, tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(cx.dim)))
    else:
        G = random_module(cx, p, rng.randrange(10**6), max_dim=max_dim)
    v0 = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(cx.dim))
    return F, G, v0


# (pair, budget): pairs 0-39 mix both fields, both dimensions, both modes,
# probe hits on either side and presample sweeps; 267 and 931 sweep at
# p = 3 (931 on the g side); the rest end in budget refusals
_PINNED = [(i, 8) for i in range(40)] + [(267, 8), (931, 8), (384, 8), (592, 8), (24, 3), (116, 3)]
_PINNED_DIGEST = "1312aa21411b96d67c48fa06d7c8e6179bfd5f8d6d65c09c10e6690ca750682c"


def _pinned_record(i, budget):
    F, G, v0 = _pinned_pair(i)
    mode = "bracketed" if i % 3 == 2 else "exact"
    try:
        r = interleaving_distance(F, G, v0, mode=mode, tol=Fraction(1, 4), budget=budget)
    except BudgetExceededError as e:
        return {"refused": [e.required, e.budget, str(e.known_false), str(e.known_true)]}
    return {
        "result": [str(r.value), r.attained, r.bracket and [str(x) for x in r.bracket],
                   str(r.witness_parameter)],
        "witness": r.witness and document_for(r.witness),
    }


def test_pinned_results():
    # values, brackets, witness parameters, witness documents and refusals
    # of fixed seeded pairs; changing the probe sides, the probe seed or
    # the presample seed changes the digest.  No pair here sweeps past the
    # presample, so the odometer order is not pinned
    records = [_pinned_record(i, budget) for i, budget in _PINNED]
    assert sum("refused" in r for r in records) >= 2
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _PINNED_DIGEST
