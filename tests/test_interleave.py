"""Interleaving decision and distance, cross-checked against a raw oracle."""
import random
from fractions import Fraction

import pytest

from conepersist.arrangement import CellComplex
from conepersist.cone import ConeSpec
from conepersist.exactla import FieldMat
from conepersist import interleave
from conepersist.interleave import (
    BudgetExceededError,
    InterleavingWitness,
    interleaving_distance,
    inter_probe,
    is_interleaved,
    isometry_check,
    zero_interleaving_criterion,
)
from conepersist.persist import (
    ArrModule,
    direct_sum,
    point_module,
    principal_module,
    random_module,
    shift_module,
    zero_module,
)

from oracles import raw_is_interleaved


def _line():
    return ConeSpec(normals=[(-1,)], generators=[(-1,)])


def _line_cx(breaks=(0,)):
    return CellComplex(_line(), [list(breaks)])


def _quad_cx():
    quad = ConeSpec(normals=[(-1, 0), (0, -1)], generators=[(-1, 0), (0, -1)])
    return CellComplex(quad, [[0], [0]])


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
    cx = _line_cx((0, 1))
    F = random_module(cx, 2, 30)
    G = random_module(cx, 2, 1030)
    with pytest.raises(BudgetExceededError) as e:
        is_interleaved(F, G, (Fraction(1, 2),), budget=0)
    assert e.value.required > e.value.budget == 0


def test_budget_error_carries_known_bounds():
    cx = _line_cx((0, 1))
    F = random_module(cx, 2, 63)
    G = random_module(cx, 2, 563)
    assert interleaving_distance(F, G, (1,)).value == 1
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


def test_inter_probe_reports_budget_inconclusive():
    cx = _line_cx((0, 1))
    F = random_module(cx, 2, 30)
    G = random_module(cx, 2, 1030)
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
