"""Smoke tests for the randomized cross-validation suites.

The acceptance tests run these suites at their mandated sample sizes;
here each suite runs for a handful of seeds to pin the result shape,
determinism, and the ok flag on healthy inputs.
"""
import itertools

import pytest

from conepersist import checks
from conepersist.checks import SUITES, run_suite
from conepersist.interleave import BudgetExceededError


def test_suite_registry():
    assert sorted(SUITES) == ["conv-vs-int", "ephemeral", "gauge", "isometry", "serre"]


def test_isometry_suite():
    for i, result in run_suite("isometry", 0, 4):
        assert result["ok"], result
        assert result["ambient"] == result["stabilized"]


def test_ephemeral_suite():
    for i, result in run_suite("ephemeral", 0, 6):
        assert result["ok"], result
        assert result["cells"] == result["criterion"] == (result["distance"] == "0")


def test_gauge_suite():
    for i, result in run_suite("gauge", 0, 6):
        assert result["ok"], result
        assert result["certified"]


def test_conv_vs_int_suite():
    for i, result in run_suite("conv-vs-int", 0, 4):
        assert result["ok"], result
        for row in result["per_gauge"]:
            assert row["equal"]
            assert row["convolution"] == row["interleaving"]


def test_serre_suite():
    for i, result in run_suite("serre", 0, 5):
        assert result["ok"], result
        assert result["failures"] == []
        assert set(result["dims"]) == {"kernel", "middle", "image"}


def test_suites_accept_other_fields():
    for name in ("isometry", "ephemeral", "serre", "conv-vs-int"):
        for i, result in run_suite(name, 0, 2, field=5):
            assert result["ok"], (name, result)


def test_suite_results_are_reproducible():
    for name in SUITES:
        a = list(run_suite(name, 3, 2))
        b = list(run_suite(name, 3, 2))
        assert a == b


@pytest.mark.parametrize(
    "case, name", [(checks.isometry_case, "isometry_check"), (checks.conv_vs_int_case, "compare_with_interleaving")]
)
def test_budget_refusals_redraw_the_case(monkeypatch, case, name):
    real = getattr(checks, name)

    def refusing(k):
        """The search, refusing its first k calls (every call for None)."""
        calls = itertools.count()

        def search(*args, **kwargs):
            if k is None or next(calls) < k:
                raise BudgetExceededError(21, 20)
            return real(*args, **kwargs)

        return search

    # a refusal at the first search of a draw moves on to the next draw
    for k in (1, 3):
        monkeypatch.setattr(checks, name, refusing(k))
        result = case(5)
        assert result["ok"] and result["attempt"] == k, result
    monkeypatch.setattr(checks, name, refusing(None))
    assert case(5) == {"ok": False, "error": "budget exhausted on every draw"}
