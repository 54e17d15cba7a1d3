"""Budget-object tests."""

from dataclasses import replace

import pytest

from repro.bounds import Budget, BudgetExhausted, StateMeter, UNBOUNDED


def test_unbounded_has_no_limits():
    assert UNBOUNDED.max_cg_nodes is None
    assert UNBOUNDED.max_state_units is None


def test_copy_is_independent():
    budget = Budget(max_cg_nodes=5)
    clone = replace(budget)
    clone.max_cg_nodes = 9
    assert budget.max_cg_nodes == 5


def test_meter_charges_and_raises():
    meter = StateMeter(3)
    meter.charge()
    meter.charge(2)
    assert meter.used == 3
    with pytest.raises(BudgetExhausted) as exc:
        meter.charge()
    assert exc.value.dimension == "state_units"
    assert exc.value.limit == 3


def test_meter_unlimited():
    meter = StateMeter(None)
    meter.charge(10 ** 6)
    assert meter.used == 10 ** 6


def test_exhausted_message():
    err = BudgetExhausted("state_units", 42)
    assert "state_units" in str(err) and "42" in str(err)
