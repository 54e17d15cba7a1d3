"""Configuration preset tests (paper Table 1)."""

import pytest

from repro import TAJConfig, settings_matrix
from repro.core import (DEFAULT_CG_NODE_BOUND, DEFAULT_FLOW_LENGTH_BOUND,
                        DEFAULT_NESTED_DEPTH)


def test_five_presets():
    names = [c.name for c in TAJConfig.all_presets()]
    assert names == ["hybrid-unbounded", "hybrid-prioritized",
                     "hybrid-optimized", "cs", "ci"]


def test_unbounded_has_no_bounds():
    config = TAJConfig.hybrid_unbounded()
    budget = config.budget
    assert budget.max_cg_nodes is None
    assert budget.max_heap_transitions is None
    assert budget.max_flow_length is None
    assert not config.prioritized
    assert not config.use_whitelist


def test_prioritized_bounds_call_graph_only():
    config = TAJConfig.hybrid_prioritized()
    assert config.prioritized
    assert config.budget.max_cg_nodes == DEFAULT_CG_NODE_BOUND
    assert config.budget.max_heap_transitions is None
    assert not config.use_whitelist


def test_optimized_enables_everything():
    config = TAJConfig.hybrid_optimized()
    assert config.prioritized
    assert config.use_whitelist
    budget = config.budget
    assert budget.max_cg_nodes == DEFAULT_CG_NODE_BOUND
    assert budget.max_heap_transitions is not None
    assert budget.max_flow_length == DEFAULT_FLOW_LENGTH_BOUND
    assert budget.max_nested_depth == DEFAULT_NESTED_DEPTH


def test_cs_uses_memory_budget():
    config = TAJConfig.cs()
    assert config.slicing == "cs"
    assert config.budget.max_state_units is not None


def test_ci_pairs_with_insensitive_pointers():
    config = TAJConfig.ci()
    assert config.slicing == "ci"
    assert config.context_insensitive_pointers


def test_with_budget_returns_modified_copy():
    config = TAJConfig.hybrid_unbounded()
    tweaked = config.with_budget(max_flow_length=7)
    assert tweaked.budget.max_flow_length == 7
    assert config.budget.max_flow_length is None
    assert tweaked is not config
    assert tweaked.budget is not config.budget


def test_with_budget_rejects_an_unknown_bound():
    config = TAJConfig.hybrid_unbounded()
    with pytest.raises(TypeError):
        config.with_budget(max_flow_lenght=3)
    assert not hasattr(config.budget, "max_flow_lenght")


def test_settings_matrix_renders_table1():
    text = settings_matrix()
    for name in ("hybrid-unbounded", "hybrid-prioritized",
                 "hybrid-optimized", "cs", "ci"):
        assert name in text


def test_preset_bounds_overridable():
    config = TAJConfig.hybrid_optimized(max_cg_nodes=10,
                                        max_flow_length=99)
    assert config.budget.max_cg_nodes == 10
    assert config.budget.max_flow_length == 99
