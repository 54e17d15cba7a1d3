"""The call-graph SCC sweep behind the summary cache's transitive keys."""

from repro.summaries.keys import _cycles


def test_detects_simple_cycle():
    succs = {"a": ["b"], "b": ["c"], "c": ["a"]}
    [comp] = _cycles(succs)
    assert set(comp) == {"a", "b", "c"}


def test_ignores_acyclic_graph_and_self_loops():
    succs = {"a": ["b", "a"], "b": ["c"], "c": []}
    assert _cycles(succs) == []


def test_finds_multiple_disjoint_cycles():
    succs = {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"], "e": ["a"]}
    comps = {frozenset(c) for c in _cycles(succs)}
    assert comps == {frozenset("ab"), frozenset("cd")}


def test_deep_cycle_is_found_without_recursion():
    # Longer than Python's default recursion limit.
    n = 5000
    succs = {f"m{i}": [f"m{(i + 1) % n}"] for i in range(n)}
    [comp] = _cycles(succs)
    assert len(comp) == n


def test_callees_without_an_entry_are_leaves():
    succs = {"a": ["b", "lib"], "b": ["a"]}
    [comp] = _cycles(succs)
    assert set(comp) == {"a", "b"}
