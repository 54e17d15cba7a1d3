"""Online cycle elimination: union-find, SCC detection, solver merges."""

from repro.bounds import Budget
from repro.ir import validate_program
from repro.lang import lower_source
from repro.pointer import (ContextPolicy, PointerAnalysis, UnionFind,
                           copy_cycles)
from repro.pointer.contexts import EMPTY

LIB = """
library class Object { }
"""


def analyze(source, entry="Main.main/0", lcd_batch=None):
    program = lower_source(LIB + source)
    program.entrypoints.append(entry)
    from repro.ssa import program_to_ssa
    program_to_ssa(program)
    validate_program(program)
    analysis = PointerAnalysis(program, ContextPolicy(), budget=Budget())
    if lcd_batch is not None:
        analysis.LCD_BATCH = lcd_batch
    analysis.solve()
    return analysis


# -- UnionFind ---------------------------------------------------------------

def test_find_returns_unmerged_key_itself():
    uf = UnionFind()
    assert uf.find("a") == "a"
    assert uf.merged_count() == 0


def test_union_returns_winner_and_loser():
    uf = UnionFind()
    winner, loser = uf.union("a", "b")
    assert {winner, loser} == {"a", "b"}
    assert winner != loser
    assert uf.find("a") == uf.find("b") == winner
    assert uf.merged_count() == 1
    assert set(uf.merged_keys()) == {loser}


def test_union_is_idempotent():
    uf = UnionFind()
    winner, _ = uf.union("a", "b")
    again_winner, again_loser = uf.union("a", "b")
    assert again_winner == again_loser == winner
    assert uf.merged_count() == 1


def test_transitive_unions_share_one_representative():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("c", "d")
    uf.union("b", "d")
    root = uf.find("a")
    assert all(uf.find(k) == root for k in "abcd")
    assert uf.same("a", "d")
    assert not uf.same("a", "e")


def test_path_compression_flattens_chains():
    uf = UnionFind()
    for a, b in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]:
        uf.union(a, b)
    root = uf.find("e")
    # After find, every merged key points directly at the root.
    assert all(uf._parent[k] == root for k in uf.merged_keys())


# -- copy_cycles -------------------------------------------------------------

def _find(key):
    return key


def test_detects_simple_cycle():
    succs = {"a": ["b"], "b": ["c"], "c": ["a"]}
    [comp] = copy_cycles(succs, _find)
    assert set(comp) == {"a", "b", "c"}


def test_ignores_acyclic_graph_and_self_loops():
    succs = {"a": ["b", "a"], "b": ["c"], "c": []}
    assert copy_cycles(succs, _find) == []


def test_finds_multiple_disjoint_cycles():
    succs = {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"], "e": ["a"]}
    comps = {frozenset(c) for c in copy_cycles(succs, _find)}
    assert comps == {frozenset("ab"), frozenset("cd")}


def test_roots_restrict_the_sweep():
    succs = {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]}
    comps = {frozenset(c) for c in copy_cycles(succs, _find, roots=["a"])}
    assert comps == {frozenset("ab")}


def test_stale_successors_are_normalized():
    uf = UnionFind()
    winner, loser = uf.union("b1", "b2")
    # "a" still lists the merged-away alias; find() must normalize it.
    succs = {"a": [loser], winner: ["a"]}
    [comp] = copy_cycles(succs, uf.find)
    assert set(comp) == {"a", winner}


# -- solver integration ------------------------------------------------------

CYCLE_SOURCE = """
class A { }
class Main {
  static void main() {
    Object a = new A();
    Object b = a;
    Object c = b;
    for (int i = 0; i < 3; i++) {
      a = c;
      b = a;
      c = b;
    }
  }
}
"""


def test_loop_carried_copy_cycle_is_collapsed():
    pa = analyze(CYCLE_SOURCE, lcd_batch=1)
    assert pa.stats["cycles_collapsed"] >= 1
    assert pa.stats["keys_merged"] >= 2
    # Merged-away keys resolve to representatives outside their own set
    # (a representative is never itself merged away)...
    merged = list(pa._scc.merged_keys())
    assert len(merged) >= 2
    reps = {pa.representative(k) for k in merged}
    assert reps.isdisjoint(merged)
    # ...and every key still reports the full points-to set.
    for key in merged:
        assert pa.points_to(key) == pa.points_to(pa.representative(key))


def test_collapse_preserves_points_to_of_all_locals():
    """Eager mid-drain collapse (batch=1) and the lazy solve()-end
    residual flush (batch too large to ever fire mid-drain) must reach
    the identical fixpoint."""
    collapsed = analyze(CYCLE_SOURCE, lcd_batch=1)
    plain = analyze(CYCLE_SOURCE, lcd_batch=10 ** 9)
    canon = lambda pa: {str(k): frozenset(str(i) for i in pts)
                        for k, pts in pa.iter_pts() if pts}
    assert canon(collapsed) == canon(plain)


def test_points_to_returns_immutable_copy():
    pa = analyze(CYCLE_SOURCE, lcd_batch=1)
    key = pa.keys.local("Main.main/0", EMPTY, "a.1")
    view = pa.points_to(key)
    assert isinstance(view, frozenset)
    assert view
    # The decoded view must agree with the internal bitset (shared by the
    # whole collapsed cycle), and the bitset itself must not leak.
    internal = pa.pts.get(pa.representative(key))
    assert isinstance(internal, int)
    assert view == frozenset(pa.keys.decode(internal))
    assert pa.points_to_bits(key) == internal


def test_merged_keys_still_enumerate_via_iter_pts():
    pa = analyze(CYCLE_SOURCE, lcd_batch=1)
    seen = {str(k) for k, pts in pa.iter_pts() if pts}
    for var in ("a.1", "b.1", "c.1"):
        assert f"Main.main/0<ε>::{var}" in seen


def test_cycle_statistics_are_exposed():
    pa = analyze(CYCLE_SOURCE, lcd_batch=1)
    for stat in ("cycles_collapsed", "keys_merged", "coalesced_deltas",
                 "scc_runs", "propagations", "edges"):
        assert stat in pa.stats
    assert pa.stats["scc_runs"] >= 1
    assert set(pa.phase_seconds) == {"constraint_adding",
                                     "constraint_solving"}
