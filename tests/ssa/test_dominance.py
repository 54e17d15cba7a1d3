"""Dominator-tree and dominance-frontier tests of the reference SSA
construction's :class:`DominatorTree`, plus reverse postorder."""

from repro.ssa import reverse_postorder
from tests.conftest import lower_mini
from tests.ssa.reference_ssa import DominatorTree

DIAMOND = """
class C {
  int m(int p) {
    int x = 0;
    if (p > 0) { x = 1; } else { x = 2; }
    return x;
  }
}"""

LOOP = """
class C {
  int m(int p) {
    int x = 0;
    while (x < p) { x = x + 1; }
    return x;
  }
}"""


def method_of(source, qname="C.m/1"):
    return lower_mini(source).lookup_method(qname)


def test_rpo_starts_at_entry():
    method = method_of(DIAMOND)
    order = reverse_postorder(method)
    assert order[0] == method.entry_block
    assert set(order) == set(method.blocks)


def test_entry_dominates_everything():
    method = method_of(DIAMOND)
    dom = DominatorTree(method)
    for bid in method.blocks:
        assert dom.dominates(method.entry_block, bid)


def test_diamond_join_dominated_by_entry_not_branches():
    method = method_of(DIAMOND)
    dom = DominatorTree(method)
    # Find the join block: two predecessors.
    joins = [bid for bid, b in method.blocks.items() if len(b.preds) == 2]
    assert joins
    join = joins[0]
    then_b, else_b = method.blocks[method.entry_block].succs
    assert not dom.dominates(then_b, join)
    assert not dom.dominates(else_b, join)
    assert dom.idom[join] == method.entry_block


def test_diamond_frontier_is_join():
    method = method_of(DIAMOND)
    dom = DominatorTree(method)
    joins = [bid for bid, b in method.blocks.items() if len(b.preds) == 2]
    then_b, else_b = method.blocks[method.entry_block].succs
    assert dom.frontier[then_b] == {joins[0]}
    assert dom.frontier[else_b] == {joins[0]}


def test_loop_header_in_own_body_frontier():
    method = method_of(LOOP)
    dom = DominatorTree(method)
    headers = [bid for bid, b in method.blocks.items()
               if len(b.preds) == 2]
    assert headers
    header = headers[0]
    body = [s for s in method.blocks[header].succs
            if header in dom.frontier.get(s, set())]
    assert body  # the loop body's frontier contains the header


def test_dominates_is_reflexive():
    method = method_of(LOOP)
    dom = DominatorTree(method)
    for bid in method.blocks:
        assert dom.dominates(bid, bid)


def test_dom_tree_preorder_covers_all_blocks():
    method = method_of(LOOP)
    dom = DominatorTree(method)
    order = dom.dom_tree_preorder()
    assert set(order) == set(method.blocks)
    assert order[0] == method.entry_block


def test_children_partition():
    method = method_of(DIAMOND)
    dom = DominatorTree(method)
    seen = set()
    for kids in dom.children.values():
        for kid in kids:
            assert kid not in seen
            seen.add(kid)
    assert seen == set(method.blocks) - {method.entry_block}
