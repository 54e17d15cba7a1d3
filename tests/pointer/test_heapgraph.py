"""Heap-graph tests (paper §4.1.1); sets of instance keys are bitsets."""

from repro.pointer import HeapGraph
from tests.pointer.test_solver import analyze


def build():
    pa = analyze("""
class Leaf { }
class Inner { Object leaf; }
class Outer { Object inner; }
class Main {
  static void main() {
    Outer o = new Outer();
    Inner i = new Inner();
    Leaf l = new Leaf();
    o.inner = i;
    i.leaf = l;
  }
}""")
    hg = HeapGraph(pa)
    outer = next(iter(pa.points_to_var("Main.main/0", "o.1")))
    inner = next(iter(pa.points_to_var("Main.main/0", "i.1")))
    leaf = next(iter(pa.points_to_var("Main.main/0", "l.1")))
    return hg, outer, inner, leaf


def test_successors_one_step():
    hg, outer, inner, leaf = build()
    # One field dereference adds exactly each object's successors.
    assert hg.reachable_bits(outer.bit, max_depth=1) & ~outer.bit == \
        inner.bit
    assert hg.reachable_bits(inner.bit, max_depth=1) & ~inner.bit == \
        leaf.bit
    assert hg.reachable_bits(leaf.bit, max_depth=1) == leaf.bit


def test_reachable_unbounded():
    hg, outer, inner, leaf = build()
    assert hg.reachable_bits(outer.bit) == \
        outer.bit | inner.bit | leaf.bit


def test_reachable_depth_zero_is_roots_only():
    hg, outer, inner, leaf = build()
    assert hg.reachable_bits(outer.bit, max_depth=0) == outer.bit


def test_reachable_depth_one():
    hg, outer, inner, leaf = build()
    assert hg.reachable_bits(outer.bit, max_depth=1) == \
        outer.bit | inner.bit


def test_reachable_depth_two_covers_all():
    hg, outer, inner, leaf = build()
    assert hg.reachable_bits(outer.bit, max_depth=2) == \
        outer.bit | inner.bit | leaf.bit


def test_reachable_multiple_roots():
    hg, outer, inner, leaf = build()
    assert hg.reachable_bits(inner.bit | leaf.bit, max_depth=0) == \
        inner.bit | leaf.bit


def test_cycle_terminates():
    pa = analyze("""
class Node { Object next; }
class Main {
  static void main() {
    Node a = new Node();
    Node b = new Node();
    a.next = b;
    b.next = a;
  }
}""")
    hg = HeapGraph(pa)
    a = next(iter(pa.points_to_var("Main.main/0", "a.1")))
    assert hg.reachable_bits(a.bit).bit_count() == 2
