"""Pointer-analysis solver tests."""

from repro.bounds import Budget
from repro.ir import validate_program
from repro.lang import lower_source
from repro.pointer import (ContextPolicy, EMPTY, PointerAnalysis,
                           PolicyConfig)
from repro.ssa import program_to_ssa

LIB = """
library class Object { }
"""


def analyze(source, policy=None, entry="Main.main/0", budget=None,
            excluded=None):
    program = lower_source(LIB + source)
    program.entrypoints.append(entry)
    program_to_ssa(program)
    validate_program(program)
    analysis = PointerAnalysis(
        program, policy or ContextPolicy(),
        budget=budget or Budget(),
        excluded_classes=excluded or set())
    analysis.solve()
    return analysis


def classes_of(analysis, method, var):
    return {k.class_name for k in analysis.points_to_var(method, var)}


def test_allocation_flows_to_local():
    pa = analyze("""
class A { }
class Main { static void main() { A a = new A(); } }""")
    assert classes_of(pa, "Main.main/0", "a.1") == {"A"}


def test_copy_propagates():
    pa = analyze("""
class A { }
class Main { static void main() { A a = new A(); A b = a; } }""")
    assert classes_of(pa, "Main.main/0", "b.1") == {"A"}


def test_field_store_load():
    pa = analyze("""
class A { }
class Box { Object f; }
class Main {
  static void main() {
    Box box = new Box();
    box.f = new A();
    Object out = box.f;
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_field_sensitivity_distinguishes_fields():
    pa = analyze("""
class A { }
class B { }
class Box { Object f; Object g; }
class Main {
  static void main() {
    Box box = new Box();
    box.f = new A();
    box.g = new B();
    Object out = box.f;
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_distinct_allocation_sites_not_conflated():
    pa = analyze("""
class A { }
class B { }
class Box { Object f; }
class Main {
  static void main() {
    Box b1 = new Box();
    Box b2 = new Box();
    b1.f = new A();
    b2.f = new B();
    Object out = b1.f;
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_static_field_flow():
    pa = analyze("""
class A { }
class Reg { static Object slot; }
class Main {
  static void main() {
    Reg.slot = new A();
    Object out = Reg.slot;
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_array_contents_flow():
    pa = analyze("""
class A { }
class Main {
  static void main() {
    Object[] arr = new Object[2];
    arr[0] = new A();
    Object out = arr[1];
  }
}""")
    # Array elements are collapsed: any index reads any element.
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_call_graph_built_on_the_fly():
    pa = analyze("""
class A { void go() { } }
class Main {
  static void main() { A a = new A(); a.go(); }
}""")
    assert "A.go/0" in pa.call_graph.reachable_methods()


def test_virtual_dispatch_by_receiver_type():
    pa = analyze("""
class Animal { Object speak() { return new Object(); } }
class Dog extends Animal { Object speak() { return new Dog(); } }
class Main {
  static void main() {
    Animal a = new Dog();
    Object out = a.speak();
  }
}""")
    assert "Dog.speak/0" in pa.call_graph.reachable_methods()
    assert "Animal.speak/0" not in pa.call_graph.reachable_methods()
    assert classes_of(pa, "Main.main/0", "out.1") == {"Dog"}


def test_return_value_flows_to_caller():
    pa = analyze("""
class A { }
class F { Object mk() { return new A(); } }
class Main {
  static void main() {
    F f = new F();
    Object out = f.mk();
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_parameter_flows_into_callee():
    pa = analyze("""
class A { }
class Sink { Object keep(Object o) { return o; } }
class Main {
  static void main() {
    Sink s = new Sink();
    Object out = s.keep(new A());
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_object_sensitivity_separates_receivers():
    source = """
class Box {
  Object item;
  void set(Object o) { this.item = o; }
  Object get() { return this.item; }
}
class A { }
class B { }
class Main {
  static void main() {
    Box b1 = new Box();
    Box b2 = new Box();
    b1.set(new A());
    b2.set(new B());
    Object x = b1.get();
  }
}"""
    precise = analyze(source)
    assert classes_of(precise, "Main.main/0", "x.1") == {"A"}
    sloppy = analyze(source,
                     ContextPolicy(PolicyConfig.insensitive()))
    assert classes_of(sloppy, "Main.main/0", "x.1") == {"A", "B"}


def test_factory_call_strings_separate_sites():
    source = """
class Widget { }
library class F {
  static Widget create() { return new Widget(); }
}
class Holder { Object w; }
class Main {
  static void main() {
    Widget w1 = F.create();
    Widget w2 = F.create();
    Holder h1 = new Holder();
    Holder h2 = new Holder();
    h1.w = w1;
    h2.w = w2;
  }
}"""
    precise = analyze(source)
    w1 = precise.points_to_var("Main.main/0", "w1.1")
    w2 = precise.points_to_var("Main.main/0", "w2.1")
    assert w1 and w2 and not (w1 & w2), "factory results disambiguated"
    sloppy = analyze(source, ContextPolicy(PolicyConfig.insensitive()))
    s1 = sloppy.points_to_var("Main.main/0", "w1.1")
    s2 = sloppy.points_to_var("Main.main/0", "w2.1")
    assert s1 == s2


def test_recursion_terminates():
    pa = analyze("""
class A { }
class R {
  Object rec(int n) {
    if (n > 0) { return this.rec(n - 1); }
    return new A();
  }
}
class Main {
  static void main() {
    R r = new R();
    Object out = r.rec(3);
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_call_graph_node_budget_truncates():
    source = """
class A { }
""" + "\n".join(
        f"class C{i} {{ static void go() {{ C{i+1}.go(); }} }}"
        for i in range(20)) + """
class C20 { static void go() { } }
class Main { static void main() { C0.go(); } }"""
    pa = analyze(source, budget=Budget(max_cg_nodes=5))
    assert pa.truncated
    assert pa.call_graph.node_count() <= 6  # slight overshoot allowed


def test_whitelist_excludes_callee():
    pa = analyze("""
class A { }
class Noisy { static void log(Object o) { } }
class Main {
  static void main() { Noisy.log(new A()); }
}""", excluded={"Noisy"})
    assert "Noisy.log/1" not in pa.call_graph.reachable_methods()


def test_interface_dispatch():
    pa = analyze("""
interface Maker { Object mk(); }
class A { }
class Impl implements Maker {
  public Object mk() { return new A(); }
}
class Main {
  static void main() {
    Impl m = new Impl();
    Object out = m.mk();
  }
}""")
    assert classes_of(pa, "Main.main/0", "out.1") == {"A"}


def test_cast_preserves_points_to():
    pa = analyze("""
class A { }
class Main {
  static void main() {
    Object o = new A();
    A a = (A) o;
  }
}""")
    assert classes_of(pa, "Main.main/0", "a.1") == {"A"}


def test_select_unions_operands():
    # Select is only emitted by model passes; exercise it via the solver
    # API directly.
    from repro.ir import Select
    pa = analyze("""
class A { }
class B { }
class Main {
  static void main() {
    Object a = new A();
    Object b = new B();
  }
}""")
    # simulate: add a Select-like union via copy edges
    ka = pa.keys.local("Main.main/0", EMPTY, "a.1")
    kb = pa.keys.local("Main.main/0", EMPTY, "b.1")
    kc = pa.keys.local("Main.main/0", EMPTY, "c")
    pa.add_copy_edge(ka, kc)
    pa.add_copy_edge(kb, kc)
    pa._solve_constraints()
    assert {k.class_name for k in pa.points_to(kc)} == {"A", "B"}


# A loop-carried copy cycle: a -> b -> c -> a through the loop's phis.
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


def test_points_to_returns_immutable_copy():
    pa = analyze(CYCLE_SOURCE)
    key = pa.keys.local("Main.main/0", EMPTY, "a.1")
    view = pa.points_to(key)
    assert isinstance(view, frozenset)
    assert view
    # The decoded view must agree with the internal bitset, and the
    # bitset itself must not leak.
    internal = pa.pts.get(key)
    assert isinstance(internal, int)
    assert view == frozenset(pa.keys.decode(internal))
    assert pa.points_to_bits(key) == internal


def test_kernel_statistics_are_exposed():
    pa = analyze(CYCLE_SOURCE)
    assert set(pa.stats) == {"propagations", "edges", "nodes_processed",
                             "coalesced_deltas"}
    assert pa.stats["propagations"] > 0
    assert set(pa.phase_seconds) == {"constraint_adding",
                                     "constraint_solving"}


def test_cycle_keys_enumerate_via_iter_pts():
    pa = analyze(CYCLE_SOURCE)
    seen = {str(k) for k, pts in pa.iter_pts() if pts}
    for var in ("a.1", "b.1", "c.1", "a.2", "b.2", "c.2", "c.3"):
        assert f"Main.main/0<ε>::{var}" in seen


def test_allocation_entering_a_copy_cycle_reaches_every_member():
    pa = analyze("""
class A { }
class B { }
class Main {
  static void main() {
    Object a = new A();
    Object b = a;
    Object c = b;
    for (int i = 0; i < 3; i++) {
      a = c;
      b = a;
      if (i == 1) {
        b = new B();
      }
      c = b;
    }
  }
}""")
    # B enters the cycle c.2 -> a.2 -> b.2 -> b.4 -> c.3 -> c.2 at the
    # phi b.4 and must travel all the way round; the locals before the
    # loop only see A.
    cycle = ("c.2", "a.2", "b.2", "b.4", "c.3")
    for var in cycle:
        assert classes_of(pa, "Main.main/0", var) == {"A", "B"}, var
    for var in ("a.1", "b.1", "c.1"):
        assert classes_of(pa, "Main.main/0", var) == {"A"}, var
    bits = {pa.points_to_bits(pa.keys.local("Main.main/0", EMPTY, var))
            for var in cycle}
    assert len(bits) == 1
