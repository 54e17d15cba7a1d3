"""Direct-edge (HSDG) tests."""

from repro.sdg import DirectEdges
from tests.sdg.test_noheap import build


def edges_for(source):
    program, analysis, sdg = build(source)
    return sdg, DirectEdges(sdg, analysis)


def test_store_matches_aliased_load():
    sdg, direct = edges_for("""
class Box { Object f; }
class Main {
  static void main() {
    Box b = new Box();
    b.f = new Object();
    Object x = b.f;
  }
}""")
    store = sdg.stores_by_field["f"][0]
    loads = direct.loads_for_store(store)
    assert len(loads) == 1
    assert loads[0].fld == "f"


def test_store_does_not_match_other_field():
    sdg, direct = edges_for("""
class Box { Object f; Object g; }
class Main {
  static void main() {
    Box b = new Box();
    b.f = new Object();
    Object x = b.g;
  }
}""")
    store = sdg.stores_by_field["f"][0]
    assert direct.loads_for_store(store) == []


def test_store_does_not_match_unaliased_base():
    sdg, direct = edges_for("""
class Box { Object f; }
class Main {
  static void main() {
    Box b1 = new Box();
    Box b2 = new Box();
    b1.f = new Object();
    Object x = b2.f;
  }
}""")
    store = sdg.stores_by_field["f"][0]
    assert direct.loads_for_store(store) == []


def test_static_fields_match_by_identity():
    sdg, direct = edges_for("""
class Reg { static Object slot; static Object other; }
class Main {
  static void main() {
    Reg.slot = new Object();
    Object a = Reg.slot;
    Object b = Reg.other;
  }
}""")
    store = sdg.stores_by_field["static:Reg.slot"][0]
    loads = direct.loads_for_store(store)
    assert len(loads) == 1


def test_eff_base_override_narrows_matching():
    sdg, direct = edges_for("""
class Box {
  Object f;
  void set(Object v) { this.f = v; }
}
class Main {
  static void main() {
    Box b1 = new Box();
    Box b2 = new Box();
    b1.set(new Object());
    b2.set(new Object());
    Object x = b2.f;
  }
}""")
    store = sdg.stores_by_field["f"][0]   # this.f = v inside set()
    # Collapsed base ("this" over both call contexts) aliases both boxes.
    assert direct.loads_for_store(store)
    # The clone-precise base (b1 at the caller) does not alias b2.
    assert direct.loads_for_store(
        store, eff_base=("Main.main/0", "b1.1")) == []


def test_points_to_is_cached():
    sdg, direct = edges_for("""
class Main {
  static void main() { Object o = new Object(); }
}""")
    calls = []
    solver_bits = direct.analysis.points_to_var_bits

    def counting(method, var):
        calls.append((method, var))
        return solver_bits(method, var)

    direct.analysis.points_to_var_bits = counting
    first = direct.points_to_bits("Main.main/0", "o.1")
    second = direct.points_to_bits("Main.main/0", "o.1")
    assert first == second and first.bit_count() == 1
    assert calls == [("Main.main/0", "o.1")]
