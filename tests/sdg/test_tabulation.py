"""RHS tabulation tests: context-sensitive reachability over the VFG."""

from repro.sdg import RuleAdapter, Tabulator
from repro.sdg.tabulation import Meta
from repro.taint.rules import SecurityRule
from tests.sdg.test_noheap import build


def make_rule(**kwargs):
    base = dict(name="T", sources={"Src.get"},
                sanitizers={"San.clean"},
                sinks={"Snk.put": (0,)})
    base.update(kwargs)
    return SecurityRule(**base)


LIB_EXTRA = """
library class Src { native Object get(); }
library class San { native static Object clean(Object o); }
library class Snk { native void put(Object o); }
"""


def tabulate(source, rule=None, seeds=None):
    program, analysis, sdg = build(LIB_EXTRA + source)
    rule = rule or make_rule()
    hits = []

    def on_hit(origin, hit):
        hits.append((origin, hit))

    tab = Tabulator(sdg, RuleAdapter(sdg, rule), on_hit)
    for idx, (method, var) in enumerate(seeds):
        tab.seed_origin(f"src:{idx}:{method}", method, var)
    tab.run()
    return hits, tab


def sink_hits(hits):
    return [(o, h) for o, h in hits if h.kind == "sink"]


def test_direct_flow_to_sink():
    hits, _ = tabulate("""
class Main {
  static void main() {
    Src s = new Src();
    Snk k = new Snk();
    Object v = s.get();
    k.put(v);
  }
}""", seeds=[("Main.main/0", "v.1")])
    assert len(sink_hits(hits)) == 1


def test_sanitizer_cuts_flow():
    hits, _ = tabulate("""
class Main {
  static void main() {
    Src s = new Src();
    Snk k = new Snk();
    Object v = San.clean(s.get());
    k.put(v);
  }
}""", seeds=[("Main.main/0", "%t2.1")])
    # seed the raw source result; the sanitizer blocks it.
    assert not sink_hits(hits)


def test_flow_through_callee_and_back():
    hits, _ = tabulate("""
class H { Object id(Object o) { return o; } }
class Main {
  static void main() {
    Src s = new Src();
    Snk k = new Snk();
    H h = new H();
    Object v = s.get();
    Object w = h.id(v);
    k.put(w);
  }
}""", seeds=[("Main.main/0", "v.1")])
    assert len(sink_hits(hits)) == 1


def test_call_return_matching_is_context_sensitive():
    """Tainted data entering id() at one site must not exit at another."""
    hits, _ = tabulate("""
class H { Object id(Object o) { return o; } }
class Main {
  static void main() {
    Src s = new Src();
    Snk k1 = new Snk();
    Snk k2 = new Snk();
    H h = new H();
    Object dirty = s.get();
    Object a = h.id(dirty);
    Object clean = new Object();
    Object b = h.id(clean);
    k1.put(a);
    k2.put(b);
  }
}""", seeds=[("Main.main/0", "dirty.1")])
    sinks = sink_hits(hits)
    assert len(sinks) == 1  # only k1.put(a)


def test_unbalanced_return_reaches_all_callers():
    """A flow starting inside a callee exits to every caller."""
    hits, _ = tabulate("""
class H {
  Object fetch() {
    Src s = new Src();
    return s.get();
  }
}
class Main {
  static void main() {
    H h = new H();
    Snk k = new Snk();
    Object v = h.fetch();
    k.put(v);
  }
}""", seeds=[("H.fetch/0", "%t1.1")])
    assert len(sink_hits(hits)) == 1


def test_store_hit_reported():
    hits, _ = tabulate("""
class Box { Object f; }
class Main {
  static void main() {
    Src s = new Src();
    Box box = new Box();
    Object v = s.get();
    box.f = v;
  }
}""", seeds=[("Main.main/0", "v.1")])
    stores = [(o, h) for o, h in hits if h.kind == "store"]
    assert len(stores) == 1
    assert stores[0][1].store.fld == "f"


def test_store_base_formal_resolved_to_caller_actual():
    hits, _ = tabulate("""
class Box {
  Object f;
  void set(Object v) { this.f = v; }
}
class Main {
  static void main() {
    Src s = new Src();
    Box dirty = new Box();
    Box clean = new Box();
    Object v = s.get();
    dirty.set(v);
  }
}""", seeds=[("Main.main/0", "v.1")])
    stores = [(o, h) for o, h in hits if h.kind == "store"]
    assert stores
    hit = stores[0][1]
    assert hit.eff_base is not None
    method, var = hit.eff_base
    assert method == "Main.main/0"
    assert var.startswith("dirty.")


def test_steps_metadata_grows_along_flow():
    hits, _ = tabulate("""
class Main {
  static void main() {
    Src s = new Src();
    Snk k = new Snk();
    Object v = s.get();
    Object a = v;
    Object b = a;
    Object c = b;
    k.put(c);
  }
}""", seeds=[("Main.main/0", "v.1")])
    sinks = sink_hits(hits)
    assert sinks[0][1].meta.steps >= 3


def test_origin_attribution_is_per_seed():
    hits, _ = tabulate("""
class Main {
  static void main() {
    Src s1 = new Src();
    Src s2 = new Src();
    Snk k = new Snk();
    Object v1 = s1.get();
    Object v2 = s2.get();
    k.put(v1);
    k.put(v2);
  }
}""", seeds=[("Main.main/0", "v1.1"), ("Main.main/0", "v2.1")])
    origins = {o for o, _ in sink_hits(hits)}
    assert len(origins) == 2


def test_recursion_terminates():
    hits, _ = tabulate("""
class R {
  Object spin(Object o, int n) {
    if (n > 0) { return this.spin(o, n - 1); }
    return o;
  }
}
class Main {
  static void main() {
    Src s = new Src();
    Snk k = new Snk();
    R r = new R();
    Object v = s.get();
    Object w = r.spin(v, 5);
    k.put(w);
  }
}""", seeds=[("Main.main/0", "v.1")])
    assert len(sink_hits(hits)) == 1


def test_meta_extend_preserves_transitions():
    meta = Meta(3, None, 2)
    longer = meta.extend(4)
    assert longer.steps == 7
    assert longer.transitions == 2
    assert Meta(1).transitions == 0
