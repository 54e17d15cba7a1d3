"""Synthetic web-application generator with ground truth.

Each generated application is a deterministic function of its
:class:`AppSpec` (sizes + trait knobs + RNG seed).  The generator plants
flows from a pattern library and records a :class:`PlantedFlow` for each,
so true/false positives are decidable mechanically — replacing the
paper's manual triage of the 22 industrial benchmarks.

Planting families (see DESIGN.md §4):

* ``tp``      — real source→sink flows a sound analysis must report:
  direct, through string builders, maps under constant keys, the heap,
  helper calls, long call chains, reflection, taint carriers;
* ``tp_deep`` — a carrier flow whose tainted data sits deeper than the
  §6.2.3 nested-taint bound (the optimized configuration misses it);
* ``tp_thread`` — a cross-thread flow (CS thin slicing misses it);
* ``san``     — sanitized variants: reporting one is a false positive;
* ``decoy_*`` — sanitize-in-place overwrites: a tainted value is stored
  into a field, then overwritten with its sanitized copy before the
  load+sink.  The flow-insensitive heap (weak updates) makes every
  static configuration report them, while a dynamic replay sees only
  the sanitized value — planted *refutable* false positives for the
  confirmation oracle (``repro.confirm``);
* ``trap_context`` — tainted and clean data through one shared helper,
  the clean result printed: context-insensitive slicing reports it;
* ``trap_factory`` — two containers minted by one factory method, one
  tainted, the clean one printed: context-insensitive *pointer analysis*
  conflates the allocation site;
* ``trap_xentry`` — a store in one entrypoint and a load+print in
  another, connected only through the flow-insensitive heap: hybrid and
  CI report it (direct store→load edges ignore call structure), CS does
  not;
* ``trap_logger`` — a tainted value logged through the benign ``Logger``
  and re-read elsewhere: configurations without the whitelist code
  reduction report it.

Every planted pattern puts its sink in a dedicated method so the oracle
can match reports by (rule, sink-method) alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

SINK_OF_RULE = {
    "XSS": "PrintWriter.println",
    "SQLI": "Statement.executeQuery",
    "MALICIOUS_FILE": "FileReader.<init>",
    "INFO_LEAK": "PrintWriter.println",
}


@dataclass(frozen=True)
class PlantedFlow:
    """Ground truth for one planted pattern."""

    kind: str           # tp | tp_deep | tp_thread | san | decoy | trap_*
    rule: str                 # security rule it involves
    sink_method: str          # qname of the method holding the sink
    app: str

    @property
    def is_true_positive(self) -> bool:
        return self.kind.startswith("tp")

    @property
    def is_decoy(self) -> bool:
        """A planted false positive every static configuration reports
        but a dynamic replay refutes (sanitize-in-place overwrite)."""
        return self.kind == "decoy"


@dataclass
class AppSpec:
    """Size and trait knobs for one generated application."""

    name: str
    seed: int = 0
    # planted patterns
    tp_direct: int = 2
    tp_string: int = 1
    tp_map: int = 1
    tp_heap: int = 1
    tp_helper: int = 1
    tp_carrier: int = 1
    tp_chain: int = 0         # long-call-chain TPs (length ablation)
    tp_reflect: int = 0
    tp_sql: int = 1
    tp_file: int = 0
    tp_leak: int = 1
    tp_deep: int = 0          # nested-taint deeper than the bound
    tp_thread: int = 0        # cross-thread (CS false negatives)
    sanitized: int = 2
    decoy_field: int = 0      # sanitize-in-place instance field (XSS)
    decoy_static: int = 0     # sanitize-in-place static field (XSS)
    decoy_sql: int = 0        # sanitize-in-place escapeSql (SQLI)
    trap_context: int = 1
    trap_factory: int = 1
    trap_xentry: int = 1
    trap_xentry_long: int = 0
    trap_logger: int = 1
    # structure
    cold_classes: int = 2     # taint-free reachable code (budget pressure)
    cold_methods: int = 6     # methods per cold class
    lib_classes: int = 2      # app-specific supporting "library" code
    lib_methods: int = 6
    uses_struts: bool = False
    uses_ejb: bool = False

    # Fields multiplied by :meth:`scaled` — every planted-pattern count
    # plus the filler-code class counts (methods-per-class stay fixed:
    # scaling grows the app *wide*, in entrypoints, not deep).
    SCALED_FIELDS = (
        "tp_direct", "tp_string", "tp_map", "tp_heap", "tp_helper",
        "tp_carrier", "tp_chain", "tp_reflect", "tp_sql", "tp_file",
        "tp_leak", "tp_deep", "tp_thread", "sanitized", "decoy_field",
        "decoy_static", "decoy_sql", "trap_context",
        "trap_factory", "trap_xentry", "trap_xentry_long", "trap_logger",
        "cold_classes", "lib_classes",
    )

    def scaled(self, factor: int) -> "AppSpec":
        """This spec with every planted-pattern and filler-class count
        multiplied by ``factor`` (the ``--scale`` corpus knob).

        The generator spreads flow methods across servlets (~4 per
        servlet), so a scaled spec grows proportionally many
        entrypoints.  Ground truth scales with it: the oracle stays
        mechanical at every factor.
        """
        if factor < 1:
            raise ValueError(f"scale factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        changes = {name: getattr(self, name) * factor
                   for name in self.SCALED_FIELDS}
        changes["name"] = f"{self.name}-x{factor}"
        return replace(self, **changes)

    def total_tp(self) -> int:
        return (self.tp_direct + self.tp_string + self.tp_map +
                self.tp_heap + self.tp_helper + self.tp_carrier +
                self.tp_chain + self.tp_reflect + self.tp_sql +
                self.tp_file + self.tp_leak + self.tp_deep +
                self.tp_thread + (1 if self.uses_struts else 0) +
                (1 if self.uses_ejb else 0))


@dataclass
class GeneratedApp:
    """The generator's output."""

    spec: AppSpec
    sources: List[str]
    planted: List[PlantedFlow]
    deployment_descriptor: Dict[str, str] = field(default_factory=dict)


class AppGenerator:
    """Emits jlang source + ground truth for one :class:`AppSpec`."""

    def __init__(self, spec: AppSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.prefix = "".join(
            ch for ch in spec.name.title() if ch.isalnum()) or "App"
        self.planted: List[PlantedFlow] = []
        self.classes: List[str] = []
        self.descriptor: Dict[str, str] = {}
        self._servlet_bodies: List[Tuple[str, List[str]]] = []
        self._counter = 0

    # -- small helpers ------------------------------------------------------

    def _uid(self) -> int:
        self._counter += 1
        return self._counter

    def _plant(self, kind: str, rule: str, sink_method: str) -> None:
        self.planted.append(PlantedFlow(kind, rule, sink_method,
                                        self.spec.name))

    def _flow_method(self, body: str, uid: int) -> str:
        """A dedicated flow method on the current servlet."""
        return (f"  void flow{uid}(HttpServletRequest req, "
                f"HttpServletResponse resp) {{\n{body}\n  }}\n")

    # -- pattern library -------------------------------------------------------

    def _pat_tp_direct(self, servlet: str, uid: int) -> str:
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(
            f'    resp.getWriter().println(req.getParameter("p{uid}"));',
            uid)

    def _pat_tp_string(self, servlet: str, uid: int) -> str:
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String raw = req.getParameter("p{uid}");
    StringBuilder sb = new StringBuilder();
    sb.append("user=");
    sb.append(raw.trim().toUpperCase());
    resp.getWriter().println(sb.toString());""", uid)

    def _pat_tp_map(self, servlet: str, uid: int) -> str:
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    HashMap store = new HashMap();
    store.put("k{uid}", req.getParameter("p{uid}"));
    store.put("safe{uid}", "constant");
    resp.getWriter().println(store.get("k{uid}"));""", uid)

    def _pat_tp_heap(self, servlet: str, uid: int) -> str:
        holder = f"{self.prefix}Holder{uid}"
        self.classes.append(f"""
class {holder} {{
  String payload;
  String comment;
}}""")
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    {holder} h = new {holder}();
    h.payload = req.getParameter("p{uid}");
    h.comment = "static";
    String v = h.payload;
    resp.getWriter().println(v);""", uid)

    def _pat_tp_helper(self, servlet: str, uid: int) -> str:
        helper = f"{self.prefix}Util{uid}"
        self.classes.append(f"""
class {helper} {{
  static String decorate(String v) {{
    return "[" + v + "]";
  }}
}}""")
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String v = {helper}.decorate(req.getParameter("p{uid}"));
    resp.getWriter().println(v);""", uid)

    def _pat_tp_carrier(self, servlet: str, uid: int) -> str:
        wrapper = f"{self.prefix}Bean{uid}"
        self.classes.append(f"""
class {wrapper} {{
  String content;
  {wrapper}(String c) {{ this.content = c; }}
  public String toString() {{ return this.content; }}
}}""")
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    {wrapper} bean = new {wrapper}(req.getParameter("p{uid}"));
    {wrapper} other = new {wrapper}("harmless");
    resp.getWriter().println(bean);""", uid)

    def _pat_tp_chain(self, servlet: str, uid: int, hops: int = 5) -> str:
        """A TP whose value passes through ``hops`` helper calls (long
        flow, §6.2.2)."""
        chain = f"{self.prefix}Chain{uid}"
        methods = []
        for i in range(hops):
            nxt = (f"{chain}.hop{i + 1}(v)" if i + 1 < hops else "v")
            methods.append(f"""
  static String hop{i}(String v) {{
    String w = v + "";
    return {nxt.replace('(v)', '(w)')};
  }}""")
        self.classes.append(f"class {chain} {{{''.join(methods)}\n}}")
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String v = {chain}.hop0(req.getParameter("p{uid}"));
    resp.getWriter().println(v);""", uid)

    def _pat_tp_reflect(self, servlet: str, uid: int) -> str:
        target = f"{self.prefix}Refl{uid}"
        self.classes.append(f"""
class {target} {{
  public String render(String v) {{ return v; }}
  public String skip(String v) {{ return "safe"; }}
}}""")
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String raw = req.getParameter("p{uid}");
    {target} obj = new {target}();
    Class k = Class.forName("{target}");
    Method[] methods = k.getMethods();
    Method m = null;
    for (int i = 0; i < 4; i++) {{
      Method cand = methods[i];
      if (cand.getName().equals("render")) {{
        m = cand;
        break;
      }}
    }}
    String v = (String) m.invoke(obj, new Object[] {{ raw }});
    resp.getWriter().println(v);""", uid)

    def _pat_tp_sql(self, servlet: str, uid: int) -> str:
        self._plant("tp", "SQLI", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String user = req.getParameter("u{uid}");
    Connection c = DriverManager.getConnection("jdbc:app");
    Statement st = c.createStatement();
    st.executeQuery("SELECT * FROM t WHERE u='" + user + "'");""", uid)

    def _pat_tp_file(self, servlet: str, uid: int) -> str:
        self._plant("tp", "MALICIOUS_FILE", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String path = req.getParameter("f{uid}");
    FileReader r = new FileReader("data/" + path);""", uid)

    def _pat_tp_leak(self, servlet: str, uid: int) -> str:
        self._plant("tp", "INFO_LEAK", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    try {{
      Statement st =
          DriverManager.getConnection("jdbc:app").createStatement();
      st.executeUpdate("UPDATE t SET c = 1");
    }} catch (SQLException e) {{
      resp.getWriter().println(e);
    }}""", uid)

    def _pat_tp_deep(self, servlet: str, uid: int) -> str:
        """A tainted store whose base sits at field-dereference depth 3
        from the sink argument — beyond the default §6.2.3 bound of 2,
        so the fully-optimized configuration misses it."""
        outer = f"{self.prefix}Deep{uid}"
        self.classes.append(f"""
class {outer}Leaf {{
  String secret;
}}
class {outer}Inner {{
  {outer}Leaf leaf;
  {outer}Inner() {{ this.leaf = new {outer}Leaf(); }}
}}
class {outer}Mid {{
  {outer}Inner inner;
  {outer}Mid() {{ this.inner = new {outer}Inner(); }}
}}
class {outer} {{
  {outer}Mid mid;
  {outer}() {{ this.mid = new {outer}Mid(); }}
}}""")
        self._plant("tp_deep", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    {outer} box = new {outer}();
    {outer}Mid mid = box.mid;
    {outer}Inner inner = mid.inner;
    {outer}Leaf leaf = inner.leaf;
    leaf.secret = req.getParameter("p{uid}");
    resp.getWriter().println(box);""", uid)

    def _pat_tp_thread(self, servlet: str, uid: int) -> str:
        """Cross-thread flow through a static channel (CS misses it)."""
        shared = f"{self.prefix}Shared{uid}"
        task = f"{self.prefix}Task{uid}"
        self.classes.append(f"""
class {shared} {{
  static String channel;
}}
class {task} implements Runnable {{
  HttpServletResponse resp;
  {task}(HttpServletResponse r) {{ this.resp = r; }}
  public void run() {{
    String v = {shared}.channel;
    this.resp.getWriter().println(v);
  }}
}}""")
        self._plant("tp_thread", "XSS", f"{task}.run/0")
        return self._flow_method(f"""
    {shared}.channel = req.getParameter("p{uid}");
    Thread worker = new Thread(new {task}(resp));
    worker.start();""", uid)

    def _pat_sanitized(self, servlet: str, uid: int) -> str:
        self._plant("san", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String v = URLEncoder.encode(req.getParameter("p{uid}"));
    resp.getWriter().println(v);""", uid)

    def _pat_decoy_field(self, servlet: str, uid: int) -> str:
        """Sanitize-in-place through an instance field: the tainted
        store is dead by the time the load runs, but weak heap updates
        keep it visible to every static configuration."""
        box = f"{self.prefix}DecoyBox{uid}"
        self.classes.append(f"""
class {box} {{
  String held;
}}""")
        self._plant("decoy", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String raw = req.getParameter("p{uid}");
    {box} b = new {box}();
    b.held = raw;
    b.held = URLEncoder.encode(raw);
    resp.getWriter().println(b.held);""", uid)

    def _pat_decoy_static(self, servlet: str, uid: int) -> str:
        """Sanitize-in-place through a static field."""
        reg = f"{self.prefix}DecoyReg{uid}"
        self.classes.append(f"""
class {reg} {{
  static String slot;
}}""")
        self._plant("decoy", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String raw = req.getParameter("p{uid}");
    {reg}.slot = raw;
    {reg}.slot = StringEscapeUtils.escapeHtml(raw);
    resp.getWriter().println({reg}.slot);""", uid)

    def _pat_decoy_sql(self, servlet: str, uid: int) -> str:
        """Sanitize-in-place feeding a SQL sink."""
        box = f"{self.prefix}DecoyQuery{uid}"
        self.classes.append(f"""
class {box} {{
  String clause;
}}""")
        self._plant("decoy", "SQLI", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String user = req.getParameter("u{uid}");
    {box} q = new {box}();
    q.clause = user;
    q.clause = StringEscapeUtils.escapeSql(user);
    Connection c = DriverManager.getConnection("jdbc:app");
    Statement st = c.createStatement();
    st.executeQuery("SELECT * FROM t WHERE u='" + q.clause + "'");""",
                                 uid)

    def _pat_trap_context(self, servlet: str, uid: int) -> str:
        helper = f"{self.prefix}Ident{uid}"
        self.classes.append(f"""
class {helper} {{
  static String pass(String v) {{ return v; }}
}}""")
        self._plant("trap_context", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    String dirty = {helper}.pass(req.getParameter("p{uid}"));
    String clean = {helper}.pass("banner{uid}");
    resp.getWriter().println(clean);""", uid)

    def _pat_trap_factory(self, servlet: str, uid: int) -> str:
        """Two holders minted by one library factory: with factory
        call-string contexts (TAJ policy) they are distinct objects; a
        context-insensitive pointer analysis conflates the allocation
        site and reports the clean one."""
        holder = f"{self.prefix}Slot{uid}"
        factory = f"{self.prefix}Slots{uid}"
        self.classes.append(f"""
class {holder} {{
  String value;
}}
library class {factory} {{
  static {holder} create() {{ return new {holder}(); }}
}}""")
        self._plant("trap_factory", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    {holder} dirty = {factory}.create();
    {holder} clean = {factory}.create();
    dirty.value = req.getParameter("p{uid}");
    clean.value = "menu{uid}";
    String v = clean.value;
    resp.getWriter().println(v);""", uid)

    def _pat_trap_xentry(self, uid: int) -> None:
        """Store in one servlet, load+print in another: connected only by
        the flow-insensitive heap (hybrid/CI report, CS does not)."""
        registry = f"{self.prefix}Registry{uid}"
        writer_cls = f"{self.prefix}WriteServlet{uid}"
        reader_cls = f"{self.prefix}ReadServlet{uid}"
        self.classes.append(f"""
class {registry} {{
  static String slot;
}}
class {writer_cls} extends HttpServlet {{
  void doGet(HttpServletRequest req, HttpServletResponse resp) {{
    {registry}.slot = req.getParameter("p{uid}");
  }}
}}
class {reader_cls} extends HttpServlet {{
  void doGet(HttpServletRequest req, HttpServletResponse resp) {{
    String v = {registry}.slot;
    resp.getWriter().println(v);
  }}
}}""")
        self._plant("trap_xentry", "XSS", f"{reader_cls}.doGet/2")

    def _pat_trap_xentry_long(self, uid: int, hops: int = 10) -> None:
        """Like ``trap_xentry``, but the tainted value crawls through a
        long helper chain before reaching the shared static slot — the
        resulting spurious flow is long enough for the §6.2.2 flow-length
        bound to suppress it (the fully-optimized configuration's main
        false-positive cut)."""
        registry = f"{self.prefix}FarRegistry{uid}"
        chain = f"{self.prefix}FarChain{uid}"
        writer_cls = f"{self.prefix}FarWrite{uid}"
        reader_cls = f"{self.prefix}FarRead{uid}"
        methods = []
        for i in range(hops):
            nxt = (f"return {chain}.hop{i + 1}(w);" if i + 1 < hops
                   else "return w;")
            methods.append(f"""
  static String hop{i}(String v) {{
    String w = v + "";
    {nxt}
  }}""")
        self.classes.append(f"""
class {chain} {{{''.join(methods)}
}}
class {registry} {{
  static String slot;
}}
class {writer_cls} extends HttpServlet {{
  void doGet(HttpServletRequest req, HttpServletResponse resp) {{
    {registry}.slot = {chain}.hop0(req.getParameter("p{uid}"));
  }}
}}
class {reader_cls} extends HttpServlet {{
  void doGet(HttpServletRequest req, HttpServletResponse resp) {{
    String v = {registry}.slot;
    resp.getWriter().println(v);
  }}
}}""")
        self._plant("trap_xentry_long", "XSS", f"{reader_cls}.doGet/2")

    def _pat_trap_logger(self, servlet: str, uid: int) -> str:
        """Conflation through the benign Logger's shared static state:
        the sink method only ever logs a constant, but configurations
        analyzing Logger (no whitelist) see the tainted value from the
        sibling method in ``Logger.last``."""
        self._plant("trap_logger", "XSS", f"{servlet}.flowRead{uid}/2")
        writer = self._flow_method(
            f'    Logger.log(req.getParameter("p{uid}"));', uid)
        reader = (
            f"  void flowRead{uid}(HttpServletRequest req, "
            f"HttpServletResponse resp) {{\n"
            '    Logger.log("request-served");\n'
            "    Object recent = Logger.recent();\n"
            "    resp.getWriter().println(recent);\n  }\n")
        return writer + reader

    # -- struts / ejb ----------------------------------------------------------

    def _emit_struts(self, uid: int) -> None:
        form = f"{self.prefix}Form{uid}"
        action = f"{self.prefix}Action{uid}"
        self.classes.append(f"""
class {form} extends ActionForm {{
  String title;
  String body;
}}
class {action} extends Action {{
  ActionForward execute(ActionMapping mapping, ActionForm form,
                        HttpServletRequest req, HttpServletResponse resp) {{
    {form} f = ({form}) form;
    resp.getWriter().println(f.title);
    return null;
  }}
}}""")
        self._plant("tp", "XSS", f"{action}.execute/4")

    def _emit_ejb(self, servlet: str, uid: int) -> str:
        bean = f"{self.prefix}Bean{uid}Ejb"
        jndi = f"java:comp/env/ejb/{bean}"
        self.classes.append(f"""
class {bean} {{
  String echo(String v) {{ return v; }}
}}""")
        self.descriptor[jndi] = bean
        self._plant("tp", "XSS", f"{servlet}.flow{uid}/2")
        return self._flow_method(f"""
    InitialContext ctx = new InitialContext();
    Object ref = ctx.lookup("{jndi}");
    Object home = PortableRemoteObject.narrow(ref, "{bean}Home");
    {bean} remote = ({bean}) home.create();
    String v = remote.echo(req.getParameter("p{uid}"));
    resp.getWriter().println(v);""", uid)

    # -- filler code -------------------------------------------------------------

    def _emit_cold_classes(self) -> List[str]:
        """Reachable, taint-free code that consumes call-graph budget."""
        names = [f"{self.prefix}Cold{i}"
                 for i in range(self.spec.cold_classes)]
        for idx, name in enumerate(names):
            methods = []
            for m in range(self.spec.cold_methods):
                callee = ""
                if m + 1 < self.spec.cold_methods:
                    callee = f"    {name}.step{m + 1}(x + 1);\n"
                elif idx + 1 < len(names):
                    callee = f"    {names[idx + 1]}.step0(x + 1);\n"
                methods.append(f"""
  static void step{m}(int x) {{
    int y = x * 2;
{callee}  }}""")
            self.classes.append(f"class {name} {{{''.join(methods)}\n}}")
        return names

    def _emit_lib_classes(self) -> None:
        """App-specific supporting library code (marked ``library``)."""
        for i in range(self.spec.lib_classes):
            name = f"{self.prefix}Lib{i}"
            methods = []
            for m in range(self.spec.lib_methods):
                nxt = ""
                if m + 1 < self.spec.lib_methods:
                    nxt = f"    String deep = {name}.render{m + 1}(out);\n"
                methods.append(f"""
  static String render{m}(String v) {{
    String out = "<div>" + v + "</div>";
    Logger.log(out);
{nxt}    return out;
  }}""")
            self.classes.append(
                f"library class {name} {{{''.join(methods)}\n}}")

    # -- assembly -----------------------------------------------------------------

    def generate(self) -> GeneratedApp:
        spec = self.spec
        cold_roots = self._emit_cold_classes() if spec.cold_classes else []
        self._emit_lib_classes()

        flows: List[str] = []

        def plant_n(n: int, pattern) -> None:
            for _ in range(n):
                flows.append(pattern)

        plant_n(spec.tp_direct, self._pat_tp_direct)
        plant_n(spec.tp_string, self._pat_tp_string)
        plant_n(spec.tp_map, self._pat_tp_map)
        plant_n(spec.tp_heap, self._pat_tp_heap)
        plant_n(spec.tp_helper, self._pat_tp_helper)
        plant_n(spec.tp_carrier, self._pat_tp_carrier)
        plant_n(spec.tp_chain, self._pat_tp_chain)
        plant_n(spec.tp_reflect, self._pat_tp_reflect)
        plant_n(spec.tp_sql, self._pat_tp_sql)
        plant_n(spec.tp_file, self._pat_tp_file)
        plant_n(spec.tp_leak, self._pat_tp_leak)
        plant_n(spec.tp_deep, self._pat_tp_deep)
        plant_n(spec.tp_thread, self._pat_tp_thread)
        plant_n(spec.sanitized, self._pat_sanitized)
        plant_n(spec.decoy_field, self._pat_decoy_field)
        plant_n(spec.decoy_static, self._pat_decoy_static)
        plant_n(spec.decoy_sql, self._pat_decoy_sql)
        plant_n(spec.trap_context, self._pat_trap_context)
        plant_n(spec.trap_factory, self._pat_trap_factory)
        plant_n(spec.trap_logger, self._pat_trap_logger)
        if spec.uses_ejb:
            flows.append(self._emit_ejb)
        self.rng.shuffle(flows)

        # Spread flow methods across servlets, ~4 per servlet.
        servlet_count = max(1, (len(flows) + 3) // 4)
        servlets = [f"{self.prefix}Servlet{i}" for i in range(servlet_count)]
        buckets: Dict[str, List[str]] = {s: [] for s in servlets}
        for idx, pattern in enumerate(flows):
            servlet = servlets[idx % servlet_count]
            uid = self._uid()
            if pattern is self._emit_ejb:
                buckets[servlet].append(self._emit_ejb(servlet, uid))
            else:
                buckets[servlet].append(pattern(servlet, uid))

        for sidx, servlet in enumerate(servlets):
            calls = []
            for body in buckets[servlet]:
                # Extract every "void <name>(" method defined in the text.
                for piece in body.split("  void ")[1:]:
                    name = piece.split("(", 1)[0]
                    calls.append(f"    this.{name}(req, resp);")
            cold_call = ""
            if cold_roots:
                root = cold_roots[sidx % len(cold_roots)]
                cold_call = f"    {root}.step0({sidx});\n"
            lib_call = ""
            if spec.lib_classes:
                lib = f"{self.prefix}Lib{sidx % spec.lib_classes}"
                lib_call = (f'    String banner = {lib}.render0('
                            f'"page{sidx}");\n')
            body = "\n".join(calls)
            self.classes.append(f"""
class {servlet} extends HttpServlet {{
  void doGet(HttpServletRequest req, HttpServletResponse resp) {{
{cold_call}{lib_call}{body}
  }}
{''.join(buckets[servlet])}
}}""")

        for _ in range(spec.trap_xentry):
            self._pat_trap_xentry(self._uid())
        for _ in range(spec.trap_xentry_long):
            self._pat_trap_xentry_long(self._uid())
        if spec.uses_struts:
            self._emit_struts(self._uid())

        return GeneratedApp(spec=spec, sources=["\n".join(self.classes)],
                            planted=list(self.planted),
                            deployment_descriptor=dict(self.descriptor))


def generate_app(spec: AppSpec) -> GeneratedApp:
    """Generate one application from its spec."""
    return AppGenerator(spec).generate()


def scaling_corpus(scale: int, seed: int = 7) -> GeneratedApp:
    """The scaling corpus: the default spec at ``scale``×.

    At scale 1 this is a ~3-servlet app; at scale 10 it has ~35
    entrypoints and at scale 100 ~350 (the ``scale30`` workload of
    ``benchmarks/e2e`` analyzes ``scaling_corpus(30)``).
    """
    return generate_app(AppSpec(name="scaling", seed=seed).scaled(scale))


def summary_corpus(entrypoints: int, depth: int = 48, stmts: int = 6,
                   variant: int = 0) -> GeneratedApp:
    """The summary-cache corpus: a deep shared library, thin servlets.

    The inverse of :func:`scaling_corpus`'s shape: instead of many
    independent flow patterns (where per-entrypoint work dominates and
    a method summary has nothing to amortize), taint here crosses one
    ``depth``-method pipeline of ``stmts`` statements each — exactly
    the workload per-method summaries (:mod:`repro.summaries`) exist
    for.  Cold runs explore the pipeline once per rule; warm runs seal
    it from the cache and skip that exploration entirely.

    ``variant`` renames the servlets and their parameters while leaving
    the library byte-identical — two variants model two applications
    sharing a library, the cross-app reuse case: the library's
    content-hashed summary keys match across variants, the servlets'
    do not.
    """
    tag = f"V{variant}" if variant else ""
    methods = []
    for i in range(depth):
        steps = "\n".join(
            f'    String s{j + 1} = s{j} + "x{i}_{j}";'
            for j in range(stmts))
        nxt = (f"SharedPipe.stage{i + 1}(s{stmts})"
               if i + 1 < depth else f"s{stmts}")
        methods.append(f"""
  static String stage{i}(String v) {{
    String s0 = v.trim();
{steps}
    return {nxt};
  }}""")
    classes = [f"class SharedPipe {{{''.join(methods)}\n}}"]
    planted: List[PlantedFlow] = []
    for e in range(entrypoints):
        servlet = f"Entry{tag}{e}"
        if e % 2 == 0:
            body = (f'    String v = SharedPipe.stage0('
                    f'req.getParameter("q{tag}{e}"));\n'
                    f"    resp.getWriter().println(v);")
            planted.append(PlantedFlow("tp", "XSS",
                                       f"{servlet}.doGet/2",
                                       f"summary-{variant}"))
        else:
            body = (f'    String v = SharedPipe.stage0('
                    f'req.getParameter("q{tag}{e}"));\n'
                    f'    Connection c = '
                    f'DriverManager.getConnection("jdbc:app");\n'
                    f"    Statement st = c.createStatement();\n"
                    f'    st.executeQuery("SELECT * WHERE u=\'" + v '
                    f"+ \"'\");")
            planted.append(PlantedFlow("tp", "SQLI",
                                       f"{servlet}.doGet/2",
                                       f"summary-{variant}"))
        classes.append(f"""
class {servlet} extends HttpServlet {{
  void doGet(HttpServletRequest req, HttpServletResponse resp) {{
{body}
  }}
}}""")
    spec = AppSpec(name=f"summary-{variant}", seed=variant,
                   cold_classes=0, lib_classes=0)
    return GeneratedApp(spec=spec, sources=["\n".join(classes)],
                        planted=planted)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.bench.generator``: emit a scaled corpus."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="Generate a synthetic web application with ground "
                    "truth, scaled by --scale.")
    parser.add_argument("--scale", type=int, default=1, metavar="N",
                        help="multiply every planted-pattern count by N "
                             "(10-100 for the scaling corpus)")
    parser.add_argument("--seed", type=int, default=7,
                        help="generator RNG seed (default 7)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the jlang corpus here "
                             "(default: stdout)")
    args = parser.parse_args(argv)
    app = scaling_corpus(args.scale, seed=args.seed)
    source = "\n".join(app.sources)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(source)
    else:
        print(source)
    planted = len(app.planted)
    tps = sum(1 for p in app.planted if p.is_true_positive)
    print(f"generated {app.spec.name}: {len(source.splitlines())} lines, "
          f"{planted} planted patterns ({tps} true positives)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
