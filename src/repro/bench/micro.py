"""Micro benchmark programs (in the spirit of Stanford SecuriBench Micro).

``MOTIVATING`` is a faithful jlang transcription of the paper's Figure 1
(the ``Refl1``-inspired motivating program): reflection resolved through
a ``getMethods`` + name-equality scan, tainted flow through a map under
constant keys, a sanitized sibling flow, and a taint carrier into the
sink.  A precise analysis reports exactly one XSS issue (``println(i1)``)
and rejects the two benign calls.

The remaining cases each isolate one analysis capability; the dict maps
a case name to (source text, expected counts per rule for a precise
analysis).  They double as integration tests and as seeds for the
application generator.
"""

from __future__ import annotations

from typing import Dict, Tuple

# Figure 1 of the paper, adapted to jlang (no nested classes; the
# methods.length loop bound is a constant; explicit casts where jlang
# needs them).  Line numbers are deliberately close to the paper's.
MOTIVATING = """
class MotivatingInternal {
  String s;
  MotivatingInternal(String s) { this.s = s; }
  public String toString() { return this.s; }
}

class Motivating extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String t1 = req.getParameter("fName");
    String t2 = req.getParameter("lName");
    PrintWriter writer = resp.getWriter();
    Method idMethod = null;
    try {
      Class k = Class.forName("Motivating");
      Method[] methods = k.getMethods();
      for (int i = 0; i < 8; i++) {
        Method method = methods[i];
        if (method.getName().equals("id")) {
          idMethod = method;
          break;
        }
      }
      Map m = new HashMap();
      m.put("fName", t1);
      m.put("lName", t2);
      m.put("date", Date.getDate());
      String s1 = (String) idMethod.invoke(this,
          new Object[] { m.get("fName") });
      String s2 = (String) idMethod.invoke(this,
          new Object[] { URLEncoder.encode((String) m.get("lName")) });
      String s3 = (String) idMethod.invoke(this,
          new Object[] { m.get("date") });
      MotivatingInternal i1 = new MotivatingInternal(s1);
      MotivatingInternal i2 = new MotivatingInternal(s2);
      MotivatingInternal i3 = new MotivatingInternal(s3);
      writer.println(i1);   // BAD
      writer.println(i2);   // OK (sanitized)
      writer.println(i3);   // OK (never tainted)
    } catch (Exception e) {
      e.printStackTrace();
    }
  }
  public String id(String string) { return string; }
}
"""

# Each micro case: name -> (source, {rule: expected precise issue count}).
MicroCase = Tuple[str, Dict[str, int]]

MICRO_CASES: Dict[str, MicroCase] = {}


def _case(name: str, source: str, expected: Dict[str, int]) -> None:
    MICRO_CASES[name] = (source, expected)


_case("direct_xss", """
class C1 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
""", {"XSS": 1})

_case("sanitized_xss", """
class C2 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(URLEncoder.encode(req.getParameter("p")));
  }
}
""", {"XSS": 0})

_case("string_ops", """
class C3 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String p = req.getParameter("p");
    StringBuilder sb = new StringBuilder();
    sb.append("prefix");
    sb.append(p.toUpperCase().trim());
    String out = sb.toString();
    resp.getWriter().println(out);
  }
}
""", {"XSS": 1})

_case("map_constant_keys", """
class C4 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    HashMap m = new HashMap();
    m.put("dirty", req.getParameter("p"));
    m.put("clean", "constant");
    resp.getWriter().println(m.get("clean"));
  }
}
""", {"XSS": 0})

_case("map_constant_keys_hit", """
class C5 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    HashMap m = new HashMap();
    m.put("dirty", req.getParameter("p"));
    resp.getWriter().println(m.get("dirty"));
  }
}
""", {"XSS": 1})

_case("session_attributes", """
class C6 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    HttpSession s = req.getSession();
    s.setAttribute("a", req.getParameter("p"));
    Object o1 = s.getAttribute("a");
    Object o2 = s.getAttribute("b");
    resp.getWriter().println(o2);
  }
}
""", {"XSS": 0})

_case("taint_carrier", """
class Wrapper7 {
  String inner;
  Wrapper7(String v) { this.inner = v; }
  public String toString() { return this.inner; }
}
class C7 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Wrapper7 w = new Wrapper7(req.getParameter("p"));
    resp.getWriter().println(w);
  }
}
""", {"XSS": 1})

_case("carrier_clone_precision", """
class Wrapper8 {
  String inner;
  Wrapper8(String v) { this.inner = v; }
}
class C8 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Wrapper8 dirty = new Wrapper8(req.getParameter("p"));
    Wrapper8 clean = new Wrapper8("constant");
    resp.getWriter().println(clean);
  }
}
""", {"XSS": 0})

_case("heap_flow", """
class Holder9 {
  String value;
}
class C9 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Holder9 h = new Holder9();
    h.value = req.getParameter("p");
    String out = h.value;
    resp.getWriter().println(out);
  }
}
""", {"XSS": 1})

_case("sql_injection", """
class C10 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String user = req.getParameter("user");
    Connection c = DriverManager.getConnection("jdbc:db");
    Statement st = c.createStatement();
    st.executeQuery("SELECT * FROM t WHERE u = '" + user + "'");
  }
}
""", {"SQLI": 1})

_case("sql_sanitized", """
class C11 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String user = StringEscapeUtils.escapeSql(req.getParameter("user"));
    Connection c = DriverManager.getConnection("jdbc:db");
    Statement st = c.createStatement();
    st.executeQuery("SELECT * FROM t WHERE u = '" + user + "'");
  }
}
""", {"SQLI": 0})

_case("file_execution", """
class C12 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String path = req.getParameter("path");
    FileReader r = new FileReader(path);
  }
}
""", {"MALICIOUS_FILE": 1})

_case("file_normalized", """
class C13 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String path = FilenameUtils.normalize(req.getParameter("path"));
    FileReader r = new FileReader(path);
  }
}
""", {"MALICIOUS_FILE": 0})

_case("exception_leak", """
class C14 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    try {
      Statement st =
          DriverManager.getConnection("jdbc:db").createStatement();
      st.executeUpdate("DELETE FROM t");
    } catch (SQLException e) {
      resp.getWriter().println(e);
    }
  }
}
""", {"INFO_LEAK": 1})

_case("interprocedural", """
class Util15 {
  static String pass(String v) { return v; }
}
class C15 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String p = Util15.pass(req.getParameter("p"));
    resp.getWriter().println(p);
  }
}
""", {"XSS": 1})

_case("context_precision", """
class Id16 {
  static String id(String v) { return v; }
}
class C16 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String dirty = Id16.id(req.getParameter("p"));
    String clean = Id16.id("constant");
    resp.getWriter().println(clean);
  }
}
""", {"XSS": 0})

_case("thread_flow", """
class Shared17 {
  static String channel;
}
class Task17 implements Runnable {
  public void run() { }
  HttpServletResponse resp;
  Task17(HttpServletResponse r) { this.resp = r; }
}
class Printer17 implements Runnable {
  HttpServletResponse resp;
  Printer17(HttpServletResponse r) { this.resp = r; }
  public void run() {
    String v = Shared17.channel;
    this.resp.getWriter().println(v);
  }
}
class C17 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Shared17.channel = req.getParameter("p");
    Printer17 task = new Printer17(resp);
    Thread t = new Thread(task);
    t.start();
  }
}
""", {"XSS": 1})

_case("struts_form", """
class UserForm18 extends ActionForm {
  String username;
  String role;
}
class LoginAction18 extends Action {
  ActionForward execute(ActionMapping mapping, ActionForm form,
                        HttpServletRequest req, HttpServletResponse resp) {
    UserForm18 f = (UserForm18) form;
    resp.getWriter().println(f.username);
    return null;
  }
}
""", {"XSS": 1})

_case("cookie_source", """
class C19 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Cookie[] cookies = req.getCookies();
    Cookie c = cookies[0];
    resp.getWriter().println(c.getValue());
  }
}
""", {"XSS": 1})

_case("ref_source", """
class C20 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    RandomAccessFile f = new RandomAccessFile("data.bin");
    Object[] buffer = new Object[4];
    f.readFully(buffer);
    Object chunk = buffer[0];
    resp.getWriter().println(chunk);
  }
}
""", {"XSS": 1})

_case("privileged_action", """
class Fetch21 implements PrivilegedAction {
  HttpServletRequest req;
  Fetch21(HttpServletRequest r) { this.req = r; }
  public Object run() { return this.req.getParameter("p"); }
}
class C21 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Fetch21 action = new Fetch21(req);
    Object value = AccessController.doPrivileged(action);
    resp.getWriter().println(value);
  }
}
""", {"XSS": 1})

_case("ejb_dispatch", """
class CartBean22 {
  String describe(String item) { return item; }
}
class C22 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    InitialContext ctx = new InitialContext();
    Object ref = ctx.lookup("java:comp/env/ejb/Cart");
    Object home = PortableRemoteObject.narrow(ref, "CartHome");
    CartBean22 cart = (CartBean22) home.create();
    String item = cart.describe(req.getParameter("item"));
    resp.getWriter().println(item);
  }
}
""", {"XSS": 1})

# Deployment descriptors required by micro cases (JNDI name -> bean).
MICRO_DESCRIPTORS: Dict[str, Dict[str, str]] = {
    "ejb_dispatch": {"java:comp/env/ejb/Cart": "CartBean22"},
}


def cyclic_stress(n_ring: int = 12, n_feeds: int = 30,
                  depth: int = 5) -> str:
    """A copy-cycle stress program for the solver kernel benchmarks.

    ``n_ring`` static methods form a call ring whose parameter-passing
    edges close one large copy cycle in the constraint graph;
    ``n_feeds`` driver methods each inject a fresh object into the ring
    at a different entry point, and every injected object is propagated
    around every ring member.  The kernel differential test checks the
    solver against the seed oracle on these cycles.
    """
    parts = ["class Payload { int x; }", "class Ring {"]
    for i in range(n_ring):
        nxt = (i + 1) % n_ring
        parts.append(
            f"  static Object hop{i}(Object v, int d) {{\n"
            f"    Object out = v;\n"
            f"    if (d > 0) {{ out = Ring.hop{nxt}(v, d - 1); }}\n"
            f"    return out;\n  }}")
    parts.append("}")
    parts.append("class CyclicDriver extends HttpServlet {")
    parts.append("  void doGet(HttpServletRequest req, "
                 "HttpServletResponse resp) {")
    for j in range(n_feeds):
        parts.append(f"    CyclicDriver.feed{j}(resp);")
    parts.append("  }")
    for j in range(n_feeds):
        parts.append(
            f"  static void feed{j}(HttpServletResponse resp) {{\n"
            f"    Object p = new Payload();\n"
            f"    Object r = Ring.hop{j % n_ring}(p, {depth});\n"
            f"    resp.getWriter().println(\"x\");\n  }}")
    parts.append("}")
    return "\n".join(parts)
