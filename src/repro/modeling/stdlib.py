"""The modeled Java library (paper §4).

TAJ does not analyze the real JDK or Java EE containers; it substitutes
synthetic models that preserve taint-relevant behaviour.  This module is
our equivalent: a jlang model library covering everything the benchmarks
touch, plus the registries that parametrize the context-sensitivity
policy (collection classes, factory methods).

Classes whose data flow matters (collections, servlet response plumbing,
exceptions, Struts bases) have real jlang bodies; opaque operations
(request parameters, JDBC execution, reflection primitives) are native
methods whose pointer behaviour comes from
:mod:`repro.modeling.natives` and whose taint behaviour comes from the
security rules.

The library is the same input for every application, so it is prepared
once per process (:func:`prepared_library`) and every analysis's
program shares that build (:func:`load_stdlib`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Set

from ..ir import ClassDecl, Program, ValidationError, validate_program
from ..lang import Lowerer, parse
from ..lang.ast import CompilationUnit
from ..ssa import ConstantValues, to_ssa

# Classes treated as string carriers (paper §4.2.1).
STRING_CARRIERS: Set[str] = {"String", "StringBuffer", "StringBuilder"}

# Collection classes: unlimited-depth object sensitivity (paper §3.1).
COLLECTION_CLASSES: Set[str] = {
    "HashMap", "Hashtable", "MapEntry", "ArrayList", "Vector", "ListCell",
    "HttpSession", "LinkedList",
}

# Library factory methods: one level of call-string context (paper §3.1).
FACTORY_METHODS: Set[str] = {
    "Connection.createStatement",
    "Connection.prepareStatement",
    "DriverManager.getConnection",
    "Runtime.getRuntime",
    "HttpServletRequest.getSession",
    "WidgetFactory.create",
}

# Benign library classes excluded by the hand-written whitelist
# (code-reduction, paper §4.2.1).
WHITELISTED_CLASSES: Set[str] = {"Logger", "Metrics", "Assertions"}

# Dictionary accessors for the constant-key model (paper §4.2.1):
# display name -> (key argument index, value argument index or None).
DICT_PUTS = {
    "HashMap.put": (0, 1),
    "Hashtable.put": (0, 1),
    "Map.put": (0, 1),
    "HttpSession.setAttribute": (0, 1),
}
DICT_GETS = {
    "HashMap.get": 0,
    "Hashtable.get": 0,
    "Map.get": 0,
    "HttpSession.getAttribute": 0,
}
# Receiver classes participating in the dictionary model.
DICT_CLASSES: Set[str] = {"HashMap", "Hashtable", "Map", "HttpSession"}


STDLIB_SOURCE = r"""
library class Object {
  public String toString() { return ""; }
  public boolean equals(Object o) { return true; }
  public int hashCode() { return 0; }
}

// ---- string carriers: declarations only; calls on them are rewritten
// ---- into primitive StringOps by repro.modeling.strings.
library class String {
  native String concat(String s);
  native String substring(int a, int b);
  native String substring(int a);
  native String toUpperCase();
  native String toLowerCase();
  native String trim();
  native String replace(String a, String b);
  native String intern();
  native boolean equals(Object o);
  native boolean equalsIgnoreCase(String s);
  native boolean startsWith(String s);
  native boolean endsWith(String s);
  native boolean contains(String s);
  native int length();
  native int indexOf(String s);
  native String toString();
  native static String valueOf(Object o);
  native static String format(String fmt, Object a);
}

library class StringBuilder {
  native StringBuilder append(Object o);
  native StringBuilder insert(int i, Object o);
  native String toString();
  native int length();
}

library class StringBuffer {
  native StringBuffer append(Object o);
  native StringBuffer insert(int i, Object o);
  native String toString();
  native int length();
}

// ---- exceptions (paper §4.1.2) ------------------------------------------
library class Exception {
  String message;
  Exception() { }
  Exception(String m) { this.message = m; }
  String getMessage() { return this.message; }
  public String toString() { return this.getMessage(); }
  native void printStackTrace();
}
library class RuntimeException extends Exception {
  RuntimeException() { }
  RuntimeException(String m) { this.message = m; }
}
library class IOException extends Exception {
  IOException() { }
  IOException(String m) { this.message = m; }
}
library class SQLException extends Exception {
  SQLException() { }
}
library class ServletException extends Exception {
  ServletException() { }
}

// ---- collections: real bodies so the ablation without the constant-key
// ---- model exercises genuine heap flow through container internals.
library interface Map {
  Object put(Object k, Object v);
  Object get(Object k);
}
library class MapEntry {
  Object key;
  Object val;
  MapEntry next;
}
library class HashMap implements Map {
  MapEntry header;
  public Object put(Object k, Object v) {
    MapEntry e = new MapEntry();
    e.key = k;
    e.val = v;
    e.next = this.header;
    this.header = e;
    return null;
  }
  public Object get(Object k) {
    MapEntry e = this.header;
    Object out = null;
    while (e != null) {
      if (e.key == k) { out = e.val; }
      e = e.next;
    }
    return out;
  }
  public boolean containsKey(Object k) { return this.get(k) != null; }
}
library class Hashtable extends HashMap {
}
library interface List {
  boolean add(Object o);
  Object get(int i);
}
library class ArrayList implements List {
  Object[] data;
  ArrayList() { this.data = new Object[16]; }
  public boolean add(Object o) {
    this.data[0] = o;
    return true;
  }
  public Object get(int i) { return this.data[i]; }
  public int size() { return 0; }
}
library class Vector extends ArrayList {
  Vector() { this.data = new Object[16]; }
}
library class LinkedList implements List {
  ListCell head;
  public boolean add(Object o) {
    ListCell c = new ListCell();
    c.item = o;
    c.next = this.head;
    this.head = c;
    return true;
  }
  public Object get(int i) {
    ListCell c = this.head;
    return c.item;
  }
}
library class ListCell {
  Object item;
  ListCell next;
}

// ---- servlet API ------------------------------------------------------------
library class HttpSession {
  HashMap attrs;
  HttpSession() { this.attrs = new HashMap(); }
  void setAttribute(String k, Object v) { this.attrs.put(k, v); }
  Object getAttribute(String k) { return this.attrs.get(k); }
}
library class Cookie {
  native String getName();
  native String getValue();
}
library class HttpServletRequest {
  native String getParameter(String name);
  native String getHeader(String name);
  native String getQueryString();
  native String getRequestURI();
  native HttpSession getSession();
  native Cookie[] getCookies();
  native BufferedReader getReader();
}
library class PrintWriter {
  native void println(Object o);
  native void print(Object o);
  native void write(String s);
  native void flush();
}
library class JspWriter extends PrintWriter {
}
library class HttpServletResponse {
  PrintWriter writer;
  HttpServletResponse() { this.writer = new PrintWriter(); }
  PrintWriter getWriter() { return this.writer; }
  native void sendError(int code, String message);
  native void addHeader(String name, String value);
  native void sendRedirect(String url);
}
library class HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) { }
  void doPost(HttpServletRequest req, HttpServletResponse resp) { }
}
library class BufferedReader {
  native String readLine();
  native void close();
}

// ---- JDBC ---------------------------------------------------------------------
library class DriverManager {
  native static Connection getConnection(String url);
}
library class Connection {
  native Statement createStatement();
  native PreparedStatement prepareStatement(String query);
}
library class Statement {
  native ResultSet executeQuery(String query);
  native int executeUpdate(String query);
  native boolean execute(String query);
}
library class PreparedStatement extends Statement {
  native void setString(int index, String value);
  native ResultSet executeQuery();
}
library class ResultSet {
  native String getString(String column);
  native boolean next();
}

// ---- IO / process ---------------------------------------------------------------
library class File {
  File(String path) { }
}
library class FileReader {
  FileReader(String path) { }
  native String read();
}
library class FileWriter {
  FileWriter(String path) { }
  native void write(String s);
}
library class FileInputStream {
  FileInputStream(String path) { }
}
library class RandomAccessFile {
  RandomAccessFile(String path) { }
  native void readFully(Object[] buffer);
}
library class Runtime {
  native static Runtime getRuntime();
  native Process exec(String command);
}
library class Process {
}
library class System {
  native static String getProperty(String key);
  native static int currentTimeMillis();
}

// ---- threads and privileged actions (native-heavy APIs, paper §4.2.3) -----
library interface Runnable {
  void run();
}
library class Thread {
  Runnable target;
  Thread() { }
  Thread(Runnable r) { this.target = r; }
  native void start();
  void run() {
    Runnable r = this.target;
    if (r != null) { r.run(); }
  }
}
library interface PrivilegedAction {
  Object run();
}
library class AccessController {
  native static Object doPrivileged(PrivilegedAction action);
}

// ---- reflection (paper §4.2.3) ------------------------------------------------
library class Class {
  native static Class forName(String name);
  native Method[] getMethods();
  native Method getMethod(String name);
  native Object newInstance();
}
library class Method {
  native String getName();
  native Object invoke(Object receiver, Object[] args);
}

// ---- sanitizers and misc statics ----------------------------------------------
library class URLEncoder {
  native static String encode(String s);
}
library class StringEscapeUtils {
  native static String escapeHtml(String s);
  native static String escapeSql(String s);
}
library class FilenameUtils {
  native static String normalize(String path);
}
library class MessageSanitizer {
  native static String scrub(String message);
}
library class Encoder {
  native static String encodeForHTML(String s);
}
library class URLValidator {
  native static String validate(String url);
}
library class HeaderSanitizer {
  native static String strip(String value);
}
library class Codec {
  native static String encodeForSQL(String s);
}
library class Date {
  native static String getDate();
}
library class Integer {
  native static String toString(int i);
  native static int parseInt(String s);
}
library class Math {
  native static int random();
}
library class TaintSupport {
  native static String source();
  native static void sink(Object o);
}

// ---- whitelisted (benign but polluting if analyzed, paper §4.2.1) ------------
library class Logger {
  static Object last;
  static void log(Object o) {
    Logger.last = o;
  }
  static Object recent() { return Logger.last; }
}
library class Metrics {
  static Object probe;
  static void count(String name, Object witness) {
    Metrics.probe = witness;
  }
}
library class Assertions {
  static void check(boolean cond, Object detail) {
    Logger.log(detail);
  }
}

// ---- Struts (paper §4.2.2) ---------------------------------------------------
library class ActionForm {
}
library class ActionMapping {
  native ActionForward findForward(String name);
}
library class ActionForward {
}
library class Action {
  ActionForward execute(ActionMapping mapping, ActionForm form,
                        HttpServletRequest req, HttpServletResponse resp) {
    return null;
  }
}

// ---- EJB / JNDI (paper §4.2.2) -------------------------------------------------
library class InitialContext {
  InitialContext() { }
  native Object lookup(String name);
}
library class PortableRemoteObject {
  native static Object narrow(Object ref, String homeInterface);
}
"""


@functools.cache
def _stdlib_unit() -> CompilationUnit:
    """The model library's AST, parsed on first use."""
    return parse(STDLIB_SOURCE, "<stdlib>")


@dataclass(frozen=True)
class PreparedLibrary:
    """The model library as every analysis starts from it: lowered,
    string-rewritten (unless built for ``strings=False``), in SSA form
    and validated.

    Every program :func:`load_stdlib` returns refers to these very
    classes, so no pass may write into them.  The one part that depends
    on the application is the constant-key rewrite (paper §4.2.1): a
    wildcard ``get`` reads every key the application uses.
    ``dictionary_constants`` maps each method that rewrite changes to
    its constants; a run rewrites its own copy of each, starting from
    the shared pre-rewrite state.
    """

    classes: Mapping[str, ClassDecl]
    dictionary_constants: Mapping[str, ConstantValues]


@functools.cache
def prepared_library(strings: bool = True) -> PreparedLibrary:
    """Build the prepared model library, once per process and per value
    of ``ModelOptions.strings`` (the only model option library IR
    depends on).

    Reflection and EJB resolution rewrite calls to ``Class.forName`` and
    ``InitialContext.lookup``; the library declares both as natives and
    never calls them, which is what lets the per-run passes skip it.  A
    library edit that breaks this fails here.
    """
    # The passes import this module's class tables, so they are imported
    # here rather than at the top.
    from .collections_model import access_kind
    from .ejb import is_lookup
    from .reflection import is_for_name
    from .strings import rewrite_method as rewrite_strings

    lowerer = Lowerer()
    lowerer.add_unit(_stdlib_unit())
    library = lowerer.lower_all()
    dictionary: Dict[str, ConstantValues] = {}
    for method in library.methods():
        if strings:
            rewrite_strings(method)
        info = to_ssa(method)
        instrs = list(method.instructions())
        if any(is_for_name(i) or is_lookup(method, i) for i in instrs):
            raise ValidationError(
                f"model library method {method.qname} calls Class.forName "
                "or InitialContext.lookup, which are resolved in "
                "application methods only")
        if any(access_kind(method, i) for i in instrs):
            dictionary[method.qname] = ConstantValues(method, info)
    validate_program(library)
    return PreparedLibrary(MappingProxyType(library.classes),
                           MappingProxyType(dictionary))


def load_stdlib(strings: bool = True) -> Program:
    """A fresh program holding the prepared model library.

    The program's ``classes`` dict is its own: a run adds its classes
    and replaces the entries it rewrites.  The classes in it are those
    of :func:`prepared_library`, shared by every program this returns;
    the first call per process and per ``strings`` value builds them.
    """
    program = Program()
    program.classes.update(prepared_library(strings).classes)
    return program
