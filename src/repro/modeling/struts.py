"""Web-framework entrypoint modeling (paper §4.2.2).

Web applications have no ``main``: control enters through container
dispatch.  For each entrypoint this pass synthesizes an *analysis root*
— a small jlang class that builds the framework-provided state and
invokes the entrypoint — and registers it in ``program.entrypoints``.

Three entrypoint families are modeled:

* **servlets** — application subclasses of ``HttpServlet`` overriding
  ``doGet``/``doPost``: the root allocates the servlet, a request, and a
  response, and calls each overridden handler;
* **Struts actions** — application subclasses of ``Action`` implementing
  ``execute``: the pass inspects ``execute`` for casts applied to the
  ``ActionForm`` parameter to learn which concrete form subtypes the
  action expects (all compatible subtypes if there is no cast), then
  synthesizes, per form type, a form instance whose String fields — and,
  recursively, the String fields of its compound-typed fields — are
  assigned the tainted ``TaintSupport.source()`` value, exactly as the
  Struts container populates forms from user input;
* **plain mains** — ``static main/0`` and ``main/1`` (the latter invoked
  with a tainted argument array, modeling the command line).

Runs right after lowering, before the IR-rewriting model passes, so the
synthesized roots flow through the same pipeline as user code.
"""

from __future__ import annotations

from typing import List, Set

from ..ir import Cast, ClassHierarchy, Program
from ..lang import Lowerer, parse

MAX_FORM_DEPTH = 2


def _sanitize(name: str) -> str:
    return name.replace("$", "_")


class EntrypointSynthesizer:
    """Builds analysis roots for every entrypoint family."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.hierarchy = ClassHierarchy(program)
        self.sources: List[str] = []
        self.created: List[str] = []

    # -- discovery ------------------------------------------------------------

    def servlet_classes(self) -> List[str]:
        out = []
        for cls in self.program.application_classes():
            if cls.name == "HttpServlet":
                continue
            if self.hierarchy.is_subtype(cls.name, "HttpServlet") and \
                    not cls.is_interface:
                if cls.get_method("doGet", 2) or cls.get_method("doPost", 2):
                    out.append(cls.name)
        return sorted(out)

    def action_classes(self) -> List[str]:
        out = []
        for cls in self.program.application_classes():
            if cls.name == "Action":
                continue
            if self.hierarchy.is_subtype(cls.name, "Action") and \
                    not cls.is_interface and cls.get_method("execute", 4):
                out.append(cls.name)
        return sorted(out)

    def main_classes(self) -> List[str]:
        out = []
        for cls in self.program.application_classes():
            for arity in (0, 1):
                method = cls.get_method("main", arity)
                if method is not None and method.is_static:
                    out.append(cls.name)
                    break
        return sorted(out)

    # -- Struts form inference ----------------------------------------------------

    def _form_types_for(self, action: str) -> List[str]:
        """Concrete ActionForm subtypes compatible with the action's casts."""
        method = self.program.lookup_method(f"{action}.execute/4")
        assert method is not None
        cast_types: Set[str] = set()
        for instr in method.instructions():
            if isinstance(instr, Cast) and self.hierarchy.is_subtype(
                    instr.type_name, "ActionForm"):
                cast_types.add(instr.type_name)
        if not cast_types:
            cast_types = {"ActionForm"}
        forms: Set[str] = set()
        for t in cast_types:
            forms.update(self.hierarchy.concrete_subtypes(t))
        forms.discard("ActionForm")
        return sorted(forms)

    def _fill_fields(self, lines: List[str], var: str, class_name: str,
                     depth: int) -> None:
        """Emit assignments tainting every (transitive) String field."""
        cls = self.program.get_class(class_name)
        if cls is None:
            return
        for fld in cls.fields.values():
            if fld.is_static:
                continue
            tname = str(fld.type)
            if tname == "String":
                lines.append(f"    {var}.{fld.name} = TaintSupport.source();")
            elif depth < MAX_FORM_DEPTH and tname in self.program.classes \
                    and not self.program.classes[tname].is_interface:
                sub = f"{var}_{fld.name}"
                lines.append(f"    {tname} {sub} = new {tname}();")
                lines.append(f"    {var}.{fld.name} = {sub};")
                self._fill_fields(lines, sub, tname, depth + 1)

    # -- synthesis ----------------------------------------------------------------

    def _add_root(self, root_name: str, body_lines: List[str]) -> None:
        source = "class " + root_name + " {\n  static void dispatch() {\n" \
            + "\n".join(body_lines) + "\n  }\n}\n"
        self.sources.append(source)
        self.created.append(root_name)
        self.program.entrypoints.append(f"{root_name}.dispatch/0")

    def synthesize_servlet_roots(self) -> None:
        for name in self.servlet_classes():
            cls = self.program.get_class(name)
            lines = [
                f"    {name} servlet = new {name}();",
                "    HttpServletRequest req = new HttpServletRequest();",
                "    HttpServletResponse resp = new HttpServletResponse();",
            ]
            if cls.get_method("doGet", 2):
                lines.append("    servlet.doGet(req, resp);")
            if cls.get_method("doPost", 2):
                lines.append("    servlet.doPost(req, resp);")
            self._add_root(f"$Root${_sanitize(name)}", lines)

    def synthesize_action_roots(self) -> None:
        for name in self.action_classes():
            lines = [
                f"    {name} action = new {name}();",
                "    ActionMapping mapping = new ActionMapping();",
                "    HttpServletRequest req = new HttpServletRequest();",
                "    HttpServletResponse resp = new HttpServletResponse();",
            ]
            for idx, form_type in enumerate(self._form_types_for(name)):
                var = f"form{idx}"
                lines.append(f"    {form_type} {var} = new {form_type}();")
                self._fill_fields(lines, var, form_type, 0)
                lines.append(
                    f"    action.execute(mapping, {var}, req, resp);")
            self._add_root(f"$Root${_sanitize(name)}", lines)

    def synthesize_main_roots(self) -> None:
        for name in self.main_classes():
            cls = self.program.get_class(name)
            if cls.get_method("main", 0):
                self.program.entrypoints.append(f"{name}.main/0")
            method = cls.get_method("main", 1)
            if method is not None:
                lines = [
                    "    String[] args = "
                    "new String[] { TaintSupport.source() };",
                    f"    {name}.main(args);",
                ]
                self._add_root(f"$Root${_sanitize(name)}Main", lines)

    def run(self) -> List[str]:
        """Synthesize all roots; returns the created root class names."""
        self.synthesize_servlet_roots()
        self.synthesize_action_roots()
        self.synthesize_main_roots()
        if self.sources:
            lowerer = Lowerer(self.program)
            for source in self.sources:
                lowerer.add_unit(parse(source, "<entrypoint-model>"))
            lowerer.lower_all()
            for root in self.created:
                cls = self.program.get_class(root)
                for method in cls.methods.values():
                    method.is_synthetic = True
        return self.created


def synthesize_entrypoints(program: Program) -> List[str]:
    """Convenience wrapper; see :class:`EntrypointSynthesizer`."""
    return EntrypointSynthesizer(program).run()
