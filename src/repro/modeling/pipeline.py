"""The front half of the TAJ pipeline: parse, lower, and apply models.

The model library arrives prepared (:func:`~.stdlib.prepared_library`):
built once per process, shared by every run, and never written to.  The
steps below therefore run on the application's methods, plus a per-run
copy of each library method the constant-key rewrite changes.  Order
matters and mirrors the design notes in each pass:

1. load the model library, lower application sources, record the
   deployment descriptor;
2. synthesize framework entrypoint roots (jlang generation — must happen
   before IR rewrites so roots flow through them too);
3. exception-source insertion (pre-SSA);
4. string-carrier rewrite (pre-SSA: builder mutators reassign locals);
5. SSA construction + constant propagation;
6. reflection resolution (needs constants);
7. constant-key dictionary rewrite (needs constants);
8. EJB artifact generation (needs constants; new classes are pushed
   through steps 4–5 themselves);
9. structural validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import Method, Program, validate_program
from ..lang import Lowerer, tokenize
from ..lang.errors import SourceError
from ..lang.parser import Parser
from ..obs import Observability
from ..resilience import DeadlineExceeded
from ..ssa import ConstantValues, SSAInfo, to_ssa
from . import (collections_model, exceptions_model, reflection, strings,
               struts)
from .ejb import EJBModel
from .stdlib import PreparedLibrary, load_stdlib, prepared_library


@dataclass
class ModelOptions:
    """Which model passes to apply (Table 1: all evaluated configurations
    use the synthetic models; ablations flip these off)."""

    frameworks: bool = True
    exceptions: bool = True
    strings: bool = True
    reflection: bool = True
    collections: bool = True
    ejb: bool = True


@dataclass
class PreparedProgram:
    """A fully modeled, SSA-form program ready for pointer analysis."""

    program: Program
    stats: Dict[str, int] = field(default_factory=dict)


def _lower_units(program: Program, app_sources: List[str],
                 resilience, obs: Observability) -> int:
    """Parse + lower the application units into ``program``.

    Each unit is lexed and parsed inside ``lang.lex`` / ``lang.parse``
    spans, and the batch is lowered inside one ``lang.lower`` span.

    With an active quarantining resilience context, a unit whose parse
    or lowering fails is *skipped*: a structured diagnostic is recorded,
    every class the unit contributed is evicted, and the remaining units
    are still analyzed.  Returns the number of quarantined units.
    """
    quarantine = resilience is not None and resilience.active and \
        resilience.quarantine
    tracer = obs.tracer
    lowerer = Lowerer(program)
    unit_of: Dict[str, int] = {}    # class name -> source-unit index
    failed_units: set = set()
    for index, source in enumerate(app_sources):
        try:
            if resilience is not None:
                # Fault seam: may corrupt the source text, trip the
                # deadline, or raise a scripted exception.
                source = resilience.corrupt("frontend.source", source)
            with tracer.span("lang.lex") as span:
                tokens = tokenize(source)
                span.set(tokens=len(tokens))
            with tracer.span("lang.parse"):
                unit = Parser(tokens).parse_unit()
            names = lowerer.add_unit(unit)
        except DeadlineExceeded:
            raise
        except Exception as exc:
            if not quarantine:
                raise
            resilience.quarantine_source(exc, index)
            failed_units.add(index)
            continue
        for name in names:
            unit_of[name] = index

    def on_error(class_name: str, exc: SourceError) -> None:
        index = unit_of.get(class_name)
        resilience.quarantine_source(exc, index, class_name=class_name)
        if index is not None:
            failed_units.add(index)

    with tracer.span("lang.lower"):
        lowerer.lower_all(on_error=on_error if quarantine else None)
    # Evict every class contributed by a quarantined unit, including
    # sibling classes whose own bodies lowered fine: the unit is the
    # compilation boundary, so it is quarantined as a whole.
    for name, index in unit_of.items():
        if index in failed_units:
            program.classes.pop(name, None)
    if failed_units:
        obs.metrics.inc("resilience.quarantined_sources",
                        len(failed_units))
    return len(failed_units)


def _run_methods(program: Program, library: PreparedLibrary
                 ) -> List[Method]:
    """The methods a run prepares itself: those of every class that is
    not the shared library's own (by identity, not by ``is_library``:
    applications declare library classes too)."""
    return [method for name, cls in program.classes.items()
            if library.classes.get(name) is not cls
            for method in cls.methods.values()]


def _own_copy(program: Program, library: PreparedLibrary,
              qname: str) -> Method:
    """Replace the shared library method ``qname`` in ``program`` by a
    copy the run may rewrite, copying its class entry first."""
    method = program.lookup_method(qname).copy()
    cls = program.classes[method.class_name]
    if library.classes.get(cls.name) is cls:
        cls = program.classes[cls.name] = cls.copy()
    cls.add_method(method)
    return method


def prepare(app_sources: List[str],
            deployment_descriptor: Optional[Dict[str, str]] = None,
            options: Optional[ModelOptions] = None,
            extra_entrypoints: Optional[List[str]] = None,
            obs: Optional[Observability] = None,
            resilience=None) -> PreparedProgram:
    """Build a :class:`PreparedProgram` from jlang application sources.

    Each model pass runs inside a ``modeling.*`` tracer span, and the
    pass counters land in the returned ``stats`` dict; the facade
    records them in the run's metrics registry (prefixed
    ``modeling.``), whichever ``analyze_*`` call runs it.  An
    optional :class:`~repro.resilience.ResilienceContext` arms the
    ``frontend.source`` / ``modeling.pass`` fault seams, the cooperative
    deadline, and per-source quarantine.
    """
    options = options or ModelOptions()
    obs = obs or Observability()
    tracer = obs.tracer

    def seam() -> None:
        if resilience is not None:
            resilience.check("modeling.pass", phase="modeling")

    quarantined = 0
    with tracer.span("modeling.lower", sources=len(app_sources)):
        with tracer.span("lang.stdlib"):
            program = load_stdlib(options.strings)
        if app_sources:
            quarantined = _lower_units(program, app_sources, resilience,
                                       obs)
    library = prepared_library(options.strings)
    if deployment_descriptor:
        program.deployment_descriptor.update(deployment_descriptor)
    for entry in extra_entrypoints or []:
        if entry not in program.entrypoints:
            program.entrypoints.append(entry)

    stats: Dict[str, int] = {}
    if quarantined:
        stats["quarantined_sources"] = quarantined
    if options.frameworks:
        seam()
        with tracer.span("modeling.frameworks"):
            roots = struts.synthesize_entrypoints(program)
        stats["entrypoint_roots"] = len(roots)
    if options.exceptions:
        seam()
        with tracer.span("modeling.exceptions"):
            stats["exception_sources"] = \
                exceptions_model.rewrite_program(program)
    # Every pass from here on visits only these methods.
    methods = _run_methods(program, library)
    if options.strings:
        seam()
        with tracer.span("modeling.strings"):
            stats["string_ops"] = sum(strings.rewrite_method(method)
                                      for method in methods)

    ssa_by: Dict[str, SSAInfo] = {}
    constants: Dict[str, ConstantValues] = {}
    seam()
    with tracer.span("modeling.ssa") as span:
        for method in methods:
            info = to_ssa(method)
            ssa_by[method.qname] = info
            if not method.is_native:
                constants[method.qname] = ConstantValues(method, info)
        span.set(methods=len(ssa_by))

    if options.reflection:
        seam()
        with tracer.span("modeling.reflection"):
            stats["reflective_calls_resolved"] = reflection.rewrite_methods(
                program, methods, ssa_by, constants)
    if options.collections:
        seam()
        with tracer.span("modeling.collections"):
            for qname, values in library.dictionary_constants.items():
                methods.append(_own_copy(program, library, qname))
                constants[qname] = values
            stats["dictionary_accesses"] = \
                collections_model.rewrite_methods(methods, constants)
    if options.ejb and program.deployment_descriptor:
        seam()
        with tracer.span("modeling.ejb"):
            model = EJBModel(program)
            stats["ejb_calls_resolved"] = model.rewrite_methods(methods,
                                                                constants)
            for name in model.generated:
                cls = program.get_class(name)
                for method in cls.methods.values():
                    if options.strings:
                        strings.rewrite_method(method)
                    info = to_ssa(method)
                    ssa_by[method.qname] = info
                    if not method.is_native:
                        constants[method.qname] = ConstantValues(method,
                                                                 info)
                    methods.append(method)

    seam()
    with tracer.span("modeling.validate"):
        validate_program(program, methods)
    return PreparedProgram(program=program, stats=stats)
