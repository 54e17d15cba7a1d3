"""Lowering from the jlang AST to the three-address IR.

Expressions are flattened into temporaries (``%t0``, ``%t1`` ...);
structured control flow becomes a CFG of basic blocks.  The lowering of
``try``/``catch`` is deliberately conservative and simple: control may
branch to each catch head at try entry (any statement in the body may
throw), and thrown values are not routed to catch variables — caught
exceptions are instead treated as fresh objects, matching TAJ's synthetic
exception-source model (paper §4.1.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir import (ArrayLoad, ArrayStore, Assign, BasicBlock, BinOp, Call, Cast,
                  ClassDecl, Const, EnterCatch, FieldDecl, Goto, If, Load,
                  Method, New, NewArray, Param, Program, Return, StaticLoad,
                  StaticStore, Store, Throw, UnOp, Var, parse_type)
from . import ast
from .errors import LowerError, SourceError
from .parser import parse

# Sentinel constant marking the synthetic exception-dispatch branches
# emitted for try/catch (see _lower_try).
EXC_DISPATCH = "<exc-dispatch>"


class _Scope:
    """A stack of lexical scopes mapping source names to IR variables."""

    def __init__(self) -> None:
        self._stack: List[Dict[str, Var]] = [{}]
        self._counts: Dict[str, int] = {}

    def push(self) -> None:
        self._stack.append({})

    def pop(self) -> None:
        self._stack.pop()

    def declare(self, name: str) -> Var:
        count = self._counts.get(name, 0)
        self._counts[name] = count + 1
        var = name if count == 0 else f"{name}${count}"
        self._stack[-1][name] = var
        return var

    def lookup(self, name: str) -> Optional[Var]:
        for scope in reversed(self._stack):
            if name in scope:
                return scope[name]
        return None


class MethodLowerer:
    """Lowers one method body into a CFG."""

    def __init__(self, owner: "Lowerer", cls: ast.ClassDeclNode,
                 decl: ast.MethodDeclNode, method: Method) -> None:
        self.owner = owner
        self.cls = cls
        self.decl = decl
        self.method = method
        self.scope = _Scope()
        self.types = method.var_types
        self.block: BasicBlock = method.new_block()
        self._temp = 0
        # (continue_target, break_target) stack.
        self._loops: List[Tuple[int, int]] = []

    # -- emission helpers ---------------------------------------------------

    def _fresh(self) -> Var:
        var = f"%t{self._temp}"
        self._temp += 1
        return var

    def _set_type(self, var: Var, type_name: Optional[str]) -> None:
        """Record a variable's type; first (declared) binding wins."""
        if var and type_name and var not in self.types:
            self.types[var] = type_name

    def _type_of(self, var: Var) -> Optional[str]:
        return self.types.get(var)

    def _emit(self, instr, line: int = 0):
        self.method.append(self.block, instr, line)
        return instr

    def _new_block(self) -> BasicBlock:
        return self.method.new_block()

    def _goto(self, target: BasicBlock, line: int = 0) -> None:
        if self.block.terminator is None:
            self._emit(Goto(target.bid), line)

    def _branch(self, cond: Var, then_b: BasicBlock, else_b: BasicBlock,
                line: int = 0) -> None:
        self._emit(If(cond, then_b.bid, else_b.bid), line)

    # -- entry ---------------------------------------------------------------

    def run(self) -> None:
        if not self.method.is_static:
            self.scope._stack[0]["this"] = "this"
            self._set_type("this", self.cls.name)
        for param in self.method.params:
            self.scope._stack[0][param.name] = param.name
            self._set_type(param.name, str(param.type))
        assert self.decl.body is not None
        self._lower_stmts(self.decl.body)
        if self.block.terminator is None:
            self._emit(Return(None))
        self.method.finish()

    # -- statements ------------------------------------------------------------

    def _lower_stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            var = self.scope.declare(stmt.name)
            self._set_type(var, stmt.type_name)
            if stmt.init is not None:
                value = self._lower_expr(stmt.init)
                self._emit(Assign(var, value), stmt.line)
            else:
                self._emit(Const(var, None), stmt.line)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._lower_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.Block):
            self.scope.push()
            self._lower_stmts(stmt.body)
            self.scope.pop()
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.Return):
            value = self._lower_expr(stmt.value) if stmt.value else None
            self._emit(Return(value), stmt.line)
            self.block = self._new_block()
        elif isinstance(stmt, ast.Throw):
            value = self._lower_expr(stmt.value) if stmt.value else ""
            self._emit(Throw(value), stmt.line)
            self.block = self._new_block()
        elif isinstance(stmt, ast.Break):
            if not self._loops:
                raise LowerError("break outside loop", stmt.line)
            self._emit(Goto(self._loops[-1][1]), stmt.line)
            self.block = self._new_block()
        elif isinstance(stmt, ast.Continue):
            if not self._loops:
                raise LowerError("continue outside loop", stmt.line)
            self._emit(Goto(self._loops[-1][0]), stmt.line)
            self.block = self._new_block()
        elif isinstance(stmt, ast.Try):
            self._lower_try(stmt)
        else:
            raise LowerError(f"cannot lower {type(stmt).__name__}", stmt.line)

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        assert stmt.value is not None
        if isinstance(target, ast.NameRef):
            local = self.scope.lookup(target.name)
            value = self._lower_expr(stmt.value)
            if local is not None:
                self._emit(Assign(local, value), stmt.line)
                return
            owner = self.owner.field_owner(self.cls.name, target.name)
            if owner is not None:
                cls_name, is_static = owner
                if is_static:
                    self._emit(StaticStore(cls_name, target.name, value),
                               stmt.line)
                else:
                    self._emit(Store("this", target.name, value), stmt.line)
                return
            # Implicit declaration keeps generated benchmark code compact.
            var = self.scope.declare(target.name)
            self._set_type(var, self._type_of(value))
            self._emit(Assign(var, value), stmt.line)
        elif isinstance(target, ast.FieldAccess):
            assert target.target is not None
            static_cls = self._as_class_name(target.target)
            value = self._lower_expr(stmt.value)
            if static_cls is not None:
                self._emit(StaticStore(static_cls, target.field_name, value),
                           stmt.line)
            else:
                base = self._lower_expr(target.target)
                self._emit(Store(base, target.field_name, value), stmt.line)
        elif isinstance(target, ast.IndexAccess):
            assert target.target is not None
            base = self._lower_expr(target.target)
            index = self._lower_expr(target.index) if target.index else None
            value = self._lower_expr(stmt.value)
            self._emit(ArrayStore(base, value, index), stmt.line)
        else:
            raise LowerError("invalid assignment target", stmt.line)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_expr(stmt.cond) if stmt.cond else self._fresh()
        then_b = self._new_block()
        else_b = self._new_block()
        join_b = self._new_block()
        self._branch(cond, then_b, else_b, stmt.line)
        self.block = then_b
        self.scope.push()
        self._lower_stmts(stmt.then_body)
        self.scope.pop()
        self._goto(join_b)
        self.block = else_b
        self.scope.push()
        self._lower_stmts(stmt.else_body)
        self.scope.pop()
        self._goto(join_b)
        self.block = join_b

    def _lower_while(self, stmt: ast.While) -> None:
        head = self._new_block()
        self._goto(head, stmt.line)
        self.block = head
        cond = self._lower_expr(stmt.cond) if stmt.cond else self._fresh()
        body_b = self._new_block()
        exit_b = self._new_block()
        self._branch(cond, body_b, exit_b, stmt.line)
        self._loops.append((head.bid, exit_b.bid))
        self.block = body_b
        self.scope.push()
        self._lower_stmts(stmt.body)
        self.scope.pop()
        self._goto(head)
        self._loops.pop()
        self.block = exit_b

    def _lower_try(self, stmt: ast.Try) -> None:
        body_b = self._new_block()
        catch_heads = [self._new_block() for _ in stmt.catches]
        join_b = self._new_block()
        # Entry dispatch: a chain of opaque two-way branches gives the CFG
        # an edge into every catch head ("any statement may throw"); the
        # final fallthrough enters the try body.  The sentinel constant
        # lets the concrete interpreter (repro.interp) recognize these
        # branches: it takes the else edge normally and the then edge in
        # fault-injection mode.  Static analyses treat the condition as
        # opaque either way.
        for head in catch_heads:
            cond = self._fresh()
            self._emit(Const(cond, EXC_DISPATCH), stmt.line)
            nxt = self._new_block()
            self._branch(cond, head, nxt, stmt.line)
            self.block = nxt
        self._goto(body_b, stmt.line)
        self.block = body_b
        self.scope.push()
        self._lower_stmts(stmt.body)
        self.scope.pop()
        self._goto(join_b)
        for clause, head in zip(stmt.catches, catch_heads):
            self.block = head
            self.scope.push()
            var = self.scope.declare(clause.var_name)
            self._set_type(var, clause.exc_type)
            self._emit(EnterCatch(var, clause.exc_type), clause.line)
            self._lower_stmts(clause.body)
            self.scope.pop()
            self._goto(join_b)
        self.block = join_b
        if stmt.finally_body:
            self.scope.push()
            self._lower_stmts(stmt.finally_body)
            self.scope.pop()

    # -- expressions -------------------------------------------------------------

    def _as_class_name(self, expr: ast.Expr) -> Optional[str]:
        """If ``expr`` names a class (not shadowed by a local), return it."""
        if isinstance(expr, ast.NameRef) and \
                self.scope.lookup(expr.name) is None and \
                self.owner.is_class_name(expr.name):
            return expr.name
        return None

    def _lower_expr(self, expr: ast.Expr, want_value: bool = True) -> Var:
        if isinstance(expr, ast.Literal):
            var = self._fresh()
            self._emit(Const(var, expr.value), expr.line)
            if isinstance(expr.value, str):
                self._set_type(var, "String")
            elif isinstance(expr.value, bool):
                self._set_type(var, "boolean")
            elif isinstance(expr.value, int):
                self._set_type(var, "int")
            else:
                self._set_type(var, "Object")
            return var
        if isinstance(expr, ast.NameRef):
            local = self.scope.lookup(expr.name)
            if local is not None:
                return local
            owner = self.owner.field_owner(self.cls.name, expr.name)
            if owner is not None:
                cls_name, is_static = owner
                var = self._fresh()
                if is_static:
                    self._emit(StaticLoad(var, cls_name, expr.name),
                               expr.line)
                else:
                    self._emit(Load(var, "this", expr.name), expr.line)
                self._set_type(var, self.owner.field_type(cls_name,
                                                          expr.name))
                return var
            raise LowerError(
                f"unknown name {expr.name!r} in {self.cls.name}", expr.line)
        if isinstance(expr, ast.ThisRef):
            if self.method.is_static:
                raise LowerError("'this' in static method", expr.line)
            return "this"
        if isinstance(expr, ast.FieldAccess):
            assert expr.target is not None
            static_cls = self._as_class_name(expr.target)
            var = self._fresh()
            if static_cls is not None:
                self._emit(StaticLoad(var, static_cls, expr.field_name),
                           expr.line)
                self._set_type(var, self.owner.field_type(
                    static_cls, expr.field_name))
            else:
                base = self._lower_expr(expr.target)
                self._emit(Load(var, base, expr.field_name), expr.line)
                base_type = self._type_of(base)
                if base_type:
                    self._set_type(var, self.owner.field_type(
                        base_type, expr.field_name))
            return var
        if isinstance(expr, ast.IndexAccess):
            assert expr.target is not None
            base = self._lower_expr(expr.target)
            index = self._lower_expr(expr.index) if expr.index else None
            var = self._fresh()
            self._emit(ArrayLoad(var, base, index), expr.line)
            base_type = self._type_of(base)
            if base_type and base_type.endswith("[]"):
                self._set_type(var, base_type[:-2])
            return var
        if isinstance(expr, ast.MethodCall):
            return self._lower_call(expr, want_value)
        if isinstance(expr, ast.NewObject):
            return self._lower_new_object(expr)
        if isinstance(expr, ast.NewArrayExpr):
            return self._lower_new_array(expr)
        if isinstance(expr, ast.Binary):
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            var = self._fresh()
            self._emit(BinOp(var, expr.op, left, right), expr.line)
            if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                self._set_type(var, "boolean")
            elif expr.op == "+" and ("String" in (self._type_of(left),
                                                  self._type_of(right))):
                self._set_type(var, "String")
            else:
                self._set_type(var, "int")
            return var
        if isinstance(expr, ast.Unary):
            operand = self._lower_expr(expr.operand)
            var = self._fresh()
            self._emit(UnOp(var, expr.op, operand), expr.line)
            self._set_type(var, "boolean" if expr.op == "!" else "int")
            return var
        if isinstance(expr, ast.Cast):
            operand = self._lower_expr(expr.operand)
            var = self._fresh()
            self._emit(Cast(var, expr.type_name, operand), expr.line)
            self._set_type(var, expr.type_name)
            return var
        raise LowerError(f"cannot lower {type(expr).__name__}", expr.line)

    def _lower_call(self, expr: ast.MethodCall, want_value: bool) -> Var:
        args = [self._lower_expr(a) for a in expr.args]
        lhs = self._fresh() if want_value else None
        if expr.target is None:
            # Implicit call within the enclosing class.
            info = self.owner.method_owner(self.cls.name, expr.method_name,
                                           len(args))
            if info is not None and info[1]:
                call = Call(lhs, "static", info[0], expr.method_name, None,
                            args)
            elif self.method.is_static:
                cls_name = info[0] if info else self.cls.name
                call = Call(lhs, "static", cls_name, expr.method_name, None,
                            args)
            else:
                call = Call(lhs, "virtual", self.cls.name, expr.method_name,
                            "this", args)
        else:
            static_cls = self._as_class_name(expr.target)
            if static_cls is not None:
                call = Call(lhs, "static", static_cls, expr.method_name,
                            None, args)
            else:
                recv = self._lower_expr(expr.target)
                call = Call(lhs, "virtual", "", expr.method_name, recv, args)
        self._emit(call, expr.line)
        if lhs is None:
            return ""
        base_cls = call.class_name
        if call.kind == "virtual" and call.receiver:
            base_cls = self._type_of(call.receiver) or call.class_name
        if base_cls:
            self._set_type(lhs, self.owner.method_return_type(
                base_cls, call.method_name, len(call.args)))
        return lhs

    def _lower_new_object(self, expr: ast.NewObject) -> Var:
        var = self._fresh()
        self._set_type(var, expr.class_name)
        self._emit(New(var, expr.class_name), expr.line)
        args = [self._lower_expr(a) for a in expr.args]
        if self.owner.has_constructor(expr.class_name, len(args)) or args:
            self._emit(Call(None, "special", expr.class_name, "<init>",
                            var, args), expr.line)
        return var

    def _lower_new_array(self, expr: ast.NewArrayExpr) -> Var:
        var = self._fresh()
        self._set_type(var, expr.element_type + "[]")
        length = self._lower_expr(expr.length) if expr.length else None
        self._emit(NewArray(var, parse_type(expr.element_type), length),
                   expr.line)
        for elem in expr.initializer or []:
            value = self._lower_expr(elem)
            self._emit(ArrayStore(var, value), expr.line)
        return var


class Lowerer:
    """Lowers compilation units into a :class:`Program`.

    An existing program may be supplied so that units can reference
    classes lowered earlier (e.g. application code referring to the model
    library); name resolution consults both.
    """

    def __init__(self, program: Optional[Program] = None) -> None:
        self.program = program or Program()
        self._unit_classes: Dict[str, ast.ClassDeclNode] = {}

    # -- name resolution ---------------------------------------------------

    def is_class_name(self, name: str) -> bool:
        return name in self._unit_classes or name in self.program.classes

    def _super_of(self, name: str) -> Optional[str]:
        if name in self._unit_classes:
            return self._unit_classes[name].super_name
        cls = self.program.get_class(name)
        return cls.super_name if cls else None

    def field_owner(self, class_name: str,
                    fld: str) -> Optional[Tuple[str, bool]]:
        """Find (declaring class, is_static) for a field, walking supers."""
        seen: Set[str] = set()
        cur: Optional[str] = class_name
        while cur and cur not in seen:
            seen.add(cur)
            if cur in self._unit_classes:
                for f in self._unit_classes[cur].fields:
                    if f.name == fld:
                        return cur, f.is_static
            else:
                cls = self.program.get_class(cur)
                if cls and fld in cls.fields:
                    return cur, cls.fields[fld].is_static
            cur = self._super_of(cur)
        return None

    def method_owner(self, class_name: str, name: str,
                     arity: int) -> Optional[Tuple[str, bool]]:
        """Find (declaring class, is_static) for a method, walking supers."""
        seen: Set[str] = set()
        cur: Optional[str] = class_name
        while cur and cur not in seen:
            seen.add(cur)
            if cur in self._unit_classes:
                for m in self._unit_classes[cur].methods:
                    if m.name == name and len(m.params) == arity:
                        return cur, m.is_static
            else:
                cls = self.program.get_class(cur)
                if cls and cls.get_method(name, arity):
                    return cur, cls.get_method(name, arity).is_static
            cur = self._super_of(cur)
        return None

    def field_type(self, class_name: str, fld: str) -> Optional[str]:
        """Declared type name of a field, walking superclasses."""
        seen: Set[str] = set()
        cur: Optional[str] = class_name
        while cur and cur not in seen:
            seen.add(cur)
            if cur in self._unit_classes:
                for f in self._unit_classes[cur].fields:
                    if f.name == fld:
                        return f.type_name
            else:
                cls = self.program.get_class(cur)
                if cls and fld in cls.fields:
                    return str(cls.fields[fld].type)
            cur = self._super_of(cur)
        return None

    def method_return_type(self, class_name: str, name: str,
                           arity: int) -> Optional[str]:
        """Declared return type name of a method, walking superclasses."""
        seen: Set[str] = set()
        cur: Optional[str] = class_name
        while cur and cur not in seen:
            seen.add(cur)
            if cur in self._unit_classes:
                for m in self._unit_classes[cur].methods:
                    if m.name == name and len(m.params) == arity:
                        return m.return_type
            else:
                cls = self.program.get_class(cur)
                if cls:
                    method = cls.get_method(name, arity)
                    if method:
                        return str(method.return_type)
            cur = self._super_of(cur)
        return None

    def has_constructor(self, class_name: str, arity: int) -> bool:
        return self.method_owner(class_name, "<init>", arity) is not None

    # -- lowering ------------------------------------------------------------

    def add_unit(self, unit: ast.CompilationUnit) -> List[str]:
        """Register a unit's classes for name resolution before lowering.

        Returns the class names registered, so callers that quarantine
        broken units (``repro.resilience``) can map classes back to the
        source unit they came from.
        """
        names: List[str] = []
        for cls in unit.classes:
            if cls.name in self._unit_classes or \
                    cls.name in self.program.classes:
                raise LowerError(f"duplicate class {cls.name}", cls.line)
            self._unit_classes[cls.name] = cls
            names.append(cls.name)
        return names

    def lower_all(self, on_error: Optional[Callable[
            [str, SourceError], None]] = None) -> Program:
        """Lower every registered unit class into the program.

        With ``on_error``, a class whose body fails to lower is reported
        as ``on_error(class_name, exc)`` instead of aborting the batch;
        the caller is responsible for evicting the partially-lowered
        class (and its unit) from the program.
        """
        pending = list(self._unit_classes.values())
        for cls_node in pending:
            self.program.add_class(self._lower_class_shell(cls_node))
        for cls_node in pending:
            if on_error is None:
                self._lower_bodies(cls_node)
                continue
            try:
                self._lower_bodies(cls_node)
            except SourceError as exc:
                on_error(cls_node.name, exc)
        self._unit_classes.clear()
        return self.program

    def _lower_class_shell(self, node: ast.ClassDeclNode) -> ClassDecl:
        cls = ClassDecl(node.name, node.super_name, list(node.interfaces),
                        is_interface=node.is_interface,
                        is_library=node.is_library, line=node.line)
        for fld in node.fields:
            cls.add_field(FieldDecl(fld.name, parse_type(fld.type_name),
                                    fld.is_static))
        for decl in node.methods:
            params = [Param(p.name, parse_type(p.type_name))
                      for p in decl.params]
            method = Method(node.name, decl.name, params,
                            parse_type(decl.return_type),
                            is_static=decl.is_static,
                            is_native=decl.body is None and
                            not node.is_interface,
                            line=decl.line)
            if node.is_interface:
                method.is_native = True  # bodiless; never dispatched to
            cls.add_method(method)
        return cls

    def _lower_bodies(self, node: ast.ClassDeclNode) -> None:
        cls = self.program.get_class(node.name)
        assert cls is not None
        for decl in node.methods:
            if decl.body is None:
                continue
            method = cls.get_method(decl.name, len(decl.params))
            assert method is not None
            MethodLowerer(self, node, decl, method).run()


def lower_source(source: str, program: Optional[Program] = None,
                 filename: str = "<string>") -> Program:
    """Parse and lower jlang source, merging into ``program`` if given."""
    lowerer = Lowerer(program)
    lowerer.add_unit(parse(source, filename))
    return lowerer.lower_all()


def lower_sources(sources: List[str],
                  program: Optional[Program] = None) -> Program:
    """Parse and lower several units that may reference one another."""
    lowerer = Lowerer(program)
    for source in sources:
        lowerer.add_unit(parse(source))
    return lowerer.lower_all()
