"""Recursive-descent parser for jlang.

Produces a :class:`~repro.lang.ast.CompilationUnit`.  ``for`` loops are
desugared to ``while`` at parse time; compound assignments and ``++`` are
desugared to plain assignments.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import ParseError
from .lexer import Token, tokenize

_PRIMITIVE_TYPES = {"int", "boolean", "void"}
# Tokens that can start an expression: used by the cast heuristic.
_EXPR_START_SYMS = {"(", "!", "-"}
# Lookahead key of a token that is neither a symbol nor a keyword; no
# symbol or keyword text equals one of these.
_KIND_KEYS = {"id": "<id>", "int": "<int>", "string": "<string>",
              "eof": "<eof>"}


class Parser:
    """Parses a token stream into an AST.

    ``keys[i]`` is the text of token ``i`` if it is a symbol or keyword
    and a marker of its kind otherwise, so testing for one symbol or
    keyword is a single compare.  ``pos`` never moves past the final
    ``eof`` token, and every lookahead beyond ``pos`` first checks that
    the tokens before it are not ``eof``, so indexing needs no clamp.
    """

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.keys = [_KIND_KEYS.get(tok.kind) or tok.text for tok in tokens]
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def _at_sym(self, text: str) -> bool:
        return self.keys[self.pos] == text

    # No keyword is spelled like a symbol, so one key test serves both.
    _at_kw = _at_sym

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self._advance()

    def _accept_sym(self, text: str) -> bool:
        if self.keys[self.pos] == text:
            self.pos += 1
            return True
        return False

    _accept_kw = _accept_sym

    # -- types ---------------------------------------------------------------

    def _parse_type(self) -> str:
        tok = self._peek()
        if tok.kind == "id" or tok.text in _PRIMITIVE_TYPES:
            self._advance()
            name = tok.text
            while self._at_sym("[") and self._peek(1).text == "]":
                self._advance()
                self._advance()
                name += "[]"
            return name
        raise ParseError(f"expected a type, found {tok.text!r}",
                         tok.line, tok.col)

    # -- declarations ----------------------------------------------------------

    def parse_unit(self) -> ast.CompilationUnit:
        unit = ast.CompilationUnit(line=1)
        while not self._at("eof"):
            unit.classes.append(self._parse_class())
        return unit

    def _parse_class(self) -> ast.ClassDeclNode:
        line = self._peek().line
        is_library = self._accept_kw("library")
        while self._peek().text in ("public", "final"):
            self._advance()
        is_interface = False
        if self._accept_kw("interface"):
            is_interface = True
        else:
            self._expect("kw", "class")
        name = self._expect("id").text
        node = ast.ClassDeclNode(line=line, name=name,
                                 is_interface=is_interface,
                                 is_library=is_library)
        if self._accept_kw("extends"):
            node.super_name = self._expect("id").text
            if is_interface:
                # Interface extension list; treat extras as more interfaces.
                node.interfaces.append(node.super_name)
                node.super_name = None
                while self._accept_sym(","):
                    node.interfaces.append(self._expect("id").text)
        if self._accept_kw("implements"):
            node.interfaces.append(self._expect("id").text)
            while self._accept_sym(","):
                node.interfaces.append(self._expect("id").text)
        if node.super_name is None and not is_interface and name != "Object":
            node.super_name = "Object"
        self._expect("sym", "{")
        while not self._accept_sym("}"):
            self._parse_member(node)
        return node

    def _parse_member(self, cls: ast.ClassDeclNode) -> None:
        line = self._peek().line
        is_static = False
        is_native = False
        while True:
            if self._peek().text in ("public", "private", "protected", "final"):
                self._advance()
            elif self._accept_kw("static"):
                is_static = True
            elif self._accept_kw("native"):
                is_native = True
            else:
                break
        # Constructor: ClassName followed by '('.
        if self._at("id", cls.name) and self._peek(1).text == "(":
            self._advance()
            method = ast.MethodDeclNode(line=line, name="<init>",
                                        return_type="void",
                                        is_constructor=True)
            method.params = self._parse_params()
            self._skip_throws()
            method.body = self._parse_block()
            cls.methods.append(method)
            return
        type_name = self._parse_type()
        name_tok = self._expect("id")
        if self._at_sym("("):
            method = ast.MethodDeclNode(line=line, name=name_tok.text,
                                        return_type=type_name,
                                        is_static=is_static,
                                        is_native=is_native)
            method.params = self._parse_params()
            self._skip_throws()
            if self._accept_sym(";"):
                method.body = None
                method.is_native = True if not cls.is_interface else False
            else:
                method.body = self._parse_block()
            cls.methods.append(method)
        else:
            self._expect("sym", ";")
            cls.fields.append(ast.FieldDeclNode(
                line=line, type_name=type_name, name=name_tok.text,
                is_static=is_static))

    def _skip_throws(self) -> None:
        if self._accept_kw("throws"):
            self._expect("id")
            while self._accept_sym(","):
                self._expect("id")

    def _parse_params(self) -> List[ast.ParamNode]:
        self._expect("sym", "(")
        params: List[ast.ParamNode] = []
        if not self._at_sym(")"):
            while True:
                line = self._peek().line
                type_name = self._parse_type()
                name = self._expect("id").text
                params.append(ast.ParamNode(line=line, type_name=type_name,
                                            name=name))
                if not self._accept_sym(","):
                    break
        self._expect("sym", ")")
        return params

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> List[ast.Stmt]:
        self._expect("sym", "{")
        stmts: List[ast.Stmt] = []
        while not self._accept_sym("}"):
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_stmt(self) -> ast.Stmt:
        tok = self.tokens[self.pos]
        key = self.keys[self.pos]
        if key == "{":
            return ast.Block(line=tok.line, body=self._parse_block())
        if key == "if":
            return self._parse_if()
        if key == "while":
            return self._parse_while()
        if key == "for":
            return self._parse_for()
        if key == "try":
            return self._parse_try()
        if self._accept_kw("return"):
            value = None if self._at_sym(";") else self._parse_expr()
            self._expect("sym", ";")
            return ast.Return(line=tok.line, value=value)
        if self._accept_kw("throw"):
            value = self._parse_expr()
            self._expect("sym", ";")
            return ast.Throw(line=tok.line, value=value)
        if self._accept_kw("break"):
            self._expect("sym", ";")
            return ast.Break(line=tok.line)
        if self._accept_kw("continue"):
            self._expect("sym", ";")
            return ast.Continue(line=tok.line)
        if self._looks_like_var_decl():
            stmt = self._parse_var_decl()
            self._expect("sym", ";")
            return stmt
        stmt = self._parse_expr_or_assign()
        self._expect("sym", ";")
        return stmt

    def _looks_like_var_decl(self) -> bool:
        """Disambiguate ``Type name ...`` from an expression statement."""
        tok = self._peek()
        if tok.text in _PRIMITIVE_TYPES and tok.text != "void":
            return True
        if tok.kind != "id":
            return False
        # ID ID            -> decl (e.g. ``String s``)
        # ID [ ] ID        -> array decl
        nxt = self._peek(1)
        if nxt.kind == "id":
            return True
        if nxt.text == "[" and self._peek(2).text == "]":
            return self._peek(3).kind == "id"
        return False

    def _parse_var_decl(self) -> ast.Stmt:
        line = self._peek().line
        type_name = self._parse_type()
        name = self._expect("id").text
        init = None
        if self._accept_sym("="):
            init = self._parse_expr()
        return ast.VarDecl(line=line, type_name=type_name, name=name,
                           init=init)

    def _parse_expr_or_assign(self) -> ast.Stmt:
        line = self._peek().line
        expr = self._parse_expr()
        if self._at_sym("=") or self._at_sym("+=") or self._at_sym("-="):
            op = self._advance().text
            value = self._parse_expr()
            if op != "=":
                value = ast.Binary(line=line, op=op[0], left=expr, right=value)
            if not isinstance(expr, (ast.NameRef, ast.FieldAccess,
                                     ast.IndexAccess)):
                raise ParseError("invalid assignment target", line, 0)
            return ast.Assign(line=line, target=expr, value=value)
        if self._at_sym("++") or self._at_sym("--"):
            op = self._advance().text
            if not isinstance(expr, ast.NameRef):
                raise ParseError("invalid ++/-- target", line, 0)
            one = ast.Literal(line=line, value=1)
            return ast.Assign(
                line=line, target=expr,
                value=ast.Binary(line=line, op=op[0], left=expr, right=one))
        return ast.ExprStmt(line=line, expr=expr)

    def _parse_if(self) -> ast.Stmt:
        line = self._expect("kw", "if").line
        self._expect("sym", "(")
        cond = self._parse_expr()
        self._expect("sym", ")")
        then_body = self._stmt_as_body()
        else_body: List[ast.Stmt] = []
        if self._accept_kw("else"):
            else_body = self._stmt_as_body()
        return ast.If(line=line, cond=cond, then_body=then_body,
                      else_body=else_body)

    def _parse_while(self) -> ast.Stmt:
        line = self._expect("kw", "while").line
        self._expect("sym", "(")
        cond = self._parse_expr()
        self._expect("sym", ")")
        return ast.While(line=line, cond=cond, body=self._stmt_as_body())

    def _parse_for(self) -> ast.Stmt:
        """Desugar ``for (init; cond; update) body`` into a while loop."""
        line = self._expect("kw", "for").line
        self._expect("sym", "(")
        init: Optional[ast.Stmt] = None
        if not self._at_sym(";"):
            if self._looks_like_var_decl():
                init = self._parse_var_decl()
            else:
                init = self._parse_expr_or_assign()
        self._expect("sym", ";")
        cond: ast.Expr = ast.Literal(line=line, value=True)
        if not self._at_sym(";"):
            cond = self._parse_expr()
        self._expect("sym", ";")
        update: Optional[ast.Stmt] = None
        if not self._at_sym(")"):
            update = self._parse_expr_or_assign()
        self._expect("sym", ")")
        body = self._stmt_as_body()
        if update is not None:
            body = body + [update]
        loop = ast.While(line=line, cond=cond, body=body)
        outer: List[ast.Stmt] = []
        if init is not None:
            outer.append(init)
        outer.append(loop)
        return ast.Block(line=line, body=outer)

    def _parse_try(self) -> ast.Stmt:
        line = self._expect("kw", "try").line
        body = self._parse_block()
        node = ast.Try(line=line, body=body)
        while self._at_kw("catch"):
            cline = self._advance().line
            self._expect("sym", "(")
            exc_type = self._parse_type()
            var = self._expect("id").text
            self._expect("sym", ")")
            cbody = self._parse_block()
            node.catches.append(ast.CatchClause(
                line=cline, exc_type=exc_type, var_name=var, body=cbody))
        if self._accept_kw("finally"):
            node.finally_body = self._parse_block()
        if not node.catches and not node.finally_body:
            raise ParseError("try without catch or finally", line, 0)
        return node

    def _stmt_as_body(self) -> List[ast.Stmt]:
        stmt = self._parse_stmt()
        if isinstance(stmt, ast.Block):
            return stmt.body
        return [stmt]

    # -- expressions ----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_logic()

    def _parse_logic(self) -> ast.Expr:
        left = self._parse_equality()
        while self.keys[self.pos] in ("&&", "||"):
            tok = self._advance()
            right = self._parse_equality()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_equality(self) -> ast.Expr:
        left = self._parse_relational()
        while self.keys[self.pos] in ("==", "!="):
            tok = self._advance()
            right = self._parse_relational()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_relational(self) -> ast.Expr:
        left = self._parse_additive()
        while self.keys[self.pos] in ("<", ">", "<=", ">="):
            tok = self._advance()
            right = self._parse_additive()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self.keys[self.pos] in ("+", "-"):
            tok = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self.keys[self.pos] in ("*", "/", "%"):
            tok = self._advance()
            right = self._parse_unary()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        if self.keys[self.pos] in ("!", "-"):
            self.pos += 1
            operand = self._parse_unary()
            return ast.Unary(line=tok.line, op=tok.text, operand=operand)
        if self._is_cast():
            self._expect("sym", "(")
            type_name = self._parse_type()
            self._expect("sym", ")")
            operand = self._parse_unary()
            return ast.Cast(line=tok.line, type_name=type_name,
                            operand=operand)
        return self._parse_postfix()

    def _is_cast(self) -> bool:
        """Heuristic: ``( Id )`` or ``( Id[] )`` followed by an expression
        start is a cast.  Casts to primitives are not supported (jlang has
        no narrowing conversions worth modeling)."""
        if not self._at_sym("("):
            return False
        if self._peek(1).kind != "id":
            return False
        idx = 2
        while self._peek(idx).text == "[" and self._peek(idx + 1).text == "]":
            idx += 2
        if self._peek(idx).text != ")":
            return False
        after = self._peek(idx + 1)
        if after.kind in ("id", "string", "int"):
            return True
        if after.kind == "kw" and after.text in ("this", "new", "null",
                                                 "true", "false"):
            return True
        return after.kind == "sym" and after.text in _EXPR_START_SYMS

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            key = self.keys[self.pos]
            if key == ".":
                self.pos += 1
                name = self._expect("id").text
                if self._at_sym("("):
                    args = self._parse_args()
                    expr = ast.MethodCall(line=self._peek().line,
                                          target=expr, method_name=name,
                                          args=args)
                else:
                    expr = ast.FieldAccess(line=self._peek().line,
                                           target=expr, field_name=name)
            elif key == "[":
                self.pos += 1
                index = self._parse_expr()
                self._expect("sym", "]")
                expr = ast.IndexAccess(line=self._peek().line, target=expr,
                                       index=index)
            else:
                return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect("sym", "(")
        args: List[ast.Expr] = []
        if not self._at_sym(")"):
            while True:
                args.append(self._parse_expr())
                if not self._accept_sym(","):
                    break
        self._expect("sym", ")")
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "id":
            self.pos += 1
            if self._at_sym("("):
                args = self._parse_args()
                return ast.MethodCall(line=tok.line, target=None,
                                      method_name=tok.text, args=args)
            return ast.NameRef(line=tok.line, name=tok.text)
        if tok.kind == "string":
            self._advance()
            return ast.Literal(line=tok.line, value=tok.text)
        if tok.kind == "int":
            self._advance()
            return ast.Literal(line=tok.line, value=int(tok.text))
        if self._accept_kw("true"):
            return ast.Literal(line=tok.line, value=True)
        if self._accept_kw("false"):
            return ast.Literal(line=tok.line, value=False)
        if self._accept_kw("null"):
            return ast.Literal(line=tok.line, value=None)
        if self._accept_kw("this"):
            return ast.ThisRef(line=tok.line)
        if self._at_kw("new"):
            return self._parse_new()
        if self._accept_sym("("):
            expr = self._parse_expr()
            self._expect("sym", ")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _parse_new(self) -> ast.Expr:
        line = self._expect("kw", "new").line
        type_name = self._parse_type()
        if type_name.endswith("[]"):
            # ``new T[] { a, b }`` — array literal.
            self._expect("sym", "{")
            elems: List[ast.Expr] = []
            if not self._at_sym("}"):
                while True:
                    elems.append(self._parse_expr())
                    if not self._accept_sym(","):
                        break
            self._expect("sym", "}")
            return ast.NewArrayExpr(line=line, element_type=type_name[:-2],
                                    initializer=elems)
        if self._at_sym("["):
            self._advance()
            length = self._parse_expr()
            self._expect("sym", "]")
            return ast.NewArrayExpr(line=line, element_type=type_name,
                                    length=length)
        args = self._parse_args()
        return ast.NewObject(line=line, class_name=type_name, args=args)


def parse(source: str, filename: str = "<string>") -> ast.CompilationUnit:
    """Parse jlang source text into a compilation unit."""
    return Parser(tokenize(source, filename)).parse_unit()
