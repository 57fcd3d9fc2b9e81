"""Parser for the visual-program DSL.

Line-oriented grammar: assignment, single-level if/else with 4-space indented
blocks, method-style module calls on `image` or patch variables, integer
indexing, len(), ==/!=/and/or/not, string/int/bool/list literals, and return.

Static guarantees enforced at parse time: variables are defined before use,
every execution path reaches exactly one return, module-call arity matches the
module kind, and no statement is unreachable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

MODULE_ARITY = {
    "find": 1,
    "exists": 0,
    "verify_property": 2,
    "best_text_match": 1,
    "simple_query": 1,
}
MODULE_KINDS = tuple(MODULE_ARITY)

KEYWORDS = {"if", "else", "return", "and", "or", "not", "len", "True",
            "False", "image"}

INDENT = 4


class ParseError(Exception):
    """Parse failure with a distinguishable kind.

    kind is one of: lexical, syntactic, arity, undefined_variable, structure.
    """

    def __init__(self, kind: str, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{kind} error at line {line}, col {column}: {message}")
        self.kind = kind
        self.line = line
        self.column = column
        self.reason = message


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Literal:
    value: object  # str | int | bool | tuple of literal values


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class ImageRef:
    pass


@dataclass(frozen=True, slots=True)
class Call:
    module_kind: str
    receiver: "Expr"
    args: tuple["Expr", ...]


@dataclass(frozen=True, slots=True)
class Index:
    target: "Expr"
    index: int


@dataclass(frozen=True, slots=True)
class Len:
    target: "Expr"


@dataclass(frozen=True, slots=True)
class Compare:
    op: str  # "==" | "!="
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class BoolOp:
    op: str  # "and" | "or"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class NotOp:
    operand: "Expr"


Expr = Union[Literal, Var, ImageRef, Call, Index, Len, Compare, BoolOp, NotOp]


@dataclass(frozen=True, slots=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class If:
    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...] = ()


@dataclass(frozen=True, slots=True)
class Return:
    expr: Expr


Stmt = Union[Assign, If, Return]


@dataclass(frozen=True, slots=True)
class Program:
    statements: tuple[Stmt, ...]
    source_text: str


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # NAME, INT, STRING, OP
    value: object
    line: int
    column: int


_TOKEN_RE = re.compile(r"""
    (?P<WS>[ ]+)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<BADSTRING>"(?:[^"\\\n]|\\.)*$)
  | (?P<INT>\d+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>==|!=|[=.\[\](),:])
""", re.VERBOSE)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(raw: str, line: int, col: int) -> str:
    out = []
    i = 0
    body = raw[1:-1]
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            esc = body[i]
            if esc not in _ESCAPES:
                raise ParseError("lexical", f"bad escape \\{esc}", line, col)
            out.append(_ESCAPES[esc])
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def escape_string(value: str) -> str:
    """Render a string as a DSL literal (inverse of the tokenizer's unescape)."""
    out = ['"']
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("lexical", f"unexpected character {text[pos]!r}",
                             line_no, pos + 1)
        kind = m.lastgroup
        raw = m.group()
        col = pos + 1
        if kind == "BADSTRING":
            raise ParseError("lexical", "unterminated string", line_no, col)
        if kind == "STRING":
            tokens.append(Token("STRING", _unescape(raw, line_no, col), line_no, col))
        elif kind == "INT":
            tokens.append(Token("INT", int(raw), line_no, col))
        elif kind == "NAME":
            tokens.append(Token("NAME", raw, line_no, col))
        elif kind == "OP":
            tokens.append(Token("OP", raw, line_no, col))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@dataclass
class _Line:
    number: int
    indent: int
    tokens: list[Token]


class _ExprParser:
    def __init__(self, tokens: list[Token], defined: set[str], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.defined = defined
        self.line_no = line_no

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _advance(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("syntactic", "unexpected end of line", self.line_no)
        self.pos += 1
        return tok

    def _expect_op(self, op: str) -> Token:
        tok = self._advance()
        if tok.kind != "OP" or tok.value != op:
            raise ParseError("syntactic", f"expected {op!r}, found {tok.value!r}",
                             tok.line, tok.column)
        return tok

    def _at_op(self, op: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "OP" and tok.value == op

    def _at_name(self, name: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "NAME" and tok.value == name

    def parse_expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._at_name("or"):
            self._advance()
            left = BoolOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._at_name("and"):
            self._advance()
            left = BoolOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._at_name("not"):
            self._advance()
            return NotOp(self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._postfix()
        tok = self._peek()
        if tok is not None and tok.kind == "OP" and tok.value in ("==", "!="):
            self._advance()
            return Compare(tok.value, left, self._postfix())
        return left

    def _postfix(self) -> Expr:
        node = self._atom()
        while True:
            if self._at_op("."):
                self._advance()
                name_tok = self._advance()
                if name_tok.kind != "NAME":
                    raise ParseError("syntactic", "expected method name after '.'",
                                     name_tok.line, name_tok.column)
                self._expect_op("(")
                args: list[Expr] = []
                if not self._at_op(")"):
                    args.append(self.parse_expr())
                    while self._at_op(","):
                        self._advance()
                        args.append(self.parse_expr())
                self._expect_op(")")
                kind = name_tok.value
                if kind in MODULE_ARITY and len(args) != MODULE_ARITY[kind]:
                    raise ParseError(
                        "arity",
                        f"{kind} takes {MODULE_ARITY[kind]} argument(s), got {len(args)}",
                        name_tok.line, name_tok.column)
                node = Call(kind, node, tuple(args))
            elif self._at_op("["):
                open_tok = self._advance()
                idx_tok = self._advance()
                if idx_tok.kind != "INT":
                    raise ParseError("syntactic", "index must be an integer literal",
                                     open_tok.line, open_tok.column)
                self._expect_op("]")
                node = Index(node, idx_tok.value)
            else:
                return node

    def _atom(self) -> Expr:
        tok = self._advance()
        if tok.kind == "STRING":
            return Literal(tok.value)
        if tok.kind == "INT":
            return Literal(tok.value)
        if tok.kind == "NAME":
            name = tok.value
            if name in ("True", "False"):
                return Literal(name == "True")
            if name == "image":
                return ImageRef()
            if name == "len":
                self._expect_op("(")
                inner = self.parse_expr()
                self._expect_op(")")
                return Len(inner)
            if name in KEYWORDS:
                raise ParseError("syntactic", f"unexpected keyword {name!r}",
                                 tok.line, tok.column)
            if name not in self.defined:
                raise ParseError("undefined_variable",
                                 f"variable {name!r} used before assignment",
                                 tok.line, tok.column)
            return Var(name)
        if tok.kind == "OP" and tok.value == "(":
            inner = self.parse_expr()
            self._expect_op(")")
            return inner
        if tok.kind == "OP" and tok.value == "[":
            items: list[Expr] = []
            if not self._at_op("]"):
                items.append(self.parse_expr())
                while self._at_op(","):
                    self._advance()
                    items.append(self.parse_expr())
            self._expect_op("]")
            values = []
            for item in items:
                if not isinstance(item, Literal):
                    raise ParseError("syntactic", "list items must be literals",
                                     tok.line, tok.column)
                values.append(item.value)
            return Literal(tuple(values))
        raise ParseError("syntactic", f"unexpected token {tok.value!r}",
                         tok.line, tok.column)

    def finish(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise ParseError("syntactic", f"trailing tokens from {tok.value!r}",
                             tok.line, tok.column)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.lines: list[_Line] = []
        for number, raw in enumerate(source.splitlines(), start=1):
            if not raw.strip():
                continue
            stripped = raw.lstrip(" ")
            if "\t" in raw[: len(raw) - len(stripped)]:
                raise ParseError("lexical", "tabs are not allowed in indentation",
                                 number, 1)
            indent = len(raw) - len(stripped)
            self.lines.append(_Line(number, indent, _tokenize_line(stripped, number)))
        self.pos = 0

    def _peek(self) -> _Line | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def parse(self) -> Program:
        if not self.lines:
            raise ParseError("syntactic", "empty program", 1)
        defined: set[str] = set()
        stmts, terminates = self._parse_block(0, defined, depth=0)
        if self._peek() is not None:
            line = self._peek()
            raise ParseError("syntactic", "unexpected indentation",
                             line.number, line.indent + 1)
        if not terminates:
            raise ParseError("structure", "not every execution path returns",
                             self.lines[-1].number)
        return Program(statements=tuple(stmts), source_text=self.source)

    def _parse_block(self, indent: int, defined: set[str],
                     depth: int) -> tuple[list[Stmt], bool]:
        stmts: list[Stmt] = []
        terminated = False
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                break
            if line.indent > indent:
                raise ParseError("syntactic", "unexpected indentation",
                                 line.number, line.indent + 1)
            first = line.tokens[0] if line.tokens else None
            if first is not None and first.kind == "NAME" and first.value == "else":
                break
            if terminated:
                raise ParseError("structure", "unreachable statement after return",
                                 line.number)
            stmt, stmt_terminates = self._parse_statement(line, defined, depth)
            stmts.append(stmt)
            terminated = terminated or stmt_terminates
        if not stmts:
            line = self._peek()
            raise ParseError("syntactic", "expected an indented block",
                             line.number if line else 0)
        return stmts, terminated

    def _parse_statement(self, line: _Line, defined: set[str],
                         depth: int) -> tuple[Stmt, bool]:
        self.pos += 1
        tokens = line.tokens
        first = tokens[0]

        if first.kind == "NAME" and first.value == "return":
            ep = _ExprParser(tokens[1:], defined, line.number)
            expr = ep.parse_expr()
            ep.finish()
            return Return(expr), True

        if first.kind == "NAME" and first.value == "if":
            if depth >= 1:
                raise ParseError("syntactic", "nested if is not supported",
                                 line.number, first.column)
            if not (tokens and tokens[-1].kind == "OP" and tokens[-1].value == ":"):
                raise ParseError("syntactic", "if line must end with ':'",
                                 line.number, first.column)
            ep = _ExprParser(tokens[1:-1], defined, line.number)
            cond = ep.parse_expr()
            ep.finish()
            then_defined = set(defined)
            then_body, then_term = self._parse_block(line.indent + INDENT,
                                                     then_defined, depth + 1)
            else_body: list[Stmt] = []
            else_term = False
            else_defined = set(defined)
            nxt = self._peek()
            if (nxt is not None and nxt.indent == line.indent and nxt.tokens
                    and nxt.tokens[0].kind == "NAME" and nxt.tokens[0].value == "else"):
                if not (len(nxt.tokens) == 2 and nxt.tokens[1].kind == "OP"
                        and nxt.tokens[1].value == ":"):
                    raise ParseError("syntactic", "else line must be 'else:'",
                                     nxt.number, nxt.tokens[0].column)
                self.pos += 1
                else_body, else_term = self._parse_block(line.indent + INDENT,
                                                         else_defined, depth + 1)
            # Definedness after the if is flow-sensitive: a branch that always
            # returns contributes nothing to the continuation.
            if else_body:
                if then_term and not else_term:
                    defined.update(else_defined)
                elif else_term and not then_term:
                    defined.update(then_defined)
                else:
                    defined.update(then_defined & else_defined)
            terminates = bool(else_body) and then_term and else_term
            return If(cond, tuple(then_body), tuple(else_body)), terminates

        if (first.kind == "NAME" and len(tokens) >= 2 and tokens[1].kind == "OP"
                and tokens[1].value == "="):
            name = first.value
            if name in KEYWORDS or name in MODULE_ARITY:
                raise ParseError("syntactic", f"{name!r} cannot be assigned",
                                 line.number, first.column)
            ep = _ExprParser(tokens[2:], defined, line.number)
            expr = ep.parse_expr()
            ep.finish()
            defined.add(name)
            return Assign(name, expr), False

        raise ParseError("syntactic", "expected assignment, if, or return",
                         line.number, first.column)


# Parsing is pure, and the pipeline parses the same texts again in every run,
# evaluation and ablation: a default-config recipe makes about 50,000 calls over
# about 1,200 distinct texts. Programs are immutable, so every caller shares the
# cached Program. Failures are not cached: each call raises a fresh ParseError.
@lru_cache(maxsize=4096)
def parse(source: str) -> Program:
    """Parse a program or raise a ParseError with a distinguishable kind."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

_PREC = {"or": 1, "and": 2, "not": 3, "cmp": 4, "postfix": 5}


def _render_literal(value: object) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return escape_string(value)
    if isinstance(value, tuple):
        return "[" + ", ".join(_render_literal(v) for v in value) + "]"
    raise TypeError(f"cannot render literal {value!r}")


def _render_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Literal):
        return _render_literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, ImageRef):
        return "image"
    if isinstance(expr, Len):
        return f"len({_render_expr(expr.target)})"
    if isinstance(expr, Call):
        recv = _render_expr(expr.receiver, _PREC["postfix"])
        args = ", ".join(_render_expr(a) for a in expr.args)
        return f"{recv}.{expr.module_kind}({args})"
    if isinstance(expr, Index):
        return f"{_render_expr(expr.target, _PREC['postfix'])}[{expr.index}]"
    if isinstance(expr, Compare):
        text = (f"{_render_expr(expr.left, _PREC['cmp'] + 1)} {expr.op} "
                f"{_render_expr(expr.right, _PREC['cmp'] + 1)}")
        return f"({text})" if parent_prec > _PREC["cmp"] else text
    if isinstance(expr, NotOp):
        text = f"not {_render_expr(expr.operand, _PREC['not'])}"
        return f"({text})" if parent_prec > _PREC["not"] else text
    if isinstance(expr, BoolOp):
        prec = _PREC[expr.op]
        text = (f"{_render_expr(expr.left, prec)} {expr.op} "
                f"{_render_expr(expr.right, prec + 1)}")
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"cannot render {expr!r}")


def _render_stmt(stmt: Stmt, indent: int, out: list[str]) -> None:
    pad = " " * indent
    if isinstance(stmt, Assign):
        out.append(f"{pad}{stmt.var} = {_render_expr(stmt.expr)}")
    elif isinstance(stmt, Return):
        out.append(f"{pad}return {_render_expr(stmt.expr)}")
    elif isinstance(stmt, If):
        out.append(f"{pad}if {_render_expr(stmt.cond)}:")
        for inner in stmt.then_body:
            _render_stmt(inner, indent + INDENT, out)
        if stmt.else_body:
            out.append(f"{pad}else:")
            for inner in stmt.else_body:
                _render_stmt(inner, indent + INDENT, out)
    else:
        raise TypeError(f"cannot render {stmt!r}")


def unparse(program: Program) -> str:
    out: list[str] = []
    for stmt in program.statements:
        _render_stmt(stmt, 0, out)
    return "\n".join(out) + "\n"
