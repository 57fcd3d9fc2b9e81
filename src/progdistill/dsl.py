"""Parser for the visual-program DSL.

The DSL is a line-oriented subset of Python: assignment, single-level if/else
with 4-space indented blocks, method-style module calls on `image` or patch
variables, integer indexing, len(), ==/!=/and/or/not, string/int/bool/list
literals, and return.

The full path takes three steps: a line scan with the DSL's own token pattern,
which also rejects the token pairs Python would read differently; Python's
ast.parse; and one walk that builds the DSL's AST classes from the Python tree
and rejects every construct outside the DSL; each literal holding a string
becomes a Slot, an index into the Program's table of literals. parse() runs it
once per shape: it blanks every string literal to "", takes the full path on
that skeleton the first time it is seen, and pairs the skeleton's code with
the text's decoded literals. Whatever does not line up (a rejected skeleton,
a literal count unlike the shape's, a fill too deep for the stack) takes the
full path on the text itself, so every ParseError comes from it.

Static guarantees enforced at parse time: variables are defined before use,
every execution path reaches exactly one return, module-call arity matches the
module kind, no statement is unreachable, no if nests in another, blocks are
indented by exactly 4 spaces, and every statement is one line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from typing import Union

from .util import shared_set

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
class Slot:
    index: int  # a literal that holds a string: Program.literals[index]


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


Expr = Union[Literal, Slot, Var, ImageRef, Call, Index, Len, Compare, BoolOp,
             NotOp]


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
    code: tuple[Stmt, ...]  # shared by every text of the same shape
    source_text: str
    module_kinds: frozenset[str] = frozenset()  # the kind of every call in it
    literals: tuple = ()  # the value of each Slot of `code`

    @property
    def statements(self) -> tuple[Stmt, ...]:
        """`code` with its Slots filled in: for tests and introspection."""
        return _unslot(self.code, self.literals)


def _unslot(code: tuple, literals: tuple) -> tuple:
    """`code` rebuilt bottom-up with a Literal for each Slot. The walk keeps
    its own stack, not one Python frame per level, since a program that
    parses may nest thousands of levels deep."""
    stack: list = [(code, None)]
    built: list = []
    while stack:
        node, parts = stack.pop()
        if parts is not None:  # its parts are the last `len(parts)` built
            args = built[len(built) - len(parts):]
            del built[len(built) - len(parts):]
            built.append(tuple(args) if type(node) is tuple
                         else type(node)(*args))
        elif type(node) is Slot:
            built.append(Literal(literals[node.index]))
        elif type(node) is tuple or is_dataclass(node):
            parts = node if type(node) is tuple else [
                getattr(node, name) for name in node.__slots__]
            stack.append((node, parts))
            stack += [(part, None) for part in reversed(parts)]
        else:
            built.append(node)  # a name, operator or index of a node
    return built[0]


# ---------------------------------------------------------------------------
# Parser: a line scan, Python's own parser, one whitelist walk
# ---------------------------------------------------------------------------

# The DSL's tokens, ASCII only; BAD is an unterminated string, a string with
# an escape other than \n \t \" \\, or any other character.
_TOKEN_RE = re.compile(r"""
    (?P<WS>[ ]+)
  | (?P<STRING>"(?:[^"\\]|\\[nt"\\])*")
  | (?P<INT>\d+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>==|!=|[=.\[\](),:])
  | (?P<BAD>"(?:[^"\\]|\\.)*"?|.)
""", re.VERBOSE | re.ASCII)

# Python's parser takes no NUL and no lone surrogate, and reads a lone CR as
# a line break; the scan lets them through only inside a string, where they
# become escapes for the same value.
_UNPARSABLE_RE = re.compile("[\0\r\ud800-\udfff]")

# A line ends at LF or CRLF only. str.splitlines would also break at CR, VT,
# FF, \x1c-\x1e, NEL, LS and PS, which a string literal may hold (a question
# carrying one must still make a fallback program that parses); outside a
# string they are lexical errors.
_LINE_END_RE = re.compile(r"\r?\n")

# Token pairs that Python reads differently from the DSL: a trailing comma,
# and a parenthesised callee such as `(image.find)("a")`.
_BAD_PAIRS = {(",", ")"), (",", "]"), (")", "(")}


def _scan(source: str) -> str:
    """Check every line against the DSL's tokens; return the text for
    ast.parse, with the same line numbers as `source`.

    Besides what the DSL never lexed, this rejects what Python would merge:
    adjacent strings (`"a" "b"`), a name before a string (`r"a"`), an integer
    glued to a name or a dot (`1_000`, `0x1f`, `1.5`), and a line whose
    brackets do not close on it, so each statement is one line. A lexical
    error anywhere wins over these, as the whole text is lexed first.
    """
    lines: list[str] = []
    problems: list[ParseError] = []
    for number, raw in enumerate(_LINE_END_RE.split(source), start=1):
        if not raw.strip(" "):  # blank: empty or spaces (WS) only
            lines.append("")
            continue
        prev_kind = prev_text = None
        prev_end = depth = 0
        for m in _TOKEN_RE.finditer(raw):
            kind, text, col = m.lastgroup, m.group(), m.start() + 1
            if kind == "WS":
                continue
            if kind == "BAD":
                raise ParseError("lexical", f"unexpected {text!r}", number, col)
            if ((prev_kind, kind) in (("STRING", "STRING"), ("NAME", "STRING"))
                    and prev_text not in KEYWORDS
                    or prev_kind == "INT" and prev_end == m.start()
                    and (kind == "NAME" or text == ".")
                    or (prev_text, text) in _BAD_PAIRS):
                problems.append(ParseError(
                    "syntactic", f"{prev_text!r} before {text!r}", number, col))
            depth += (text in ("(", "[")) - (text in (")", "]"))
            prev_kind, prev_text, prev_end = kind, text, m.end()
        if depth:
            problems.append(ParseError("syntactic", "unclosed bracket", number,
                                       len(raw)))
        lines.append(_UNPARSABLE_RE.sub(
            lambda m: f"\\u{ord(m.group()):04x}", raw))
    if problems:
        raise problems[0]
    return "\n".join(lines) + "\n"


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"})


def escape_string(value: str) -> str:
    """Render a string as a DSL literal that parses back to `value`: only the
    DSL's four escapes (\\\\, \\", \\n, \\t) are written."""
    if "\\" in value or '"' in value or "\n" in value or "\t" in value:
        value = value.translate(_ESCAPES)
    return '"' + value + '"'


_COMPARE_OPS = {ast.Eq: "==", ast.NotEq: "!="}


class _Walker:
    """Turns a Python syntax tree into DSL statements, rejecting everything
    outside the DSL and checking its static guarantees on the way."""

    def __init__(self) -> None:
        self.module_kinds: set[str] = set()
        self.literals: list = []  # the values of the Slots made so far

    def literal(self, value: object, slotted: bool) -> Expr:
        """A Literal, or the next Slot for a value that holds a string."""
        if slotted:
            self.literals.append(value)
            return Slot(len(self.literals) - 1)
        return Literal(value)

    def block(self, body: list[ast.stmt], defined: set[str],
              depth: int) -> tuple[tuple[Stmt, ...], bool]:
        stmts: list[Stmt] = []
        terminated = False
        for node in body:
            if terminated:
                raise ParseError("structure", "unreachable statement after return",
                                 node.lineno)
            if node.col_offset != depth * INDENT:
                raise ParseError("syntactic",
                                 f"a body is indented by {INDENT} spaces",
                                 node.lineno, node.col_offset + 1)
            stmt, stmt_terminates = self.statement(node, defined, depth)
            stmts.append(stmt)
            terminated = stmt_terminates
        return tuple(stmts), terminated

    def statement(self, node: ast.stmt, defined: set[str],
                  depth: int) -> tuple[Stmt, bool]:
        if isinstance(node, ast.Return) and node.value is not None:
            return Return(self.expr(node.value, defined)), True
        if isinstance(node, ast.If):
            if depth >= 1:
                raise ParseError("syntactic", "nested if is not supported",
                                 node.lineno, node.col_offset + 1)
            cond = self.expr(node.test, defined)
            then_defined, else_defined = set(defined), set(defined)
            then_body, then_term = self.block(node.body, then_defined, depth + 1)
            else_body, else_term = self.block(node.orelse, else_defined, depth + 1)
            # Definedness after the if is flow-sensitive: a branch that always
            # returns contributes nothing to the continuation.
            if else_body:
                if then_term and not else_term:
                    defined.update(else_defined)
                elif else_term and not then_term:
                    defined.update(then_defined)
                else:
                    defined.update(then_defined & else_defined)
            return If(cond, then_body, else_body), then_term and else_term
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(target := node.targets[0], ast.Name)
                and target.col_offset == node.col_offset):
            if target.id in KEYWORDS or target.id in MODULE_ARITY:
                raise ParseError("syntactic", f"{target.id!r} cannot be assigned",
                                 node.lineno, node.col_offset + 1)
            expr = self.expr(node.value, defined)
            defined.add(target.id)
            return Assign(target.id, expr), False
        raise ParseError("syntactic", "expected assignment, if, or return",
                         node.lineno, node.col_offset + 1)

    def expr(self, node: ast.expr, defined: set[str]) -> Expr:
        if isinstance(node, ast.Constant) and type(node.value) in (str, int, bool):
            return self.literal(node.value, type(node.value) is str)
        if isinstance(node, ast.Name):
            if node.id == "image":
                return ImageRef()
            if node.id in KEYWORDS:
                raise ParseError("syntactic", f"unexpected keyword {node.id!r}",
                                 node.lineno, node.col_offset + 1)
            if node.id not in defined:
                raise ParseError("undefined_variable",
                                 f"variable {node.id!r} used before assignment",
                                 node.lineno, node.col_offset + 1)
            return Var(node.id)
        if isinstance(node, ast.List):
            first = len(self.literals)
            items = [self.expr(item, defined) for item in node.elts]
            if all(type(item) in (Literal, Slot) for item in items):
                value = tuple(self.literals[item.index] if type(item) is Slot
                              else item.value for item in items)
                del self.literals[first:]  # the items' Slots become one
                return self.literal(value, Slot in map(type, items))
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and type(node.slice.value) is int):
            return Index(self.expr(node.value, defined), node.slice.value)
        if isinstance(node, ast.Call) and not node.keywords:
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "len"
                    and len(node.args) == 1):
                return Len(self.expr(node.args[0], defined))
            if isinstance(func, ast.Attribute):
                receiver = self.expr(func.value, defined)
                args = tuple(self.expr(arg, defined) for arg in node.args)
                kind = func.attr
                if kind in MODULE_ARITY and len(args) != MODULE_ARITY[kind]:
                    raise ParseError(
                        "arity",
                        f"{kind} takes {MODULE_ARITY[kind]} argument(s), got {len(args)}",
                        node.lineno, node.col_offset + 1)
                self.module_kinds.add(kind)
                return Call(kind, receiver, args)
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and type(node.ops[0]) in _COMPARE_OPS):
            return Compare(_COMPARE_OPS[type(node.ops[0])],
                           self.expr(node.left, defined),
                           self.expr(node.comparators[0], defined))
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            left = self.expr(node.values[0], defined)
            for value in node.values[1:]:
                left = BoolOp(op, left, self.expr(value, defined))
            return left
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return NotOp(self.expr(node.operand, defined))
        raise ParseError("syntactic", f"{type(node).__name__} is not in the DSL",
                         node.lineno, node.col_offset + 1)


def _parse_full(source: str) -> Program:
    """The line scan, ast.parse and the walk over one text."""
    walker = _Walker()
    try:
        tree = ast.parse(_scan(source))
        statements, terminates = walker.block(tree.body, set(), depth=0)
    except SyntaxError as exc:
        raise ParseError("syntactic", exc.msg, exc.lineno or 0,
                         exc.offset or 0) from None
    except RecursionError:
        raise ParseError("syntactic", "program nests too deeply") from None
    if not statements:
        raise ParseError("syntactic", "empty program", 1)
    if not terminates:
        raise ParseError("structure", "not every execution path returns",
                         tree.body[-1].end_lineno)
    return Program(statements, source,
                   shared_set(frozenset(walker.module_kinds)),
                   tuple(walker.literals))


# The scan's STRING token, kept within one line; group 1 is the body. Where
# the scan lexes a text cleanly, these matches are exactly its string tokens;
# where it does not, the skeleton keeps the token it fails on and fails too.
_STRING_RE = re.compile(r'"((?:[^"\\\n]|\\[nt"\\])*)"')
_ESCAPE_RE = re.compile(r'\\[nt"\\]')
_UNESCAPES = {"\\n": "\n", "\\t": "\t", '\\"': '"', "\\\\": "\\"}


# Generated programs have a few dozen shapes at most; rejected skeletons, such
# as those of corrupted programs, are kept too (as None).
@lru_cache(maxsize=256)
def _shape(skeleton: str) -> Program | None:
    """The program of a text whose string literals are all "" (the templates
    of its literals), or None if the full path rejects it."""
    try:
        return _parse_full(skeleton)
    except ParseError:
        return None


def _fill_value(value: object, values: list[str]) -> object:
    if type(value) is str:
        return values.pop()
    if type(value) is tuple:
        return tuple([_fill_value(item, values) for item in value])
    return value


# Parsing is pure, and the pipeline parses the same texts again in every run,
# evaluation and ablation: a default-config recipe makes 50,252 calls over
# 1,226 distinct texts of 16 shapes, a bench-scale wide-vocab run 5,341 calls
# over 1,897 texts of 11 shapes. Programs are immutable, so every caller shares
# the cached Program, and the Programs of one shape share its code. Failures
# are not cached: each call raises a fresh ParseError.
@lru_cache(maxsize=4096)
def parse(source: str) -> Program:
    """Parse a program or raise a ParseError with a distinguishable kind."""
    parts = _STRING_RE.split(source)
    shape = _shape('""'.join(parts[::2]))
    if shape is not None:
        values = [_ESCAPE_RE.sub(lambda m: _UNESCAPES[m[0]], body)
                  if "\\" in body else body for body in reversed(parts[1::2])]
        try:
            literals = _fill_value(shape.literals, values)
        except (IndexError, RecursionError):  # fewer literals than slots; deep
            pass
        else:
            if not values:  # every literal filled a slot
                return Program(shape.code, source, shape.module_kinds,
                               literals)
    return _parse_full(source)
