import dataclasses
import hashlib
import itertools
import random
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from progdistill import dsl
from progdistill.dsl import (INDENT, Assign, BoolOp, Call, Compare, Expr, If,
                             ImageRef, Index, Len, Literal, NotOp, ParseError,
                             Program, Return, Slot, Stmt, Var, _parse_full,
                             escape_string, parse)
from progdistill.backends import perfect_registry
from progdistill.interpreter import execute, fallback_program
from progdistill.questions import generate_qa
from progdistill.worlds import WorldStore, generate_world

TWO_STATEMENT = (
    'p = image.find("flower")\n'
    'return p[0].simple_query("What color is this flower?")\n'
)


class TestParse:
    def test_two_statement_program(self):
        program = parse(TWO_STATEMENT)
        assert len(program.statements) == 2
        assign, ret = program.statements
        assert isinstance(assign, Assign) and assign.var == "p"
        assert isinstance(assign.expr, Call) and assign.expr.module_kind == "find"
        assert isinstance(assign.expr.receiver, ImageRef)
        assert isinstance(ret, Return)
        call = ret.expr
        assert isinstance(call, Call) and call.module_kind == "simple_query"
        assert isinstance(call.receiver, Index) and call.receiver.index == 0

    def test_if_else_and_operators(self):
        source = (
            'a = image.find("dog")\n'
            'b = image.find("cup")\n'
            'ea = a.exists()\n'
            'eb = b.exists()\n'
            'both = ea and eb\n'
            'if both:\n'
            '    ans = len(a) == 1\n'
            'else:\n'
            '    ans = not eb\n'
            'return ans\n'
        )
        program = parse(source)
        branch = program.statements[5]
        assert isinstance(branch, If)
        assert isinstance(branch.then_body[0].expr, Compare)
        assert isinstance(branch.else_body[0].expr, NotOp)

    def test_syntactic_error(self):
        with pytest.raises(ParseError) as err:
            parse("return (\n")
        assert err.value.kind == "syntactic"
        with pytest.raises(ParseError) as err:
            parse("x = len\nreturn x\n")  # a keyword is not a value
        assert err.value.kind == "syntactic"

    def test_lexical_errors(self):
        with pytest.raises(ParseError) as err:
            parse('return "unterminated\n')
        assert err.value.kind == "lexical"
        with pytest.raises(ParseError) as err:
            parse("return @\n")
        assert err.value.kind == "lexical"
        with pytest.raises(ParseError) as err:
            parse('if True:\n\treturn "x"\n')
        assert err.value.kind == "lexical"

    def test_arity_error(self):
        with pytest.raises(ParseError) as err:
            parse('return image.find("a", "b")\n')
        assert err.value.kind == "arity"
        with pytest.raises(ParseError) as err:
            parse('p = image.find("a")\nreturn p[0].verify_property("a")\n')
        assert err.value.kind == "arity"

    def test_undefined_variable(self):
        with pytest.raises(ParseError) as err:
            parse("return missing\n")
        assert err.value.kind == "undefined_variable"
        # assigned only in one branch -> still undefined afterwards
        with pytest.raises(ParseError) as err:
            parse('if True:\n    x = 1\nreturn x\n')
        assert err.value.kind == "undefined_variable"

    def test_branch_assignment_in_both_arms_is_defined(self):
        program = parse('if True:\n    x = 1\nelse:\n    x = 2\nreturn x\n')
        assert isinstance(program.statements[-1], Return)

    def test_structure_errors(self):
        with pytest.raises(ParseError) as err:
            parse('x = 1\n')  # no return anywhere
        assert err.value.kind == "structure"
        with pytest.raises(ParseError) as err:
            parse('if True:\n    x = 1\nreturn 1\nreturn 2\n')
        assert err.value.kind == "structure"
        with pytest.raises(ParseError) as err:
            parse('if True:\n    return 1\n')  # else path never returns
        assert err.value.kind == "structure"

    def test_one_return_per_path_allows_mixed_shapes(self):
        parse('if True:\n    return "a"\nelse:\n    x = 1\nreturn x\n')

    def test_nested_if_rejected(self):
        source = ('if True:\n'
                  '    if False:\n'
                  '        return 1\n'
                  'return 2\n')
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.kind == "syntactic"

    def test_keywords_not_assignable(self):
        for name in ("image", "return", "len", "find"):
            with pytest.raises(ParseError):
                parse(f"{name} = 1\nreturn 1\n")

    def test_unknown_method_parses(self):
        # unknown module kinds are a runtime concern, not a parse error
        program = parse('return image.inspect_aura("x")\n')
        assert program.statements[0].expr.module_kind == "inspect_aura"

    def test_string_escapes_round_trip(self):
        program = parse('return "a \\"b\\" \\n\\t\\\\"\n')
        assert program.statements[0].expr.value == 'a "b" \n\t\\'

    def test_list_literals(self):
        program = parse('return image.simple_query("q") == "x" or False\n')
        assert isinstance(program.statements[0].expr, BoolOp)
        program = parse('p = image.find("a")\nreturn p[0].best_text_match(["x", "y"])\n')
        call = program.statements[1].expr
        assert call.args[0].value == ("x", "y")


class TestParseCache:
    def test_repeated_parse_returns_identical_program(self):
        first = parse(TWO_STATEMENT)
        # an equal text built as a separate string object hits the same entry
        again = parse("".join(list(TWO_STATEMENT)))
        assert again is first

    def test_ast_nodes_are_slotted_and_frozen(self):
        program = parse(TWO_STATEMENT)
        nodes = [program, *program.statements, program.statements[0].expr]
        for node in nodes:
            assert not hasattr(node, "__dict__"), type(node).__name__
        with pytest.raises(AttributeError):
            program.source_text = "changed"

    @pytest.mark.parametrize("source", [
        "return (\n",
        'return "unterminated\n',
        'p = image.find("a")\nreturn p[0].verify_property("a")\n',
        'if True:\n    x = 1\nreturn x\n',
        "x = 1\n",
    ])
    def test_bad_text_raises_the_same_error_every_call(self, source):
        seen = set()
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                parse(source)
            seen.add((err.value.kind, err.value.line, err.value.column))
        assert len(seen) == 1


# ---------------------------------------------------------------------------
# Round-trip property over generated programs
# ---------------------------------------------------------------------------

# A pretty-printer, the inverse of parse() up to layout.

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


NOUNS = ["flower", "table", "dog"]
ATTRS = ["red", "blue", "small"]


def _random_expr(rng, names, depth=0):
    choices = ["literal", "var", "call", "len", "compare", "bool", "not", "index"]
    if depth > 2:
        choices = ["literal", "var"]
    kind = rng.choice(choices if names else [c for c in choices if c != "var"])
    if kind == "literal":
        return rng.choice([
            Literal(rng.choice(ATTRS)),
            Literal(rng.randint(0, 5)),
            Literal(rng.random() < 0.5),
            Literal(tuple(rng.sample(ATTRS, 2))),
        ])
    if kind == "var":
        return Var(rng.choice(sorted(names)))
    if kind == "call":
        receiver = ImageRef() if rng.random() < 0.5 or not names \
            else Var(rng.choice(sorted(names)))
        module = rng.choice(["find", "exists", "verify_property",
                             "best_text_match", "simple_query"])
        arity = {"find": 1, "exists": 0, "verify_property": 2,
                 "best_text_match": 1, "simple_query": 1}[module]
        args = tuple(Literal(rng.choice(NOUNS)) for _ in range(arity))
        return Call(module, receiver, args)
    if kind == "len":
        return Len(_random_expr(rng, names, depth + 1))
    if kind == "compare":
        return Compare(rng.choice(["==", "!="]),
                       _random_expr(rng, names, depth + 1),
                       _random_expr(rng, names, depth + 1))
    if kind == "bool":
        return BoolOp(rng.choice(["and", "or"]),
                      _random_expr(rng, names, depth + 1),
                      _random_expr(rng, names, depth + 1))
    if kind == "not":
        return NotOp(_random_expr(rng, names, depth + 1))
    return Index(_random_expr(rng, names, depth + 1), rng.randint(0, 3))


def _random_program_source(rng):
    names = set()
    stmts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.25 and len(names) < 6:
            cond = _random_expr(rng, names)
            var = f"v{len(names)}"
            then_body = (Assign(var, _random_expr(rng, names)),)
            else_body = (Assign(var, _random_expr(rng, names)),)
            stmts.append(If(cond, then_body, else_body))
            names.add(var)
        else:
            var = f"v{len(names)}"
            stmts.append(Assign(var, _random_expr(rng, names)))
            names.add(var)
    stmts.append(Return(_random_expr(rng, names)))
    return unparse(Program(tuple(stmts), ""))


def test_unparse_parse_round_trip_1000_programs():
    rng = random.Random("roundtrip")
    for i in range(1000):
        source = _random_program_source(rng)
        first = parse(source)
        again = parse(unparse(first))
        assert again.statements == first.statements, source


# Pieces of the DSL's own alphabet. Joined at random they get past the line
# scan, which rejects most arbitrary text, to Python's parser and the walk.
DSL_PIECES = ["p", "x", "r", "image", ".find(", ".exists(", "len(", "(", ")",
              "[0]", "[", "]", '"a"', '"\\n"', '"\\d"', "1", "==", "!=", "=",
              ":", ",", "and ", "or ", "not ", "if ", "else:", "return ", " ",
              "\n", "\n    "]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(max_size=120),
    st.lists(st.sampled_from(DSL_PIECES), max_size=40).map("".join)))
def test_parse_never_raises_anything_but_parse_error(text):
    # Python warns about some escapes and number forms (a SyntaxWarning); the
    # line scan must reject those texts before Python's parser sees them.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse(text)
        except ParseError:
            pass
    assert not caught, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# parse() against the full path it skips for a known program shape
# ---------------------------------------------------------------------------

def _outcome(parse_fn, text):
    try:
        program = parse_fn(text)
    except ParseError as exc:
        return ("reject", exc.kind, exc.line, exc.column, exc.reason)
    return (_dump(program.code), program.literals, program.module_kinds,
            program.source_text)


def _dump(node):
    """What repr() shows of a statement tree, built without recursion so a
    3,000-term chain fits: each node's type, then its fields in order."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            out.append(f"tuple/{len(node)}")
            stack.extend(reversed(node))
        elif dataclasses.is_dataclass(node):
            out.append(type(node).__name__)
            stack.extend(getattr(node, field.name)
                         for field in reversed(dataclasses.fields(node)))
        else:
            out.append(repr(node))
    return out


# Pieces of a literal's body: the DSL's four escapes, one it lacks, a lone
# backslash and quote, and characters that Python's parser or str.splitlines
# read specially.
BODY_PIECES = ["a", " ", "\\\\", '\\"', "\\n", "\\t", "\\d", "\\", '"', "\r",
               "\0", "\ud800", "\x85", "\u2028", "\n", "\u00e9"]
STRING_LITERALS = st.one_of(
    st.lists(st.sampled_from(BODY_PIECES), max_size=4).map(
        lambda pieces: '"' + "".join(pieces) + '"'),
    st.text(max_size=6).map(escape_string))
LITERALS = st.recursive(
    st.one_of(STRING_LITERALS, st.sampled_from(["1", "True"])),
    lambda inner: st.lists(inner, max_size=3).map(
        lambda items: "[" + ", ".join(items) + "]"),
    max_leaves=8)
PROGRAM_FORMS = [
    'p = image.find({})\nreturn p[0].best_text_match({})\n',
    'p = image.find({})\nreturn p[0].verify_property({}, {})\n',
    'x = {}\nif x == {} or not {}:\n    y = image.simple_query({})\n'
    'else:\n    y = len({})\nreturn y\n',
    'return {}.find({}) != {} and {}\n',
]


def _delete_token(text, index):
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    if index >= len(spans):
        return text
    a, b = spans[index]
    return text[:a] + text[b:]


FILLED_PROGRAMS = st.sampled_from(PROGRAM_FORMS).flatmap(
    lambda form: st.lists(LITERALS, min_size=form.count("{}"),
                          max_size=form.count("{}")).map(
        lambda literals: form.format(*literals)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    FILLED_PROGRAMS,
    st.builds(_delete_token, FILLED_PROGRAMS, st.integers(0, 12)),
    st.text(max_size=120),
    st.lists(st.sampled_from(DSL_PIECES), max_size=40).map("".join)))
@example('p = image.find("a")\n'
         'return p[0].best_text_match([["a", "q"], "b"])\n')
@example("return " + " and ".join(['"a"'] * 3000) + "\n")
def test_parse_matches_the_full_path(text):
    # A text is parsed by filling its string literals into the program of its
    # shape (the text with every literal blanked); that must give exactly what
    # the line scan, ast.parse and the walk give on the text itself.
    assert _outcome(parse, text) == _outcome(_parse_full, text)


# ---------------------------------------------------------------------------
# Pinned verdicts over generated programs and their token deletions
# ---------------------------------------------------------------------------

def _token_deletions(text):
    """Every text left by deleting one or two whitespace-delimited tokens, the
    way corrupt_program deletes them."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    for chosen in itertools.chain(itertools.combinations(spans, 1),
                                  itertools.combinations(spans, 2)):
        bounds = [0, *itertools.chain.from_iterable(chosen), len(text)]
        yield "".join(text[a:b] for a, b in zip(bounds[::2], bounds[1::2]))


def _generated_programs(world):
    """Every distinct program of default-world scenes 0-2 under all four
    pointer/coarse settings."""
    return {qa.program
            for seed in range(3)
            for pointer in (True, False)
            for coarse in (False, True)
            for qa in generate_qa(generate_world(seed, world), world, 0,
                                  visual_pointer=pointer, coarse=coarse)}


def test_verdicts_on_generated_programs_and_deletions_are_pinned(world):
    # Which texts parse, and to what, decides what corrupt_program returns and
    # when a run falls back. The digest covers every generated program and
    # every text left by deleting one or two of its tokens. repr, not ==,
    # because Literal(True) == Literal(1).
    programs = _generated_programs(world)
    texts = set(programs)
    for program in programs:
        texts.update(_token_deletions(program))
    h = hashlib.sha256()
    for text in sorted(texts):
        try:
            verdict = repr(parse(text).statements)
        except ParseError:
            verdict = "reject"
        h.update(repr((text, verdict)).encode())
    assert (len(programs), len(texts)) == (66, 14015)
    assert h.hexdigest() == ("ab955f10d7120d5559a7c5adac859bff"
                             "ff446acbf40a3a7e008a9c4cf58844ed")


def test_generated_programs_take_the_full_path_once_per_shape(world,
                                                              monkeypatch):
    # Generated programs come from a few templates filled with nouns and
    # attributes, so all but the first text of each shape skip ast.parse;
    # so do texts whose literals nest lists.
    programs = sorted(_generated_programs(world)) + [
        f'p = image.find("{noun}")\n'
        f'return p[0].best_text_match([["{noun}", "q"], "b"])\n'
        for noun in ("cup", "dog")]
    full_path = []
    monkeypatch.setattr(dsl, "_parse_full", lambda text: full_path.append(
        text) or _parse_full(text))
    parse.cache_clear()
    dsl._shape.cache_clear()
    for text in programs:
        parse(text)
    shapes = dsl._shape.cache_info()
    assert shapes.currsize == shapes.misses <= 20
    assert shapes.hits == len(programs) - shapes.misses
    assert len(full_path) == shapes.misses


# ---------------------------------------------------------------------------
# One code per shape, one table of literals per text
# ---------------------------------------------------------------------------

NESTED = ('p = image.find("{}")\n'
          'return p[0].best_text_match([["{}", "q"], "b"])\n')


def test_texts_of_one_shape_share_its_code():
    cup = parse(NESTED.format("cup", "cup"))
    odd = parse(NESTED.format("dog", 'a \\"b\\" \\n\\t\\\\'))
    assert odd.code is cup.code
    assert cup.literals == ("cup", (("cup", "q"), "b"))
    assert odd.literals == ("dog", (('a "b" \n\t\\', "q"), "b"))
    assert cup.code[0].expr.args == (Slot(0),)
    assert cup.statements[1].expr.args == (Literal((("cup", "q"), "b")),)
    assert parse('return image.simple_query("x")\n').code is parse(
        'return image.simple_query("y")\n').code


@pytest.mark.parametrize("text", [
    'p = image.find("cup")\nreturn p[0].verify_property("red")\n',
    'p = image.find("cup")\nreturn p[0].verify_property("red", "a", "b")\n',
    'p = image.find()\nreturn p[0].verify_property("red", "color")\n',
    'p = image.find("cup", "mug")\nreturn p[0].verify_property("a", "b")\n',
])
def test_one_literal_more_or_fewer_raises_the_full_paths_error(text):
    # Each text is the primed shape's text with one literal added or dropped.
    parse('p = image.find("cup")\nreturn p[0].verify_property("red", "b")\n')
    with pytest.raises(ParseError) as full:
        _parse_full(text)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.kind, err.value.line, err.value.column,
            err.value.reason) == (full.value.kind, full.value.line,
                                  full.value.column, full.value.reason)


@pytest.mark.parametrize("extra", [1, -1])
def test_a_table_unlike_the_shapes_takes_the_full_path(monkeypatch, extra):
    # A shape whose table holds one template more or fewer than the text's
    # literals must not pair with it: the text takes the full path.
    text = NESTED.format("cup", "mug")
    real = _parse_full(NESTED.format("", ""))
    table = real.literals + ("",) if extra > 0 else real.literals[:-1]
    monkeypatch.setattr(dsl, "_shape", lambda skeleton: Program(
        real.code, skeleton, real.module_kinds, table))
    full_path = []
    monkeypatch.setattr(dsl, "_parse_full", lambda t: full_path.append(
        t) or _parse_full(t))
    parse.cache_clear()
    try:
        program = parse(text)
    finally:
        parse.cache_clear()
    assert full_path == [text]
    assert program == _parse_full(text)


def test_slots_evaluate_like_the_literals_they_hold(world):
    # The interpreter reads a Slot from the program's table; the run must
    # equal that of the same program with its Literals in place, and that of
    # the full path's program of the text.
    scene = generate_world(0, world)
    store = WorldStore()
    store.add(scene)
    registry = perfect_registry(store, world)
    rng = random.Random("slots")
    texts = sorted(_generated_programs(world)) + [
        _random_program_source(rng) for _ in range(300)]
    questions = ['Is the "red" cup here?', "two\nlines", "a\\b",
                 'all "\n\\ three']
    programs = [parse(text) for text in texts] + [
        fallback_program(question) for question in questions]
    assert [p.literals for p in programs[-4:]] == [(q,) for q in questions]
    slotted = 0
    for program in programs:
        text = program.source_text
        trace = execute(program, scene, registry)
        assert trace == execute(Program(program.statements, text,
                                        program.module_kinds), scene, registry)
        assert trace == execute(_parse_full(text), scene, registry), text
        slotted += bool(program.literals)
    assert slotted > 300


def test_statements_of_a_deep_program():
    # `parse` accepts a 3,000-term `and` chain and the interpreter runs it;
    # its statements view must build too, not run out of Python frames.
    dump = _dump(parse("return " + " and ".join(['"a"'] * 3000) + "\n")
                 .statements)
    assert dump.count("BoolOp") == 2999
    assert dump.count("Literal") == 3000
    assert "Slot" not in dump


def test_the_interpreter_reads_code_not_statements(monkeypatch, world,
                                                  flower_scene):
    # `statements` builds a tree per call; a run must not pay for it.
    def refuse(program):
        raise AssertionError("statements read")
    monkeypatch.setattr(Program, "statements", property(refuse))
    store = WorldStore()
    store.add(flower_scene)
    trace = execute(parse(TWO_STATEMENT), flower_scene,
                    perfect_registry(store, world))
    assert trace.status == "ok"


def test_crlf_line_ends_keep_every_verdict(world):
    # A line ends at LF or CRLF. Over the generated programs of one scene and
    # every one-token deletion of them, CRLF line ends change no verdict.
    programs = {qa.program for pointer in (True, False)
                for qa in generate_qa(generate_world(0, world), world, 0,
                                      visual_pointer=pointer)}
    texts = set(programs)
    for program in programs:
        spans = [m.span() for m in re.finditer(r"\S+", program)]
        texts.update(program[:a] + program[b:] for a, b in spans)
    accepted = 0
    for text in sorted(texts):
        try:
            verdict = parse(text).statements
        except ParseError:
            with pytest.raises(ParseError):
                parse(text.replace("\n", "\r\n"))
        else:
            accepted += 1
            assert parse(text.replace("\n", "\r\n")).statements == verdict
    assert accepted >= len(programs)


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x85",
                                 "\u2028", "\u2029"])
def test_line_break_characters_other_than_lf_and_crlf(brk):
    # Inside a string they are characters of the literal; between statements
    # they are lexical errors, not line ends.
    program = parse(f'return image.simple_query("a{brk}b")\n')
    assert program.statements[0].expr.args == (Literal(f"a{brk}b"),)
    with pytest.raises(ParseError) as err:
        parse(f'x = "a"{brk}return x\n')
    assert err.value.kind == "lexical"


@pytest.mark.parametrize("space", ["\t", "\x0b", "\x0c", "\x1c", "\x85",
                                   "\u2028", "\u3000", " \t "])
def test_a_line_of_other_whitespace_is_not_blank(space):
    # Only an empty line or a line of spaces is blank; any other whitespace
    # outside a string is a lexical error, on its own line as anywhere else.
    with pytest.raises(ParseError) as err:
        parse(f'x = "a"\n{space}\nreturn x\n')
    assert err.value.kind == "lexical"
    assert parse('x = "a"\n\n    \nreturn x\n').statements == parse(
        'x = "a"\nreturn x\n').statements
