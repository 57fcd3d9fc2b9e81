import hashlib
import itertools
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progdistill.dsl import (Assign, BoolOp, Call, Compare, If, ImageRef,
                             Index, Len, Literal, NotOp, ParseError, Return,
                             Var, parse, unparse)
from progdistill.questions import generate_qa
from progdistill.worlds import generate_world

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
    from progdistill.dsl import Program
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


def test_verdicts_on_generated_programs_and_deletions_are_pinned(world):
    # Which texts parse, and to what, decides what corrupt_program returns and
    # when a run falls back. The digest covers every distinct program of
    # default-world scenes 0-2 under all four pointer/coarse settings, and every
    # text left by deleting one or two of its tokens. repr, not ==, because
    # Literal(True) == Literal(1).
    programs = {qa.program
                for seed in range(3)
                for pointer in (True, False)
                for coarse in (False, True)
                for qa in generate_qa(generate_world(seed, world), world, 0,
                                      visual_pointer=pointer, coarse=coarse)}
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
