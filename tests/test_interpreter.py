import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progdistill.backends import baseline_registry, perfect_registry, CorruptionProfile
from progdistill.dsl import Call, If, Literal, parse
from progdistill.interpreter import (NAN, STATUS_FALLBACK, STATUS_NAN,
                                     STATUS_OK, answer_to_text, execute,
                                     fallback_program, run_with_fallback,
                                     trace_from_record, trace_to_record)
from progdistill.questions import corrupt_program, generate_qa
from progdistill.worlds import PatchList, ScenePatch

from conftest import statements, store_for


@pytest.fixture()
def registry(flower_scene, world):
    return perfect_registry(store_for(flower_scene), world)


class TestExecute:
    def test_literal_return_has_no_steps(self, flower_scene, registry):
        trace = execute(parse('return "yes"\n'), flower_scene, registry, "q0")
        assert trace.answer == "yes"
        assert trace.status == STATUS_OK
        assert trace.steps == ()

    def test_find_then_verify_records_two_steps(self, flower_scene, registry):
        source = ('ps = image.find("flower")\n'
                  'return ps[0].verify_property("flower", "red")\n')
        trace = execute(parse(source), flower_scene, registry, "q1")
        assert trace.status == STATUS_OK
        assert trace.answer is True
        assert len(trace.steps) == 2
        find_step, verify_step = trace.steps
        assert find_step.module_kind == "find"
        assert isinstance(find_step.output, PatchList)
        assert verify_step.module_kind == "verify_property"
        assert isinstance(verify_step.receiver, ScenePatch)
        assert verify_step.receiver.origin_label == "flower"

    def test_index_into_empty_find_is_runtime_nan(self, flower_scene, registry):
        source = ('ps = image.find("unicorn")\n'
                  'return ps[0].simple_query("What is this?")\n')
        trace = execute(parse(source), flower_scene, registry, "q2")
        assert trace.status == STATUS_NAN
        assert trace.answer is NAN
        assert len(trace.steps) == 1  # the find ran; the query never did

    def test_branches_follow_conditions_and_are_recorded(self, flower_scene, registry):
        source = ('ps = image.find("flower")\n'
                  'e = ps.exists()\n'
                  'if e:\n'
                  '    ans = "present"\n'
                  'else:\n'
                  '    ans = "absent"\n'
                  'return ans\n')
        trace = execute(parse(source), flower_scene, registry, "q3")
        assert trace.answer == "present"
        assert trace.branch_decisions == (True,)

    @pytest.mark.parametrize("noun, answer", [("flower", "present"),
                                              ("unicorn", "absent")])
    def test_a_returning_else_leaves_the_then_branch_defined(
            self, flower_scene, registry, noun, answer):
        # The else-branch returns, so `ans` from the then-branch is defined
        # after the if.
        source = (f'e = image.find("{noun}").exists()\n'
                  'if e:\n'
                  '    ans = "present"\n'
                  'else:\n'
                  '    return "absent"\n'
                  'return ans\n')
        trace = execute(parse(source), flower_scene, registry, "q")
        assert trace.status == STATUS_OK
        assert trace.answer == answer

    @pytest.mark.parametrize("source", [
        'return len(True)\n',
        'x = "a"\nreturn x[0]\n',
        'x = "a"\nreturn x and True\n',
        'return not 3\n',
        'x = 1\nif x:\n    y = 1\nelse:\n    y = 2\nreturn y\n',
        'return image.inspect_aura("x")\n',        # unknown module kind
        'x = "s"\nreturn x.find("flower")\n',      # module call on a string
        'ps = image.find("flower")\nreturn ps.verify_property("a", "b")\n',
    ])
    def test_runtime_failures_become_nan_not_exceptions(self, source,
                                                        flower_scene, registry):
        trace = execute(parse(source), flower_scene, registry, "q")
        assert trace.status == STATUS_NAN
        assert trace.answer is NAN

    def test_determinism(self, flower_scene, registry):
        source = ('ps = image.find("flower")\n'
                  'return ps[0].simple_query("What color is this flower?")\n')
        a = execute(parse(source), flower_scene, registry, "q")
        b = execute(parse(source), flower_scene, registry, "q")
        assert trace_to_record(a) == trace_to_record(b)

    def test_short_circuit_skips_right_side_calls(self, flower_scene, registry):
        source = ('a = image.find("unicorn")\n'
                  'ok = a.exists() and image.find("flower").exists()\n'
                  'return ok\n')
        trace = execute(parse(source), flower_scene, registry, "q")
        assert trace.answer is False
        # find(unicorn), exists -> short circuit: flower find never runs
        assert [s.module_kind for s in trace.steps] == ["find", "exists"]


class TestProvenance:
    def test_center_word_tracks_find_parameter_transitively(self, world, small_store):
        registry = perfect_registry(small_store, world)
        for sid in small_store.ids()[:8]:
            scene = small_store.get(sid)
            for qa in generate_qa(scene, world, 0):
                trace = execute(parse(qa.program), scene, registry, qa.question_id)
                find_labels = {}
                for step in trace.steps:
                    if step.module_kind == "find":
                        find_labels[step.args[0]] = step.output.origin_label
                        assert step.output.origin_label == step.args[0]
                    elif isinstance(step.receiver, ScenePatch) \
                            and step.receiver.origin_label is not None:
                        assert step.receiver.origin_label in find_labels


class TestTraceCompleteness:
    def _reference_call_count(self, statements, branch_decisions):
        """Instrumented reference: count Call nodes on the taken path, and
        exhaustively check the branch sequence is one of the enumerable paths."""
        decisions = list(branch_decisions)

        def count_expr(expr, assume_taken=True):
            total = 0
            if isinstance(expr, Call):
                total += count_expr(expr.receiver)
                for arg in expr.args:
                    total += count_expr(arg)
                total += 1
                return total
            for attr in ("target", "operand", "left", "right"):
                child = getattr(expr, attr, None)
                if child is not None:
                    total += count_expr(child)
            return total

        def walk(stmts):
            total = 0
            for stmt in stmts:
                if isinstance(stmt, If):
                    total += count_expr(stmt.cond)
                    taken = decisions.pop(0)
                    body = stmt.then_body if taken else stmt.else_body
                    sub, returned = walk(body)
                    total += sub
                    if returned:
                        return total, True
                else:
                    total += count_expr(stmt.expr)
                    if type(stmt).__name__ == "Return":
                        return total, True
            return total, False

        total, _ = walk(statements)
        return total

    def test_step_count_matches_reference_on_generated_programs(self, world, small_store):
        # Short-circuit-free programs: template programs keep module calls out
        # of boolean operands, so call count on the taken path is exact.
        registry = perfect_registry(small_store, world)
        checked = 0
        for sid in small_store.ids():
            scene = small_store.get(sid)
            for qa in generate_qa(scene, world, 1):
                program = parse(qa.program)
                if len(program.code) > 5:
                    continue
                trace = execute(program, scene, registry, qa.question_id)
                if trace.status != STATUS_OK:
                    continue
                expected = self._reference_call_count(statements(program),
                                                      trace.branch_decisions)
                assert len(trace.steps) == expected, qa.program
                checked += 1
        assert checked > 100


class TestFallback:
    def test_fallback_program_shape(self):
        program = fallback_program("Is the sky blue?")
        assert program.source_text == 'return image.simple_query("Is the sky blue?")\n'
        assert len(program.code) == 1

    def test_fallback_program_empty_question(self):
        program = fallback_program("")
        call = statements(program)[0].expr
        assert call.module_kind == "simple_query"
        assert call.args[0].value == ""

    def test_fallback_escapes_quotes(self):
        program = fallback_program('say "hi"\\now')
        assert statements(program)[0].expr.args[0].value == 'say "hi"\\now'

    # A question may carry any character: the DSL's escaped ones, every one
    # str.splitlines breaks a line at, NUL and a lone surrogate.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.text(), st.text(alphabet=list(
        'a "\\\n\t\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\x00\ud800'))))
    def test_fallback_program_parses_any_question(self, question):
        (statement,) = statements(fallback_program(question))
        assert statement.expr.args == (Literal(question),)

    def test_unparseable_source_takes_fallback(self, flower_scene, world):
        registry = perfect_registry(store_for(flower_scene), world)
        trace = run_with_fallback("return (", "Is there a flower?",
                                  flower_scene, registry, "q")
        assert trace.status == STATUS_FALLBACK
        assert trace.fallback is True
        # the trace records the substituted program, exactly
        assert trace.source == fallback_program("Is there a flower?").source_text
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.module_kind == "simple_query"
        assert step.args == ("Is there a flower?",)
        assert step.receiver.region == (0, 0, 100, 100)
        assert answer_to_text(trace.answer) == "yes"

    # Nesting beyond Python's recursion limit ends as a trace, not an
    # exception: too deep to parse takes the fallback, too deep to evaluate
    # is a NaN.
    @pytest.mark.parametrize("source,status", [
        ("return " + "(" * 300 + "True" + ")" * 300 + "\n", STATUS_FALLBACK),
        ("return " + "not " * 3000 + "True\n", STATUS_FALLBACK),
        ("return " + " and ".join(["True"] * 3001) + "\n", STATUS_NAN),
    ], ids=["parentheses", "not", "and"])
    def test_deep_nesting_ends_as_a_trace(self, flower_scene, registry,
                                          source, status):
        trace = run_with_fallback(source, "Is there a flower?", flower_scene,
                                  registry, "q")
        assert trace.status == status

    def test_parseable_source_does_not_fall_back(self, flower_scene, world):
        registry = perfect_registry(store_for(flower_scene), world)
        trace = run_with_fallback('return "x"\n', "q?", flower_scene, registry, "q")
        assert trace.status == STATUS_OK
        assert trace.fallback is False

    def test_property_corrupted_programs_always_fall_back(self, world, small_store, profile):
        registry = baseline_registry(small_store, world, profile)
        rng = random.Random("fallback-prop")
        count = 0
        for sid in small_store.ids()[:10]:
            scene = small_store.get(sid)
            for qa in generate_qa(scene, world, 2):
                broken = corrupt_program(qa.program, rng)
                trace = run_with_fallback(broken, qa.question, scene, registry,
                                          qa.question_id)
                assert trace.status == STATUS_FALLBACK
                assert [s.module_kind for s in trace.steps] == ["simple_query"]
                assert trace.steps[0].args == (qa.question,)
                count += 1
        assert count > 50


class TestSerialization:
    def test_round_trip_preserves_everything(self, flower_scene, world):
        registry = perfect_registry(store_for(flower_scene), world)
        source = ('ps = image.find("flower")\n'
                  'e = ps.exists()\n'
                  'if e:\n'
                  '    ans = ps[0].simple_query("What color is this flower?")\n'
                  'else:\n'
                  '    ans = "none"\n'
                  'return ans\n')
        trace = execute(parse(source), flower_scene, registry, "q9")
        again = trace_from_record(trace_to_record(trace))
        assert again == trace

    def test_nan_round_trip(self, flower_scene, world):
        registry = perfect_registry(store_for(flower_scene), world)
        trace = execute(parse('x = image.find("unicorn")\nreturn x[2]\n'),
                        flower_scene, registry, "q")
        again = trace_from_record(trace_to_record(trace))
        assert again.answer is NAN
        assert again.status == STATUS_NAN

    def test_records_with_a_stored_center_word_still_load(self, flower_scene,
                                                          world):
        registry = perfect_registry(store_for(flower_scene), world)
        trace = execute(parse('ps = image.find("flower")\n'
                              'return ps[0].simple_query("What is this?")\n'),
                        flower_scene, registry, "q")
        record = trace_to_record(trace)
        assert all("center_word" not in step for step in record["steps"])
        for step, stored in zip(record["steps"], (None, "flower")):
            step["center_word"] = stored
        again = trace_from_record(record)
        assert again == trace
        assert [s.receiver.origin_label for s in again.steps] == [None, "flower"]


def test_answer_to_text():
    assert answer_to_text(True) == "yes"
    assert answer_to_text(False) == "no"
    assert answer_to_text(3) == "3"
    assert answer_to_text("red") == "red"
    assert answer_to_text(NAN) is None
