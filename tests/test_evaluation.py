from dataclasses import replace

import pytest

from progdistill.backends import (CorruptionProfile, OracleBackend,
                                  baseline_registry, consistency_verifier,
                                  distilled_registry, fresh_students,
                                  oracle_registry, perfect_registry)
from progdistill.evaluation import (EvalReport, TAXONOMY_KEYS,
                                    ablate_distilled_count, case_report,
                                    error_taxonomy, evaluate,
                                    grounding_eval, question_correct,
                                    run_programs, score,
                                    validate_coarse_programs,
                                    visual_pointer_effect)
from progdistill.interpreter import (STATUS_OK, ExecutionTrace, StepRecord,
                                      run_with_fallback, trace_from_record,
                                      trace_to_record)
from progdistill.questions import (GroundingCase, generate_grounding,
                                   generate_qa, qa_from_record, qa_to_record)
from progdistill.worlds import (SceneGraph, SceneObject, WorldStore,
                                full_patch, generate_world)

from conftest import store_for


@pytest.fixture(scope="module")
def eval_world(world=None):
    from progdistill.worlds import default_world_config
    return default_world_config()


@pytest.fixture(scope="module")
def eval_store(eval_world):
    store = WorldStore()
    for seed in range(40):
        store.add(generate_world(700000 + seed, eval_world))
    return store


@pytest.fixture(scope="module")
def eval_set(eval_world, eval_store):
    verifier = consistency_verifier(eval_store, eval_world)
    out = []
    for sid in eval_store.ids():
        out.extend(generate_qa(eval_store.get(sid), eval_world, 0,
                               verifier=verifier))
    return out


class TestScore:
    def test_all_oracle_on_self_consistent_set_is_perfect(self, eval_world,
                                                          eval_store, eval_set):
        registry = perfect_registry(eval_store, eval_world)
        traces = run_programs(eval_set, eval_store, registry)
        report = score(eval_set, traces)
        assert report.acc_all == 1.0
        assert report.nan_count == 0

    def test_accounting_identity_with_nans(self, eval_world, eval_store, eval_set):
        registry = baseline_registry(eval_store, eval_world,
                                     CorruptionProfile(98, 0.3))
        traces = run_programs(eval_set, eval_store, registry)
        report = score(eval_set, traces)
        wrong_non_nan = sum(
            1 for qa, tr in zip(eval_set, traces)
            if question_correct(qa, tr) == (False, False))
        assert report.correct + wrong_non_nan + report.nan_count == report.total
        assert report.nan_count > 0
        assert report.acc_no_nan >= report.acc_all

    def test_per_type_accuracies_partition_totals(self, eval_world, eval_store,
                                                  eval_set):
        registry = baseline_registry(eval_store, eval_world,
                                     CorruptionProfile(98, 0.3))
        traces = run_programs(eval_set, eval_store, registry)
        report = score(eval_set, traces)
        assert sum(e["total"] for e in report.per_question_type.values()) == \
            report.total

    def test_empty_simple_query_backend_bounds_accuracy(self, eval_world,
                                                        eval_store):
        # With templates whose answers flow straight out of simple_query, a
        # backend answering "" caps accuracy at the share of questions whose
        # trace never reached simple_query.
        class EmptyAnswer:
            name = "empty"

            def predict(self, inp):
                return ""

        types = {"attr_query", "attr_query_guarded", "direct_query", "exist",
                 "count", "both_exist", "either_exist"}
        qas = [qa for sid in eval_store.ids()[:15]
               for qa in generate_qa(eval_store.get(sid), eval_world, 0)
               if qa.question_type in types]
        registry = perfect_registry(eval_store, eval_world).replace(
            "simple_query", EmptyAnswer())
        traces = run_programs(qas, eval_store, registry)
        report = score(qas, traces)
        never_queried = sum(
            1 for tr in traces
            if all(s.module_kind != "simple_query" for s in tr.steps))
        assert report.correct <= never_queried

    def test_report_round_trip_and_renderings(self, eval_world, eval_store,
                                              eval_set):
        registry = baseline_registry(eval_store, eval_world,
                                     CorruptionProfile(98, 0.3))
        report = evaluate(registry, eval_set[:200], eval_store,
                          world=eval_world)
        again = EvalReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()
        assert "acc (All)" in report.to_text()
        rows = report.to_csv_rows()
        assert rows[0] == ["metric", "value"]


class TestTaxonomy:
    def test_verify_divergence_attributed(self, eval_world):
        scene = SceneGraph("tx", (100, 100), (
            SceneObject("o00", "flower", frozenset({"red", "small"}),
                        (5, 5, 14, 14)),
        ), seed=-1)
        store = store_for(scene)

        class WrongVerify:
            name = "wrong-verify"

            def predict(self, inp):
                return "no"

        registry = perfect_registry(store, eval_world).replace(
            "verify_property", WrongVerify())
        qa = qa_from_record({
            "question_id": "tx:q0", "question": "Is the flower red?",
            "ground_truth": "yes", "question_type": "verify_attr",
            "scene_id": "tx",
            "program": ('ps = image.find("flower")\n'
                        'return ps[0].verify_property("flower", "red")\n'),
        })
        trace = run_with_fallback(qa.program, qa.question, scene, registry,
                                  qa.question_id)
        counts = error_taxonomy([(qa, trace)], store, eval_world)
        assert counts["verify_property_error"] == 1

    def test_consistent_steps_mean_program_logic_error(self, eval_world):
        scene = SceneGraph("tx2", (100, 100), (
            SceneObject("o00", "flower", frozenset({"red", "small"}),
                        (5, 5, 14, 14)),
        ), seed=-1)
        store = store_for(scene)
        registry = perfect_registry(store, eval_world)
        qa = qa_from_record({
            "question_id": "tx2:q0", "question": "Is there a flower?",
            "ground_truth": "no",  # wrong on purpose: modules are all right
            "question_type": "exist", "scene_id": "tx2",
            "program": 'ps = image.find("flower")\nreturn ps.exists()\n',
        })
        trace = run_with_fallback(qa.program, qa.question, scene, registry,
                                  qa.question_id)
        counts = error_taxonomy([(qa, trace)], store, eval_world)
        assert counts["program_logic_error"] == 1

    @pytest.mark.parametrize("args, output", [(("", "red"), False),
                                              (("flower",), True)],
                             ids=["no-sub-question", "wrong-arity"])
    def test_a_stored_step_the_oracle_cannot_serve_is_its_kinds_error(
            self, eval_world, args, output):
        # A trace stored by an earlier version may hold a step that dispatch
        # now refuses; its replay is that kind's error, not a traceback.
        scene = SceneGraph("tx4", (100, 100), (
            SceneObject("o00", "flower", frozenset({"red", "small"}),
                        (5, 5, 14, 14)),
        ), seed=-1)
        store = store_for(scene)
        image = full_patch(scene)
        found = perfect_registry(store, eval_world).dispatch(
            "find", image, ("flower",))
        steps = (StepRecord(0, "find", image, ("flower",), found),
                 StepRecord(1, "verify_property", found[0], args, output))
        trace = trace_from_record(trace_to_record(ExecutionTrace(
            "tx4:q0", "<stored>", steps, output, STATUS_OK)))
        qa = qa_from_record({
            "question_id": "tx4:q0", "question": "Is the flower red?",
            "ground_truth": "no" if output else "yes",
            "question_type": "verify_attr", "scene_id": "tx4",
            "program": ('ps = image.find("flower")\n'
                        'return ps[0].verify_property("flower", "red")\n'),
        })
        counts = error_taxonomy([(qa, trace)], store, eval_world)
        assert counts["verify_property_error"] == 1

    def test_fallback_failures_counted_separately(self, eval_world):
        scene = SceneGraph("tx3", (100, 100), (
            SceneObject("o00", "flower", frozenset({"red", "small"}),
                        (5, 5, 14, 14)),
        ), seed=-1)
        store = store_for(scene)
        registry = perfect_registry(store, eval_world)
        qa = qa_from_record({
            "question_id": "tx3:q0", "question": "mystery question",
            "ground_truth": "42", "question_type": "attr_query",
            "scene_id": "tx3", "program": "return (",
        })
        trace = run_with_fallback(qa.program, qa.question, scene, registry,
                                  qa.question_id)
        counts = error_taxonomy([(qa, trace)], store, eval_world)
        assert counts["parse_fallback"] == 1

    def test_counts_partition_failures(self, eval_world, eval_store, eval_set):
        registry = baseline_registry(eval_store, eval_world,
                                     CorruptionProfile(98, 0.3))
        traces = run_programs(eval_set, eval_store, registry)
        failures = [(qa, tr) for qa, tr in zip(eval_set, traces)
                    if not question_correct(qa, tr)[0]]
        counts = error_taxonomy(failures, eval_store, eval_world)
        assert set(counts) == set(TAXONOMY_KEYS)
        assert sum(counts.values()) == len(failures)

    def test_replay_is_deterministic(self, eval_world, eval_store, eval_set):
        registry = baseline_registry(eval_store, eval_world,
                                     CorruptionProfile(98, 0.3))
        traces = run_programs(eval_set[:150], eval_store, registry)
        failures = [(qa, tr) for qa, tr in zip(eval_set[:150], traces)
                    if not question_correct(qa, tr)[0]]
        assert error_taxonomy(failures, eval_store, eval_world) == \
            error_taxonomy(failures, eval_store, eval_world)


class TestGroundingEval:
    def test_iou_cases(self, eval_world):
        scene = SceneGraph("g", (100, 100), (
            SceneObject("o00", "flower", frozenset({"red", "small"}),
                        (10, 10, 10, 10)),
        ), seed=-1)
        store = store_for(scene)
        registry = perfect_registry(store, eval_world)
        exact = GroundingCase("g:0", "g", "the flower",
                              'ps = image.find("flower")\nreturn ps[0]\n',
                              (10, 10, 10, 10), "plain")
        disjoint = GroundingCase("g:1", "g", "the flower",
                                 'ps = image.find("flower")\nreturn ps[0]\n',
                                 (80, 80, 10, 10), "plain")
        shifted = GroundingCase("g:2", "g", "the flower",
                                'ps = image.find("flower")\nreturn ps[0]\n',
                                (15, 10, 10, 10), "plain")
        nan_case = GroundingCase("g:3", "g", "the dog",
                                 'ps = image.find("dog")\nreturn ps[2]\n',
                                 (10, 10, 10, 10), "plain")
        out = grounding_eval(registry, [exact, disjoint, shifted, nan_case], store)
        ious = {c["case_id"]: c["iou"] for c in out["cases"]}
        assert ious["g:0"] == pytest.approx(1.0)
        assert ious["g:1"] == 0.0
        assert ious["g:2"] == pytest.approx(50 / 150)
        assert ious["g:3"] == 0.0
        assert out["mean_iou"] == pytest.approx((1.0 + 0.0 + 50 / 150 + 0.0) / 4)

    def test_non_patch_answer_scores_zero(self, eval_world):
        scene = SceneGraph("g2", (100, 100), (
            SceneObject("o00", "flower", frozenset({"red", "small"}),
                        (10, 10, 10, 10)),
        ), seed=-1)
        store = store_for(scene)
        registry = perfect_registry(store, eval_world)
        case = GroundingCase("g2:0", "g2", "the flower",
                             'return "flower"\n', (10, 10, 10, 10), "plain")
        assert grounding_eval(registry, [case], store)["mean_iou"] == 0.0


class TestCoarseValidation:
    def test_fine_program_rejected_for_coarse_framework(self, eval_world,
                                                        eval_store):
        qa = qa_from_record({
            "question_id": "x:q0", "question": "Is the flower red?",
            "ground_truth": "yes", "question_type": "verify_attr",
            "scene_id": eval_store.ids()[0],
            "program": ('ps = image.find("flower")\n'
                        'return ps[0].verify_property("flower", "red")\n'),
        })
        with pytest.raises(ValueError):
            validate_coarse_programs([qa])

    def test_generated_coarse_programs_validate(self, eval_world, eval_store):
        qas = []
        for sid in eval_store.ids()[:10]:
            qas.extend(generate_qa(eval_store.get(sid), eval_world, 0,
                                   coarse=True))
        validate_coarse_programs(qas)


class TestTeacherReplacement:
    def test_teacher_replacement_beats_baseline(self, eval_world, eval_store,
                                                eval_set):
        tr = evaluate(oracle_registry(eval_store, eval_world, miss_rate=0.05),
                      eval_set, eval_store)
        base = evaluate(baseline_registry(eval_store, eval_world,
                                          CorruptionProfile(98, 0.3)),
                        eval_set, eval_store)
        assert tr.acc_all > base.acc_all
        # find stays the detector: misses still cost accuracy
        assert tr.acc_all < 1.0


class TestDistilledCountAblation:
    def test_two_students_give_one_row_per_count(self, eval_world, eval_store,
                                                 eval_set):
        profile = CorruptionProfile(98, 0.3)
        students = fresh_students(eval_store, eval_world, profile)
        pair = {k: students[k] for k in ("verify_property", "simple_query")}
        result = ablate_distilled_count(
            baseline_registry(eval_store, eval_world, profile), pair,
            eval_set[:40], eval_store)
        assert [row["distilled_count"] for row in result["rows"]] == [0, 1, 2]
        assert list(result["runs"]) == [
            "dp0:none", "dp1:simple_query", "dp1:verify_property",
            "dp2:verify_property+simple_query"]


class TestCaseReport:
    def test_diff_document_shows_both_runs(self, eval_world, eval_store, eval_set):
        registries = {
            "baseline": baseline_registry(eval_store, eval_world,
                                          CorruptionProfile(98, 0.3)),
            "distilled": oracle_registry(eval_store, eval_world)}
        qa = eval_set[0]
        doc = case_report(qa, {name: run_programs([qa], eval_store, registry)[0]
                               for name, registry in registries.items()})
        assert qa.question in doc
        assert "[baseline" in doc and "[distilled" in doc
        assert "branches=" in doc
        assert "verdict:" in doc

    def test_a_different_distilled_program_is_listed_too(self, eval_world,
                                                         eval_store, eval_set):
        qa = eval_set[0]
        registry = oracle_registry(eval_store, eval_world)
        own = run_programs([qa], eval_store, registry)[0]
        other = run_programs([replace(qa, program="return \"no\"\n")],
                             eval_store, registry)[0]
        same = case_report(qa, {"baseline": own, "distilled": own})
        assert "program (distilled):" not in same
        doc = case_report(qa, {"baseline": own, "distilled": other})
        assert doc.count("  program") == 2
        assert '  program (distilled):\n    return "no"\n' in doc


class TestVisualPointerProbe:
    def test_pointer_never_hurts_on_ambiguous_subset(self, eval_world):
        probe_world = replace(eval_world, ambiguity_rate=0.4)
        store = WorldStore()
        for seed in range(30):
            store.add(generate_world(800000 + seed, probe_world))
        out = visual_pointer_effect(store, probe_world,
                                    CorruptionProfile(98, 0.3), (8, 12), 0)
        assert out["ambiguous_count"] > 10
        assert out["acc_vp_ambiguous"] >= out["acc_plain_ambiguous"]
