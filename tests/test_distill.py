import logging
import math

import pytest

from progdistill.backends import (CorruptedBackend, CorruptionProfile,
                                  OracleBackend, Prediction, TableStudent,
                                  baseline_registry, fresh_students,
                                  perfect_registry)
from progdistill.distill import (Triple, harvest, load_triples,
                                 sample_loss, save_triples, train,
                                 triple_from_record, triple_input,
                                 triple_to_record)
from progdistill.dsl import parse
from progdistill.interpreter import STATUS_NAN, execute
from progdistill.questions import GenConfig, generate_qa
from progdistill.util import read_jsonl

from conftest import store_for


def _trace(scene, store, world, source, qid="q0"):
    registry = perfect_registry(store, world)
    return execute(parse(source), scene, registry, qid)


class TestHarvest:
    def test_find_plus_verify_gives_one_triple(self, flower_scene, world):
        store = store_for(flower_scene)
        trace = _trace(flower_scene, store, world,
                       'ps = image.find("flower")\n'
                       'return ps[0].verify_property("flower", "red")\n')
        teacher = OracleBackend(store, world)
        triples = harvest([trace], teacher, world, {"q0": "verify_attr"})
        assert len(triples) == 1
        triple = triples[0]
        assert triple.module_kind == "verify_property"
        assert triple.sub_question == "Is this flower red?"
        assert triple.pseudo_label == "yes"
        assert triple.source_qid == "q0"
        assert triple.question_type == "verify_attr"
        assert triple.region == flower_scene.objects[0].bbox

    def test_nan_trace_still_harvests_completed_steps(self, flower_scene, world):
        store = store_for(flower_scene)
        # two distillable steps run, then an out-of-range index fails the run
        source = ('ps = image.find("flower")\n'
                  'a = ps[0].verify_property("flower", "red")\n'
                  'b = ps[0].simple_query("What color is this flower?")\n'
                  'return ps[3].simple_query("What is this?")\n')
        trace = _trace(flower_scene, store, world, source)
        assert trace.status == STATUS_NAN
        teacher = OracleBackend(store, world)
        triples = harvest([trace], teacher, world)
        assert len(triples) == 2

    def test_empty_input(self, world):
        teacher = OracleBackend(store_for(), world)
        assert harvest([], teacher, world) == []

    def test_order_stable_by_qid_and_step(self, flower_scene, world):
        store = store_for(flower_scene)
        source = ('ps = image.find("flower")\n'
                  'a = ps[0].verify_property("flower", "red")\n'
                  'return ps[0].simple_query("What color is this flower?")\n')
        traces = [_trace(flower_scene, store, world, source, qid)
                  for qid in ("q2", "q0", "q1")]
        teacher = OracleBackend(store, world)
        triples = harvest(traces, teacher, world)
        assert [(t.source_qid, t.module_kind) for t in triples] == [
            ("q0", "verify_property"), ("q0", "simple_query"),
            ("q1", "verify_property"), ("q1", "simple_query"),
            ("q2", "verify_property"), ("q2", "simple_query"),
        ]

    def test_pseudo_label_is_teacher_answer_on_adapted_text(self, flower_scene, world):
        # teacher sees only (sub-question, sub-image); labels match its answers
        store = store_for(flower_scene)
        trace = _trace(flower_scene, store, world,
                       'ps = image.find("table")\n'
                       'return ps[0].best_text_match(["blue", "red"])\n')
        teacher = OracleBackend(store, world)
        triples = harvest([trace], teacher, world)
        assert triples[0].sub_question == "Is this table blue or red?"
        assert triples[0].pseudo_label == "blue"

    def test_adapter_rejection_skips_with_warning(self, flower_scene, world, caplog):
        store = store_for(flower_scene)
        trace = _trace(flower_scene, store, world,
                       'ps = image.find("flower")\n'
                       'return ps[0].simple_query("")\n')
        teacher = OracleBackend(store, world)
        with caplog.at_level(logging.WARNING):
            triples = harvest([trace], teacher, world)
        assert triples == []
        assert "skipped" in caplog.text

    def test_audit_log_records_sources(self, flower_scene, world):
        store = store_for(flower_scene)
        trace = _trace(flower_scene, store, world,
                       'ps = image.find("flower")\n'
                       'return ps[0].verify_property("flower", "red")\n')
        audit = []
        harvest([trace], OracleBackend(store, world), world, audit=audit)
        assert audit == [{"source": ["q0", 1, "verify_property"],
                          "sub_question": "Is this flower red?"}]


class TestSampleLoss:
    def _triple(self, label):
        return Triple("s", (0, 0, 10, 10), "q?", label, "simple_query", "q0", "t")

    def test_probability_one_gives_zero_loss(self):
        loss = sample_loss([self._triple("red")],
                           [Prediction("red", {"red": 1.0})])
        assert loss == 0.0

    def test_two_steps_average(self):
        # step losses L1 = -ln 0.5, L2 = -ln 0.25 -> mean (L1+L2)/2
        preds = [Prediction("a", {"a": 0.5}), Prediction("b", {"b": 0.25})]
        loss = sample_loss([self._triple("a"), self._triple("b")], preds)
        assert loss == pytest.approx((-math.log(0.5) - math.log(0.25)) / 2)

    def test_uniform_four_label_student_gives_ln4(self):
        dist = {k: 0.25 for k in ("a", "b", "c", "d")}
        loss = sample_loss([self._triple("c")], [Prediction("a", dist)])
        assert loss == pytest.approx(math.log(4))

    def test_zero_probability_is_infinite(self):
        loss = sample_loss([self._triple("zz")], [Prediction("a", {"a": 1.0})])
        assert math.isinf(loss)

    def test_zero_triples_rejected(self):
        with pytest.raises(ValueError):
            sample_loss([], [])


class TestTrain:
    def _setup(self, flower_scene, world):
        store = store_for(flower_scene)
        profile = CorruptionProfile(seed=1, rho=1.0)
        students = fresh_students(store, world, profile)
        triple = Triple(flower_scene.scene_id, flower_scene.objects[0].bbox,
                        "Is this flower red?", "yes", "verify_property",
                        "q0", "verify_attr")
        return store, students, triple

    def test_epochs_zero_changes_nothing(self, flower_scene, world):
        store, students, triple = self._setup(flower_scene, world)
        train(students, [triple], store, epochs=0)
        assert students["verify_property"].table == {}

    def test_single_triple_repeated_tau_epochs_crosses_threshold(self, flower_scene, world):
        store, students, triple = self._setup(flower_scene, world)
        tau = students["verify_property"].tau
        _, report = train(students, [triple], store, epochs=tau)
        student = students["verify_property"]
        inp = triple_input(triple, store)
        assert student.predict(inp).answer == "yes"  # was "no" via corruption
        assert report.keys_at_threshold["verify_property"] == 1
        assert report.triples_per_kind == {"verify_property": 1}

    def test_determinism(self, flower_scene, world):
        store, students_a, triple = self._setup(flower_scene, world)
        _, rep_a = train(students_a, [triple] * 5, store, seed=3)
        _, students_b, _ = self._setup(flower_scene, world)
        _, rep_b = train(students_b, [triple] * 5, store, seed=3)
        assert students_a["verify_property"].table == students_b["verify_property"].table
        assert rep_a.to_dict() == rep_b.to_dict()

    def test_disabled_kinds_untouched(self, flower_scene, world):
        store, students, triple = self._setup(flower_scene, world)
        sq_triple = Triple(flower_scene.scene_id, flower_scene.objects[0].bbox,
                           "What color is this flower?", "red", "simple_query",
                           "q1", "attr_query")
        only_verify = {"verify_property": students["verify_property"]}
        _, report = train(only_verify, [triple, sq_triple], store)
        assert students["simple_query"].table == {}
        assert students["verify_property"].table
        assert "simple_query" not in report.triples_per_kind

    def test_unknown_kind_counted_and_skipped(self, flower_scene, world):
        store, students, triple = self._setup(flower_scene, world)
        bogus = Triple("hand", (0, 0, 5, 5), "?", "x", "teleport", "q9", "t")
        _, report = train(students, [triple, bogus], store)
        assert report.skipped_unknown_kind == 1

    def test_loss_non_increasing_across_epochs(self, flower_scene, world):
        store, students, triple = self._setup(flower_scene, world)
        other = Triple(flower_scene.scene_id, flower_scene.objects[1].bbox,
                       "Is this table blue?", "yes", "verify_property",
                       "q1", "verify_attr")
        _, report = train(students, [triple, other] * 3, store, epochs=4)
        losses = report.epoch_mean_sample_loss
        assert len(losses) == 4
        assert all(x >= 0 and math.isfinite(x) for x in losses)
        assert all(losses[i + 1] <= losses[i] + 1e-12
                   for i in range(len(losses) - 1))

    def test_monotone_coverage_in_training_set_size(self, world, small_store, profile):
        # superset training data -> superset of keys at threshold
        gen = GenConfig(world=world)
        base = baseline_registry(small_store, world, profile)
        teacher = OracleBackend(small_store, world)
        traces = []
        for sid in small_store.ids():
            scene = small_store.get(sid)
            for qa in generate_qa(scene, gen, 0):
                from progdistill.interpreter import run_with_fallback
                traces.append(run_with_fallback(qa.program, qa.question, scene,
                                                base, qa.question_id))
        triples = harvest(traces, teacher, world)
        small, large = triples[: len(triples) // 2], triples
        keys = {}
        for name, subset in (("small", small), ("large", large)):
            students = fresh_students(small_store, world, profile)
            train(students, subset, small_store)
            keys[name] = {
                kind: {k for k, counts in students[kind].table.items()
                       if sum(counts.values()) >= students[kind].tau}
                for kind in students
            }
        for kind in keys["small"]:
            assert keys["small"][kind] <= keys["large"][kind]

    def test_teacher_fidelity_on_consistent_keys(self, flower_scene, world):
        store, students, triple = self._setup(flower_scene, world)
        train(students, [triple] * 7, store)
        student = students["verify_property"]
        teacher = OracleBackend(store, world)
        inp = triple_input(triple, store)
        assert student.predict(inp).answer == teacher.predict(inp).answer


class TestTripleFiles:
    def test_jsonl_fields_exactly_as_specified(self, tmp_path, flower_scene, world):
        triple = Triple("hand", (1, 2, 3, 4), "Is this flower red?", "yes",
                        "verify_property", "hand:q000", "verify_attr")
        path = tmp_path / "triples.jsonl"
        save_triples(path, [triple])
        record = read_jsonl(path)[0]
        assert set(record) == {"scene_id", "region", "sub_question",
                               "pseudo_label", "module_kind", "source_qid",
                               "question_type"}
        assert load_triples(path) == [triple]

    def test_round_trip(self):
        triple = Triple("s", (0, 0, 9, 9), "q?", "no", "simple_query", "q1", "t")
        assert triple_from_record(triple_to_record(triple)) == triple
