import math
import random

import pytest

from progdistill import evaluation
from progdistill.backends import (BackendError, CorruptedBackend,
                                  CorruptionProfile, DetectorBackend,
                                  ModuleRegistry, OracleBackend, PhaseError,
                                  Prediction, RegistryError, SubTaskInput,
                                  TableStudent, baseline_registry,
                                  consistency_verifier, distilled_registry,
                                  fresh_students, oracle_registry,
                                  perfect_registry, resolve_query)
from progdistill.distill import harvest, train
from progdistill.interpreter import ExecutionTrace, StepRecord
from progdistill.questions import (GenConfig, QuestionParser, generate_qa,
                                   query_key)
from progdistill.worlds import (ChooseOption, PatchList, SceneGraph,
                                SceneObject, ScenePatch, VerifyAttribute,
                                WorldConfig, crop, full_patch, generate_world,
                                overlap_ratio)

from conftest import store_for


@pytest.fixture()
def two_flower_scene():
    return SceneGraph("twof", (100, 100), (
        SceneObject("o00", "flower", frozenset({"red", "small"}), (5, 5, 14, 14)),
        SceneObject("o01", "flower", frozenset({"blue", "small"}), (50, 50, 14, 14)),
        SceneObject("o02", "table", frozenset({"green", "large"}), (70, 10, 18, 18)),
    ), seed=-1)


class TestDetector:
    def test_find_two_flowers(self, two_flower_scene):
        detector = DetectorBackend(store_for(two_flower_scene), miss_rate=0.0)
        out = detector.predict(SubTaskInput("find", full_patch(two_flower_scene),
                                            object_name="flower")).answer
        assert isinstance(out, PatchList)
        assert len(out) == 2
        assert out.origin_label == "flower"
        assert [p.region for p in out] == [(5, 5, 14, 14), (50, 50, 14, 14)]
        for patch in out:
            assert patch.origin_label == "flower"

    def test_find_unknown_name_is_empty(self, two_flower_scene):
        detector = DetectorBackend(store_for(two_flower_scene), miss_rate=0.0)
        out = detector.predict(SubTaskInput("find", full_patch(two_flower_scene),
                                            object_name="unicorn")).answer
        assert len(out) == 0
        assert out.origin_label == "unicorn"

    def test_miss_rate_one_finds_nothing(self, two_flower_scene):
        detector = DetectorBackend(store_for(two_flower_scene), miss_rate=1.0)
        out = detector.predict(SubTaskInput("find", full_patch(two_flower_scene),
                                            object_name="flower")).answer
        assert len(out) == 0

    def test_misses_are_deterministic_per_object(self, world):
        store = store_for(*(generate_world(s, world) for s in range(10)))
        a = DetectorBackend(store, miss_rate=0.3, seed=5)
        b = DetectorBackend(store, miss_rate=0.3, seed=5)
        for sid in store.ids():
            patch = full_patch(store.get(sid))
            for noun in world.nouns:
                inp = SubTaskInput("find", patch, object_name=noun)
                assert [p.region for p in a.predict(inp).answer] == \
                    [p.region for p in b.predict(inp).answer]

    def test_find_respects_overlap_rule_regardless_of_corruption(self, world):
        # corruption affects labels, never geometry; the detector is separate
        # from corrupted students, so every returned patch passes the rule
        store = store_for(*(generate_world(s, world) for s in range(8)))
        detector = DetectorBackend(store, miss_rate=0.0)
        for sid in store.ids():
            scene = store.get(sid)
            receiver = crop(scene, (0, 0, 60, 60))
            for noun in world.nouns:
                out = detector.predict(SubTaskInput("find", receiver,
                                                    object_name=noun)).answer
                for patch in out:
                    obj = next(o for o in scene.objects if o.bbox == patch.region)
                    assert obj.name == noun
                    assert overlap_ratio(obj.bbox, receiver.region) >= 0.5

    def test_exists(self, two_flower_scene):
        detector = DetectorBackend(store_for(two_flower_scene), miss_rate=0.0)
        empty = PatchList((), origin_label="x")
        assert detector.predict(SubTaskInput("exists", empty)).answer is False
        full = detector.predict(SubTaskInput("find", full_patch(two_flower_scene),
                                             object_name="flower")).answer
        assert detector.predict(SubTaskInput("exists", full)).answer is True


class TestOracleBackend:
    def test_structured_verify(self, flower_scene, world):
        oracle = OracleBackend(store_for(flower_scene), world)
        patch = crop(flower_scene, flower_scene.objects[0].bbox,
                     origin_label="flower")
        pred = oracle.predict(SubTaskInput("verify_property", patch,
                                           object_name="flower", attribute="red"))
        assert pred.answer == "yes"
        assert pred.distribution == {"yes": 1.0}

    def test_question_text_path_matches_structured_path(self, flower_scene, world):
        oracle = OracleBackend(store_for(flower_scene), world)
        patch = crop(flower_scene, flower_scene.objects[0].bbox,
                     origin_label="flower")
        structured = oracle.predict(SubTaskInput(
            "verify_property", patch, object_name="flower", attribute="red"))
        via_text = oracle.predict(SubTaskInput(
            "simple_query", patch, question="Is this flower red?"))
        assert structured.answer == via_text.answer == "yes"

    def test_unparseable_question_is_unknown(self, flower_scene, world):
        oracle = OracleBackend(store_for(flower_scene), world)
        pred = oracle.predict(SubTaskInput("simple_query",
                                           full_patch(flower_scene),
                                           question="gibberish prompt"))
        assert pred.answer == "unknown"


class TestCorruption:
    def test_permutation_is_bijective_and_fixed(self):
        profile = CorruptionProfile(seed=3, rho=1.0)
        vocab = ("blue", "green", "red")
        mapped = {v: profile.permute(v, vocab) for v in vocab}
        assert set(mapped.values()) == set(vocab)
        for v in vocab:
            assert mapped[v] != v  # rotation has no fixed points
            assert profile.permute(v, vocab) == mapped[v]

    def test_rho_zero_never_corrupts(self, flower_scene, world):
        backend = CorruptedBackend(store_for(flower_scene), world,
                                   CorruptionProfile(seed=1, rho=0.0))
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        pred = backend.predict(SubTaskInput("verify_property", patch,
                                            object_name="flower", attribute="red"))
        assert pred.answer == "yes"

    def test_corrupted_key_flips_verify_answer(self, flower_scene, world):
        profile = CorruptionProfile(seed=1, rho=1.0)  # every key corrupted
        backend = CorruptedBackend(store_for(flower_scene), world, profile)
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        pred = backend.predict(SubTaskInput("verify_property", patch,
                                            object_name="flower", attribute="red"))
        assert pred.answer == "no"  # yes<->no rotation

    def test_corruption_determinism_across_backends(self, world, small_store):
        profile = CorruptionProfile(seed=9, rho=0.5)
        a = CorruptedBackend(small_store, world, profile)
        b = CorruptedBackend(small_store, world, profile)
        for sid in small_store.ids()[:6]:
            scene = small_store.get(sid)
            patch = full_patch(scene)
            for noun in world.nouns:
                for attr in ("red", "small"):
                    inp = SubTaskInput("verify_property", crop(scene, patch.region, noun),
                                       object_name=noun, attribute=attr)
                    assert a.predict(inp).answer == b.predict(inp).answer

    def test_signature_perceived_through_permutation_only_when_corrupted(
            self, flower_scene, world):
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        clean = CorruptedBackend(store_for(flower_scene), world,
                                 CorruptionProfile(seed=1, rho=0.0))
        inp = SubTaskInput("verify_property", patch, object_name="flower",
                           attribute="red")
        assert clean.perceived_signature(inp) == "flower(red,small)"
        corrupted = CorruptedBackend(store_for(flower_scene), world,
                                     CorruptionProfile(seed=1, rho=1.0))
        assert corrupted.perceived_signature(inp) != "flower(red,small)"


class TestResolveQueryCanonicalization:
    def test_noun_options_drop_center_adjective_options_keep_it(self, world):
        parser = QuestionParser(world)
        noun_inp = SubTaskInput("best_text_match", None,
                                options=("flower", "table"), center_word="flower")
        assert resolve_query(noun_inp, parser) == \
            ChooseOption(("flower", "table"), None)
        adj_inp = SubTaskInput("best_text_match", None,
                               options=("red", "blue"), center_word="flower")
        assert resolve_query(adj_inp, parser) == \
            ChooseOption(("red", "blue"), "flower")

    def test_structured_and_text_paths_share_keys(self, world):
        parser = QuestionParser(world)
        structured = resolve_query(
            SubTaskInput("verify_property", None, object_name="flower",
                         attribute="red"), parser)
        via_text = resolve_query(
            SubTaskInput("simple_query", None, question="Is this flower red?"),
            parser)
        assert query_key(structured) == query_key(via_text)


class TestTableStudent:
    def _student(self, scene, world, rho=1.0, tau=3):
        base = CorruptedBackend(store_for(scene), world,
                                CorruptionProfile(seed=1, rho=rho))
        return TableStudent("verify_property", base, tau=tau)

    def _inp(self, scene):
        patch = crop(scene, scene.objects[0].bbox, "flower")
        return SubTaskInput("verify_property", patch, object_name="flower",
                            attribute="red")

    def test_below_threshold_predicts_exactly_like_base(self, flower_scene, world):
        student = self._student(flower_scene, world)
        inp = self._inp(flower_scene)
        base_pred = student.base.predict(inp)
        for _ in range(2):  # tau is 3; stay below
            student.update(inp, "yes")
            assert student.predict(inp).answer == base_pred.answer

    def test_threshold_crossing_flips_argmax_to_teacher(self, flower_scene, world):
        student = self._student(flower_scene, world)
        inp = self._inp(flower_scene)
        assert student.predict(inp).answer == "no"  # corrupted base
        for _ in range(3):
            student.update(inp, "yes")
        assert student.predict(inp).answer == "yes"

    def test_ties_break_lexicographically(self, flower_scene, world):
        student = self._student(flower_scene, world, tau=2)
        inp = self._inp(flower_scene)
        student.update(inp, "zzz")
        student.update(inp, "aaa")
        assert student.predict(inp).answer == "aaa"

    def test_smoothed_distribution_uniform_over_support(self, flower_scene, world):
        student = self._student(flower_scene, world)
        inp = self._inp(flower_scene)
        # no counts: add-one smoothing over {no, yes} -> uniform
        dist = student.smoothed_distribution(inp)
        assert dist == {"no": pytest.approx(0.5), "yes": pytest.approx(0.5)}
        assert student.label_probability(inp, "yes") == pytest.approx(0.5)

    def test_freeze_blocks_updates(self, flower_scene, world):
        student = self._student(flower_scene, world)
        student.freeze()
        with pytest.raises(PhaseError):
            student.update(self._inp(flower_scene), "yes")

    def test_save_load_round_trip(self, flower_scene, world, tmp_path):
        student = self._student(flower_scene, world)
        inp = self._inp(flower_scene)
        for _ in range(4):
            student.update(inp, "yes")
        path = tmp_path / "student.json"
        student.save(path)
        loaded = TableStudent.load(path, store_for(flower_scene), world)
        assert loaded.module_kind == "verify_property"
        assert loaded.tau == student.tau
        assert loaded.table == student.table
        assert loaded.predict(inp).answer == student.predict(inp).answer

    def test_load_rejects_unknown_version(self, flower_scene, world, tmp_path):
        path = tmp_path / "student.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(RegistryError):
            TableStudent.load(path, store_for(flower_scene), world)


class TestLearnability:
    def test_distilled_table_matches_teacher_on_toy_vocabulary(self):
        """20-key toy world: permutation-corrupted student converges to the
        teacher on every key seen >= tau times; checked against an
        independent brute-force counter."""
        world = WorldConfig(
            nouns=("n0", "n1", "n2", "n3", "n4"),
            attribute_families={"color": ("c0", "c1"), "size": ("s0", "s1")},
            relations=("near",),
        )
        scenes = []
        for i, noun in enumerate(world.nouns):
            for j, color in enumerate(world.attribute_families["color"]):
                for k, size in enumerate(world.attribute_families["size"]):
                    sid = f"toy{i}{j}{k}"
                    scenes.append(SceneGraph(sid, (50, 50), (
                        SceneObject("o00", noun, frozenset({color, size}),
                                    (5, 5, 12, 12)),
                    ), seed=-1))
        store = store_for(*scenes)
        profile = CorruptionProfile(seed=13, rho=1.0)
        base = CorruptedBackend(store, world, profile)
        student = TableStudent("simple_query", base, tau=3)
        teacher = OracleBackend(store, world)

        # 20 keys: (color question x 10 scenes) would collide per signature;
        # use one ask-color and one ask-size query per object signature
        inputs = []
        for scene in scenes:
            patch = crop(scene, scene.objects[0].bbox, scene.objects[0].name)
            noun = scene.objects[0].name
            for family in ("color", "size"):
                inputs.append(SubTaskInput(
                    "simple_query", patch,
                    question=f"What {family} is this {noun}?"))

        keys = {base.student_key(inp) for inp in inputs}
        assert len(keys) == 40  # 20 objects x 2 families, all distinct

        rng = random.Random("toy")
        brute_counts: dict[str, dict[str, int]] = {}
        for _ in range(6):  # several passes; every key crosses tau
            for inp in rng.sample(inputs, len(inputs)):
                label = teacher.predict(inp).answer
                student.update(inp, label)
                key = base.student_key(inp)
                brute_counts.setdefault(key, {}).setdefault(label, 0)
                brute_counts[key][label] += 1

        matched = 0
        for inp in inputs:
            key = base.student_key(inp)
            counts = brute_counts[key]
            assert sum(counts.values()) >= student.tau
            brute_argmax = min(counts, key=lambda lbl: (-counts[lbl], lbl))
            assert student.predict(inp).answer == brute_argmax
            assert student.predict(inp).answer == teacher.predict(inp).answer
            matched += 1
        assert matched == len(inputs)


class TestRegistry:
    def test_all_five_kinds_required(self, world, small_store):
        detector = DetectorBackend(small_store)
        with pytest.raises(RegistryError):
            ModuleRegistry({"find": detector, "exists": detector})

    def test_find_must_be_the_detector(self, world, small_store):
        oracle = OracleBackend(small_store, world)
        detector = DetectorBackend(small_store)
        with pytest.raises(RegistryError):
            ModuleRegistry({"find": oracle, "exists": detector,
                            "verify_property": oracle,
                            "best_text_match": oracle,
                            "simple_query": oracle})

    def test_replace_rejects_find_and_exists(self, world, small_store):
        registry = perfect_registry(small_store, world)
        with pytest.raises(RegistryError):
            registry.replace("find", DetectorBackend(small_store))
        with pytest.raises(RegistryError):
            registry.replace("exists", DetectorBackend(small_store))

    def test_replace_returns_new_registry(self, world, small_store, profile):
        registry = perfect_registry(small_store, world)
        student = fresh_students(small_store, world, profile)["simple_query"]
        swapped = registry.replace("simple_query", student)
        assert swapped is not registry
        assert swapped.backend("simple_query") is student
        assert registry.backend("simple_query") is not student
        assert swapped.backend("verify_property") is registry.backend("verify_property")

    def test_dispatch_validates_inputs(self, flower_scene, world):
        registry = perfect_registry(store_for(flower_scene), world)
        patch = full_patch(flower_scene)
        with pytest.raises(BackendError):
            registry.dispatch("find", "not a patch", ("flower",))
        with pytest.raises(BackendError):
            registry.dispatch("find", patch, (3,))
        with pytest.raises(BackendError):
            registry.dispatch("verify_property", patch, ("flower",))
        with pytest.raises(BackendError):
            registry.dispatch("best_text_match", patch, ("notalist",))
        with pytest.raises(BackendError):
            registry.dispatch("levitate", patch, ())

    def test_dispatch_coerces_module_level_types(self, flower_scene, world):
        registry = perfect_registry(store_for(flower_scene), world)
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        assert registry.dispatch("verify_property", patch, ("flower", "red")) is True
        assert registry.dispatch("best_text_match", patch, (("red", "blue"),)) == "red"
        assert registry.dispatch(
            "simple_query", patch, ("What color is this flower?",)) == "red"

    def test_distilled_registry_freezes_students(self, world, small_store, profile):
        base = baseline_registry(small_store, world, profile)
        students = fresh_students(small_store, world, profile)
        distilled = distilled_registry(base, students)
        for kind, student in students.items():
            assert distilled.backend(kind) is student
            assert student.frozen

    def test_builders_describe_bindings(self, world, small_store, profile):
        assert "detector" in baseline_registry(
            small_store, world, profile).describe()["find"]
        assert oracle_registry(small_store, world).describe()[
            "simple_query"] == "oracle"


class _CountingQuery:
    """Pure stub backend for simple_query that counts its predict calls."""

    def __init__(self, answer: str = "red"):
        self.answer = answer
        self.calls = 0

    def predict(self, inp: SubTaskInput) -> Prediction:
        self.calls += 1
        return Prediction(self.answer)


class TestDispatchMemo:
    QUESTION = ("What color is this flower?",)

    def test_repeated_dispatch_predicts_once(self, flower_scene, world):
        stub = _CountingQuery()
        registry = perfect_registry(store_for(flower_scene), world).replace(
            "simple_query", stub)
        patch = full_patch(flower_scene)
        for _ in range(3):
            assert registry.dispatch("simple_query", patch, self.QUESTION) == "red"
        assert stub.calls == 1
        registry.dispatch("simple_query", patch, ("What is this?",))
        assert stub.calls == 2

    def test_replace_shares_memo_but_not_entries(self, flower_scene, world):
        old, new = _CountingQuery("red"), _CountingQuery("blue")
        base = perfect_registry(store_for(flower_scene), world)
        first = base.replace("simple_query", old)
        second = first.replace("simple_query", new)
        patch = full_patch(flower_scene)
        assert first.dispatch("simple_query", patch, self.QUESTION) == "red"
        assert second.dispatch("simple_query", patch, self.QUESTION) == "blue"
        assert (old.calls, new.calls) == (1, 1)
        # find is bound to the same detector across the family: one predict.
        detector = base.backend("find")
        predict, calls = detector.predict, []

        def counting_predict(inp):
            calls.append(inp)
            return predict(inp)

        detector.predict = counting_predict
        for registry in (base, first, second):
            registry.dispatch("find", patch, ("flower",))
        assert len(calls) == 1

    def test_unfrozen_student_is_not_memoized(self, flower_scene, world):
        base = CorruptedBackend(store_for(flower_scene), world,
                                CorruptionProfile(seed=1, rho=1.0))
        student = TableStudent("verify_property", base, tau=3)
        registry = perfect_registry(store_for(flower_scene), world).replace(
            "verify_property", student)
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        args = ("flower", "red")
        assert registry.dispatch("verify_property", patch, args) is False
        inp = SubTaskInput("verify_property", patch, object_name="flower",
                           attribute="red", center_word="flower")
        for _ in range(3):
            student.update(inp, "yes")
        assert registry.dispatch("verify_property", patch, args) is True

    def test_ablation_with_shared_memo_matches_fresh_bases(self, world,
                                                           small_store,
                                                           profile,
                                                           monkeypatch):
        gen = GenConfig(world=world)
        verifier = consistency_verifier(small_store, world)
        qas = [qa for sid in small_store.ids()
               for qa in generate_qa(small_store.get(sid), gen, 0,
                                     verifier=verifier)]
        traces = evaluation.run_programs(
            qas, small_store, baseline_registry(small_store, world, profile))
        triples = harvest(traces, OracleBackend(small_store, world), world)
        students = fresh_students(small_store, world, profile, tau=1)
        train(students, triples, small_store)

        shared = evaluation.ablate_distilled_count(
            baseline_registry(small_store, world, profile), students,
            qas, small_store)
        combo_registry = evaluation._combo_registry
        monkeypatch.setattr(
            evaluation, "_combo_registry",
            lambda base, students, combo: combo_registry(
                baseline_registry(small_store, world, profile), students, combo))
        fresh = evaluation.ablate_distilled_count(
            baseline_registry(small_store, world, profile), students,
            qas, small_store)
        assert shared == fresh
        rows = shared["rows"]
        assert rows[0]["acc_all"] != rows[3]["acc_all"]

    def test_hot_value_classes_are_slotted(self, flower_scene):
        patch = full_patch(flower_scene)
        patches = PatchList((patch,), origin_label="flower")
        inp = SubTaskInput("exists", patches)
        step = StepRecord(0, "exists", patches, (), True, "flower")
        values = [inp, Prediction(True), patch, patches, step,
                  ExecutionTrace("q0", "", (step,), True, "ok")]
        assert [type(v) for v in values] == [SubTaskInput, Prediction,
                                             ScenePatch, PatchList,
                                             StepRecord, ExecutionTrace]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__
