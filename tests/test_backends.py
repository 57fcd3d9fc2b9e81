import math
import random
from dataclasses import replace

import pytest

from progdistill import evaluation
from progdistill.adapter import adapt_best_text_match, adapt_step
from progdistill.backends import (BackendError, CorruptedBackend,
                                  CorruptionProfile, DetectorBackend,
                                  ModuleRegistry, OracleBackend, PhaseError,
                                  RegistryError, SubTaskInput,
                                  TableStudent, baseline_registry,
                                  consistency_verifier, distilled_registry,
                                  fresh_students, oracle_registry,
                                  perfect_registry, resolve_query)
from progdistill.distill import harvest, train
from progdistill.dsl import parse
from progdistill.interpreter import (STATUS_NAN, ExecutionTrace, StepRecord,
                                      execute)
from progdistill.questions import QuestionParser, RawText, generate_qa
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
                                            args=("flower",)))
        assert isinstance(out, PatchList)
        assert len(out) == 2
        assert out.origin_label == "flower"
        assert [p.region for p in out] == [(5, 5, 14, 14), (50, 50, 14, 14)]
        for patch in out:
            assert patch.origin_label == "flower"

    def test_find_unknown_name_is_empty(self, two_flower_scene):
        detector = DetectorBackend(store_for(two_flower_scene), miss_rate=0.0)
        out = detector.predict(SubTaskInput("find", full_patch(two_flower_scene),
                                            args=("unicorn",)))
        assert len(out) == 0
        assert out.origin_label == "unicorn"

    def test_miss_rate_one_finds_nothing(self, two_flower_scene):
        detector = DetectorBackend(store_for(two_flower_scene), miss_rate=1.0)
        out = detector.predict(SubTaskInput("find", full_patch(two_flower_scene),
                                            args=("flower",)))
        assert len(out) == 0

    def test_misses_are_deterministic_per_object(self, world):
        store = store_for(*(generate_world(s, world) for s in range(10)))
        a = DetectorBackend(store, miss_rate=0.3, seed=5)
        b = DetectorBackend(store, miss_rate=0.3, seed=5)
        for sid in store.ids():
            patch = full_patch(store.get(sid))
            for noun in world.nouns:
                inp = SubTaskInput("find", patch, args=(noun,))
                assert [p.region for p in a.predict(inp)] == \
                    [p.region for p in b.predict(inp)]

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
                                                    args=(noun,)))
                for patch in out:
                    obj = next(o for o in scene.objects if o.bbox == patch.region)
                    assert obj.name == noun
                    assert overlap_ratio(obj.bbox, receiver.region) >= 0.5

    def test_exists(self, two_flower_scene):
        detector = DetectorBackend(store_for(two_flower_scene), miss_rate=0.0)
        empty = PatchList((), origin_label="x")
        assert detector.predict(SubTaskInput("exists", empty)) is False
        full = detector.predict(SubTaskInput("find", full_patch(two_flower_scene),
                                             args=("flower",)))
        assert detector.predict(SubTaskInput("exists", full)) is True


class TestOracleBackend:
    def test_structured_verify(self, flower_scene, world):
        oracle = OracleBackend(store_for(flower_scene), world)
        patch = crop(flower_scene, flower_scene.objects[0].bbox,
                     origin_label="flower")
        pred = oracle.predict(SubTaskInput("verify_property", patch,
                                           args=("flower", "red")))
        assert pred == "yes"

    def test_question_text_path_matches_structured_path(self, flower_scene, world):
        oracle = OracleBackend(store_for(flower_scene), world)
        patch = crop(flower_scene, flower_scene.objects[0].bbox,
                     origin_label="flower")
        structured = oracle.predict(SubTaskInput(
            "verify_property", patch, args=("flower", "red")))
        via_text = oracle.predict(SubTaskInput(
            "simple_query", patch, question="Is this flower red?"))
        assert structured == via_text == "yes"

    def test_unparseable_question_is_unknown(self, flower_scene, world):
        oracle = OracleBackend(store_for(flower_scene), world)
        pred = oracle.predict(SubTaskInput("simple_query",
                                           full_patch(flower_scene),
                                           question="gibberish prompt"))
        assert pred == "unknown"


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
                                            args=("flower", "red")))
        assert pred == "yes"

    def test_corrupted_key_flips_verify_answer(self, flower_scene, world):
        profile = CorruptionProfile(seed=1, rho=1.0)  # every key corrupted
        backend = CorruptedBackend(store_for(flower_scene), world, profile)
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        pred = backend.predict(SubTaskInput("verify_property", patch,
                                            args=("flower", "red")))
        assert pred == "no"  # yes<->no rotation

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
                                       args=(noun, attr))
                    assert a.predict(inp) == b.predict(inp)

    def test_signature_perceived_through_permutation_only_when_corrupted(
            self, flower_scene, world):
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        clean = CorruptedBackend(store_for(flower_scene), world,
                                 CorruptionProfile(seed=1, rho=0.0))
        inp = SubTaskInput("verify_property", patch, args=("flower", "red"))
        assert clean.student_key(inp).endswith("|flower(red,small)")
        corrupted = CorruptedBackend(store_for(flower_scene), world,
                                     CorruptionProfile(seed=1, rho=1.0))
        assert not corrupted.student_key(inp).endswith("|flower(red,small)")
        assert corrupted.perceived_signature(inp, False) == "flower(red,small)"


class TestResolveQueryCanonicalization:
    def test_noun_options_drop_center_adjective_options_keep_it(
            self, flower_scene, world):
        parser = QuestionParser(world)
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        noun_inp = SubTaskInput("best_text_match", patch,
                                args=(("flower", "table"),))
        assert resolve_query(noun_inp, parser) == \
            ChooseOption(("flower", "table"), None)
        adj_inp = SubTaskInput("best_text_match", patch,
                               args=(("red", "blue"),))
        assert resolve_query(adj_inp, parser) == \
            ChooseOption(("red", "blue"), "flower")

    def test_structured_and_text_paths_share_keys(self, flower_scene, world):
        parser = QuestionParser(world)
        patch = crop(flower_scene, flower_scene.objects[0].bbox, "flower")
        structured = resolve_query(
            SubTaskInput("verify_property", patch, args=("flower", "red")), parser)
        via_text = resolve_query(
            SubTaskInput("simple_query", patch, question="Is this flower red?"),
            parser)
        assert structured.key() == via_text.key()

    def test_unreadable_text_is_raw_text(self, flower_scene, world):
        parser = QuestionParser(world)
        store = store_for(flower_scene)
        patch = full_patch(flower_scene)
        inp = SubTaskInput("simple_query", patch, question="Why is  the Sky?")
        assert resolve_query(inp, parser) == RawText("Why is  the Sky?")
        # An input with neither a question nor a call has no sub-question.
        with pytest.raises(BackendError):
            resolve_query(SubTaskInput("simple_query", patch), parser)
        assert resolve_query(inp, parser).key() == "raw|why is the sky?"
        assert OracleBackend(store, world).predict(inp) == "unknown"

    def test_plurale_tantum_center_keys_agree(self, world):
        # Dispatch keys a best_text_match step by its options; harvest keys
        # the adapted sub-question "Are these glasses blue or red?".
        glasses_world = replace(world, nouns=world.nouns + ("glasses",))
        scene = SceneGraph("g", (100, 100), (
            SceneObject("o00", "glasses", frozenset({"red", "small"}),
                        (10, 10, 16, 16)),), seed=-1)
        patch = crop(scene, scene.objects[0].bbox, "glasses")
        options = ("blue", "red")
        question = adapt_step("best_text_match", patch, (options,),
                              attribute_vocab=glasses_world.all_attributes())
        assert question == "Are these glasses blue or red?"
        dispatched = SubTaskInput("best_text_match", patch, args=(options,))
        harvested = SubTaskInput("best_text_match", patch, question=question)
        base = CorruptedBackend(store_for(scene), glasses_world,
                                CorruptionProfile(seed=1, rho=0.3))
        assert base.student_key(harvested) == base.student_key(dispatched)
        teacher = OracleBackend(store_for(scene), glasses_world)
        assert teacher.predict(harvested) == "red"

    @pytest.mark.parametrize("plural", [False, True])
    @pytest.mark.parametrize("options", [("cup", "dog", "glasses"),
                                         ("cup", "dog", "glasses", "flower")])
    def test_noun_lists_of_three_or_more_options_keys_agree(self, world,
                                                            options, plural):
        # "Are these cup or dog or glasses?" lists three options; its first
        # option is not a center word.
        glasses_world = replace(world, nouns=world.nouns + ("glasses",))
        scene = SceneGraph("g", (100, 100), (
            SceneObject("o00", "glasses", frozenset({"red", "small"}),
                        (10, 10, 16, 16)),), seed=-1)
        patch = crop(scene, scene.objects[0].bbox, "glasses")
        question = adapt_best_text_match(
            options, "glasses", plural,
            attribute_vocab=glasses_world.all_attributes())
        dispatched = SubTaskInput("best_text_match", patch, args=(options,))
        harvested = SubTaskInput("best_text_match", patch, question=question)
        base = CorruptedBackend(store_for(scene), glasses_world,
                                CorruptionProfile(seed=1, rho=0.3))
        assert base.student_key(harvested) == base.student_key(dispatched)
        teacher = OracleBackend(store_for(scene), glasses_world)
        assert teacher.predict(harvested) == "glasses"


class TestTableStudent:
    def _student(self, scene, world, rho=1.0, tau=3):
        base = CorruptedBackend(store_for(scene), world,
                                CorruptionProfile(seed=1, rho=rho))
        return TableStudent("verify_property", base, tau=tau)

    def _inp(self, scene):
        patch = crop(scene, scene.objects[0].bbox, "flower")
        return SubTaskInput("verify_property", patch, args=("flower", "red"))

    def test_below_threshold_predicts_exactly_like_base(self, flower_scene, world):
        student = self._student(flower_scene, world)
        inp = self._inp(flower_scene)
        base_pred = student.base.predict(inp)
        for _ in range(2):  # tau is 3; stay below
            student.update(inp, "yes")
            assert student.predict(inp) == base_pred

    def test_threshold_crossing_flips_argmax_to_teacher(self, flower_scene, world):
        student = self._student(flower_scene, world)
        inp = self._inp(flower_scene)
        assert student.predict(inp) == "no"  # corrupted base
        for _ in range(3):
            student.update(inp, "yes")
        assert student.predict(inp) == "yes"

    def test_ties_break_lexicographically(self, flower_scene, world):
        student = self._student(flower_scene, world, tau=2)
        inp = self._inp(flower_scene)
        student.update(inp, "zzz")
        student.update(inp, "aaa")
        assert student.predict(inp) == "aaa"

    def test_label_probability_is_add_alpha_smoothed(self, flower_scene,
                                                     world):
        student = self._student(flower_scene, world)
        key, support = student.key_and_support(self._inp(flower_scene))
        # no counts: add-one smoothing over {no, yes} -> uniform
        assert support == ("no", "yes")
        for label in support:
            assert student.label_probability(key, support, label) == 0.5
        # a label outside the support widens it by one
        assert student.label_probability(key, support, "maybe") == \
            pytest.approx(1 / 3)
        for _ in range(3):
            student.count(key, "yes")
        student.count(key, "blue")
        labels = set(student.table[key]) | set(support)
        assert sum(student.label_probability(key, support, label)
                   for label in labels) == pytest.approx(1.0)
        assert student.label_probability(key, support, "yes") == \
            pytest.approx(4 / 7)
        assert student.label_probability("unseen", support, "no") == 0.5

    def test_label_probability_without_smoothing(self, flower_scene, world):
        student = TableStudent("verify_property",
                               self._student(flower_scene, world).base,
                               alpha=0.0)
        key, support = student.key_and_support(self._inp(flower_scene))
        assert student.label_probability(key, support, "yes") == 0.0
        student.count(key, "yes")
        assert student.label_probability(key, support, "yes") == 1.0
        assert student.label_probability(key, support, "no") == 0.0

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
        assert loaded.predict(inp) == student.predict(inp)

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
                label = teacher.predict(inp)
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
            assert student.predict(inp) == brute_argmax
            assert student.predict(inp) == teacher.predict(inp)
            matched += 1
        assert matched == len(inputs)


class TestRegistry:
    def test_find_must_be_the_detector(self, world, small_store):
        oracle = OracleBackend(small_store, world)
        with pytest.raises(RegistryError):
            ModuleRegistry(oracle, oracle)

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
        found = registry.dispatch("find", patch, ("flower",))
        for kind, receiver, args in [
                ("find", "not a patch", ("flower",)),
                ("find", patch, (3,)),
                ("find", patch, ("flower", "table")),
                ("exists", "not a patch", ()),
                ("verify_property", patch, ("flower",)),
                ("verify_property", patch, ("flower", 3)),
                ("verify_property", found, ("flower", "red")),
                ("best_text_match", patch, ("notalist",)),
                ("best_text_match", patch, ((),)),
                ("best_text_match", patch, (("red", 3),)),
                ("simple_query", patch, (None,)),
                ("simple_query", found, ("What color is this?",)),
                ("levitate", patch, ())]:
            with pytest.raises(BackendError):
                registry.dispatch(kind, receiver, args)

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

    def predict(self, inp: SubTaskInput) -> str:
        self.calls += 1
        return self.answer


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
        inp = SubTaskInput("verify_property", patch, args=("flower", "red"))
        for _ in range(3):
            student.update(inp, "yes")
        assert registry.dispatch("verify_property", patch, args) is True

    def test_ablation_with_shared_memo_matches_fresh_bases(self, world,
                                                           small_store,
                                                           profile,
                                                           monkeypatch):
        verifier = consistency_verifier(small_store, world)
        qas = [qa for sid in small_store.ids()
               for qa in generate_qa(small_store.get(sid), world, 0,
                                     verifier=verifier)]
        traces = evaluation.run_programs(
            qas, small_store, baseline_registry(small_store, world, profile))
        triples = harvest(traces, OracleBackend(small_store, world), world)
        students = fresh_students(small_store, world, profile, tau=1)
        train(students, triples, small_store)

        shared = evaluation.ablate_distilled_count(
            baseline_registry(small_store, world, profile), students,
            qas, small_store)
        monkeypatch.setattr(
            evaluation, "distilled_registry",
            lambda base, students: distilled_registry(
                baseline_registry(small_store, world, profile), students))
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
        step = StepRecord(0, "exists", patches, (), True)
        values = [inp, patch, patches, step,
                  ExecutionTrace("q0", "", (step,), True, "ok")]
        assert [type(v) for v in values] == [SubTaskInput,
                                             ScenePatch, PatchList,
                                             StepRecord, ExecutionTrace]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__


@pytest.mark.parametrize("call", [
    'ps[0].verify_property("", "red")',
    'ps[0].best_text_match(["flower"])',
    'ps[0].best_text_match(["flower", "red"])',
    'image.best_text_match(["red", "blue"])',
    'ps[0].simple_query("  ")',
], ids=["empty-name", "one-option", "mixed-options", "no-center",
        "blank-question"])
def test_a_call_the_adapter_rejects_ends_as_nan(call, flower_scene, world,
                                                profile):
    # Dispatch keys a call by the adapter's sub-question, as harvest does, so
    # a call with no sub-question is a bad call under every registry.
    store = store_for(flower_scene)
    base = baseline_registry(store, world, profile, miss_rate=0.0)
    registries = [base, oracle_registry(store, world, miss_rate=0.0),
                  perfect_registry(store, world),
                  distilled_registry(base, fresh_students(store, world, profile))]
    program = parse(f'ps = image.find("flower")\nreturn {call}\n')
    for registry in registries:
        trace = execute(program, flower_scene, registry, "q0")
        assert trace.status == STATUS_NAN, registry.describe()
        assert [step.module_kind for step in trace.steps] == ["find"]
