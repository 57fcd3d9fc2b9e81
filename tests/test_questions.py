import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progdistill.adapter import adapt_step
from progdistill.backends import (CorruptionProfile, SubTaskInput,
                                  baseline_registry, consistency_verifier,
                                  perfect_registry)
from progdistill.dsl import ParseError, parse
from progdistill.evaluation import question_correct
from progdistill.interpreter import answer_to_text, execute
from progdistill.questions import (ALL_TEMPLATE_IDS, DISTILLABLE_KINDS,
                                   QuestionParser, RawText, TEMPLATES,
                                   TemplateQuery, corrupt_program,
                                   generate_grounding, generate_qa, pluralize,
                                   qa_from_record, qa_to_record)
from progdistill.worlds import (AskAttributeFamily, AskName, ChooseOption,
                                Exists, UNKNOWN, VerifyAttribute, WorldConfig,
                                WorldStore, default_world_config, full_patch,
                                generate_world)

from conftest import store_for


class TestTemplates:
    def test_pinned_attribute_query(self, flower_scene, world):
        made = TEMPLATES["attr_query"].make(flower_scene,
                                            random.Random("pin:0"), world, True)
        assert made.question == "What color is the flower?"
        assert made.ground_truth == "red"
        assert made.fine_program == ('ps = image.find("flower")\n'
                                     'return ps[0].simple_query('
                                     '"What color is this flower?")\n')

    def test_pointer_off_drops_center_word(self, flower_scene, world):
        made = TEMPLATES["attr_query"].make(flower_scene,
                                            random.Random("pin:0"), world, False)
        assert 'simple_query("What color is this?")' in made.fine_program
        assert made.ground_truth == "red"

    def test_every_template_program_parses_both_frameworks(self, world, small_store):
        for coarse in (False, True):
            seen = set()
            for sid in small_store.ids():
                for qa in generate_qa(small_store.get(sid), world, 0,
                                      coarse=coarse):
                    parse(qa.program)
                    seen.add(qa.question_type)
            assert seen == set(ALL_TEMPLATE_IDS)

    def test_coarse_programs_never_call_fine_modules(self, world, small_store):
        for sid in small_store.ids():
            for qa in generate_qa(small_store.get(sid), world, 0, coarse=True):
                assert "verify_property" not in qa.program
                assert "best_text_match" not in qa.program


PINNED_EXTRA_NOUNS = ("bench", "bus", "glasses", "cactus", "sheep")


class TestGeneration:
    def test_deterministic(self, world, small_store):
        scene = small_store.get(small_store.ids()[0])
        assert generate_qa(scene, world, 7) == generate_qa(scene, world, 7)
        assert generate_qa(scene, world, 7) != generate_qa(scene, world, 8)

    def test_type_coverage_over_100_scenes(self, world):
        seen = set()
        for seed in range(100):
            scene = generate_world(seed, world)
            seen.update(qa.question_type for qa in generate_qa(scene, world, 0))
        assert seen == set(ALL_TEMPLATE_IDS)

    def test_self_consistency_with_verifier(self, world, small_store):
        verifier = consistency_verifier(small_store, world)
        registry = perfect_registry(small_store, world)
        checked = 0
        for sid in small_store.ids():
            scene = small_store.get(sid)
            for qa in generate_qa(scene, world, 3, verifier=verifier):
                trace = execute(parse(qa.program), scene, registry, qa.question_id)
                answer = answer_to_text(trace.answer)
                assert answer is not None
                assert answer.casefold() == qa.ground_truth.casefold()
                checked += 1
        assert checked > 200

    def test_a_world_of_one_noun_generates_questions(self):
        # Templates that name two nouns are skipped, not a ValueError.
        world = WorldConfig(nouns=("dog",), attribute_families={
            "color": ("red",)}, relations=("near",))
        made = [qa for seed in range(10)
                for qa in generate_qa(generate_world(seed, world), world, 0)]
        assert made and {"both_exist", "either_exist"}.isdisjoint(
            qa.question_type for qa in made)

    def test_ground_truth_matches_template_semantics(self, world, small_store):
        # brute-force check for evaluable templates over the full scene
        for sid in small_store.ids():
            scene = small_store.get(sid)
            patch = full_patch(scene)
            for qa in generate_qa(scene, world, 5):
                spec = TEMPLATES[qa.question_type]
                if spec.evaluate is None:
                    continue
                parser = QuestionParser(world)
                parsed = parser.parse(qa.question)
                assert isinstance(parsed, TemplateQuery), qa.question
                assert parsed.answer(scene, patch, world) == qa.ground_truth

    def test_fault_rate_one_breaks_every_program(self, world, small_store):
        scene = small_store.get(small_store.ids()[0])
        qas = generate_qa(scene, world, 0, fault_rate=1.0)
        assert qas
        for qa in qas:
            with pytest.raises(ParseError):
                parse(qa.program)

    def test_fault_rate_zero_breaks_nothing(self, world, small_store):
        scene = small_store.get(small_store.ids()[0])
        for qa in generate_qa(scene, world, 0, fault_rate=0.0):
            parse(qa.program)

    def test_pointer_arms_pair_by_question_id(self, world, small_store):
        scene = small_store.get(small_store.ids()[2])
        on = {qa.question_id: qa for qa in generate_qa(
            scene, world, 4, visual_pointer=True)}
        off = {qa.question_id: qa for qa in generate_qa(
            scene, world, 4, visual_pointer=False)}
        shared = set(on) & set(off)
        assert len(shared) == len(on) == len(off)
        for qid in shared:
            assert on[qid].question == off[qid].question
            assert on[qid].question_type == off[qid].question_type
            assert on[qid].ground_truth == off[qid].ground_truth

    def test_frameworks_pair_by_question_id(self, world, small_store):
        scene = small_store.get(small_store.ids()[3])
        fine = {qa.question_id: qa for qa in generate_qa(
            scene, world, 4, coarse=False)}
        coarse = {qa.question_id: qa for qa in generate_qa(
            scene, world, 4, coarse=True)}
        assert set(fine) == set(coarse)
        for qid in fine:
            assert fine[qid].ground_truth == coarse[qid].ground_truth

    # sha256 (first 16 hex digits) of the qa_to_record lines over scenes 0-19
    # at seed 0, of the default world and of the default world with nouns
    # whose plurals are irregular or awkward; any drift in RNG draws, question
    # ids, texts or programs changes them.
    @pytest.mark.parametrize("extra,pointer,coarse,fault_rate,digest", [
        pytest.param(*row, id="-".join(map(str, row[1:]))) for row in (
            ((), True, False, 0.0, "4d51f9096d8e0a49"),
            ((), True, False, 0.3, "2f6ea89f56882aad"),
            ((), True, True, 0.0, "86645ff45736183b"),
            ((), True, True, 0.3, "37a03099947c4049"),
            ((), False, False, 0.0, "d8872e28065dc814"),
            ((), False, False, 0.3, "9201a754c82af8b5"),
            ((), False, True, 0.0, "ce6cf5422664096e"),
            ((), False, True, 0.3, "31ba3d3db798cf36"),
            (PINNED_EXTRA_NOUNS, True, False, 0.0, "c2ecd313df5db089"),
            (PINNED_EXTRA_NOUNS, True, False, 0.3, "a1f66e394e7834ff"),
            (PINNED_EXTRA_NOUNS, True, True, 0.0, "b6ce01b693773deb"),
            (PINNED_EXTRA_NOUNS, True, True, 0.3, "1755654a66b5a46b"),
            (PINNED_EXTRA_NOUNS, False, False, 0.0, "7b68d2331dde2ca7"),
            (PINNED_EXTRA_NOUNS, False, False, 0.3, "5bcd2917dff57206"),
            (PINNED_EXTRA_NOUNS, False, True, 0.0, "2726ef480fc106b9"),
            (PINNED_EXTRA_NOUNS, False, True, 0.3, "c10505438bb3fae0"),
        )])
    def test_pinned_question_pools(self, world, extra, pointer, coarse,
                                   fault_rate, digest):
        world = replace(world, nouns=world.nouns + extra)
        h = hashlib.sha256()
        for seed in range(20):
            for qa in generate_qa(generate_world(seed, world), world, 0,
                                  visual_pointer=pointer, coarse=coarse,
                                  fault_rate=fault_rate):
                h.update(json.dumps(qa_to_record(qa), sort_keys=True).encode()
                         + b"\n")
        assert h.hexdigest()[:16] == digest

    def test_record_round_trip(self, world, small_store):
        scene = small_store.get(small_store.ids()[0])
        for qa in generate_qa(scene, world, 0):
            assert qa_from_record(qa_to_record(qa)) == qa


class TestCorruptProgram:
    def test_always_yields_parse_error(self, world, small_store):
        rng = random.Random("cp")
        for sid in small_store.ids()[:6]:
            for qa in generate_qa(small_store.get(sid), world, 0):
                broken = corrupt_program(qa.program, rng)
                with pytest.raises(ParseError):
                    parse(broken)

    def test_repeated_corruption_ends_and_is_deterministic(self, world,
                                                           small_store):
        # parse() is cached; corrupting the same source again must take the
        # same path to the same unparseable text.
        for qa in generate_qa(small_store.get(small_store.ids()[0]), world, 0):
            outputs = {corrupt_program(qa.program, random.Random("cp:rep"))
                       for _ in range(3)}
            assert len(outputs) == 1
            with pytest.raises(ParseError):
                parse(outputs.pop())


class TestQuestionParser:
    @pytest.mark.parametrize("text,expected", [
        ("Is this flower red?", VerifyAttribute("flower", "red")),
        ("Is the tv turned on?", None),  # tv not in the vocabulary
        ("Is the flower red?", VerifyAttribute("flower", "red")),
        ("What color is this flower?", AskAttributeFamily("color", "flower")),
        ("What color is this?", AskAttributeFamily("color", None)),
        ("What size is the table?", AskAttributeFamily("size", "table")),
        ("Is this a flower or table?", ChooseOption(("flower", "table"), None)),
        ("Are these flower or table?", ChooseOption(("flower", "table"), None)),
        ("Is this flower red or blue?", ChooseOption(("red", "blue"), "flower")),
        ("Are these flowers red or blue?", ChooseOption(("red", "blue"), "flower")),
        ("Is there a dog?", Exists("dog")),
        ("What is this flower called?", AskName("flower")),
        ("What is this?", AskName(None)),
        ("How many dogs are there?", TemplateQuery("count", (("name", "dog"),))),
        ("Are there both a dog and a cup?",
         TemplateQuery("both_exist", (("name_a", "dog"), ("name_b", "cup")))),
        ("Is there a dog or a cup?",
         TemplateQuery("either_exist", (("name_a", "dog"), ("name_b", "cup")))),
        ("Do the dog and the cup have the same color?",
         TemplateQuery("compare_attr", (("name_a", "dog"), ("name_b", "cup"),
                                        ("family", "color")))),
        ("What color is the red flower?",
         TemplateQuery("two_hop_verify_query",
                       (("name", "flower"), ("cond_attr", "red"),
                        ("family", "color")))),
        ("Completely unrelated text", None),
        ("", None),
    ])
    def test_parse(self, world, text, expected):
        assert QuestionParser(world).parse(text) == expected

    def test_memo_gives_the_unmemoized_result(self, world, small_store):
        texts = ["Is this flower red?", "What color is this?", "", "nonsense",
                 "How many dogs are there?", "Is this flower red or blue?"]
        for sid in small_store.ids()[:4]:
            texts += [qa.question
                      for qa in generate_qa(small_store.get(sid), world, 0)]
        memoized, reference = QuestionParser(world), QuestionParser(world)
        for _ in range(2):
            for text in texts:
                assert memoized.parse(text) == reference._parse_text(text), text

    def test_every_generated_question_is_answerable(self, world, small_store):
        parser = QuestionParser(world)
        for sid in small_store.ids()[:10]:
            for qa in generate_qa(small_store.get(sid), world, 0):
                assert parser.parse(qa.question) is not None, qa.question

    def test_plurals_read_back_to_world_nouns(self, world):
        # A plural is a world noun's rendered plural; other words read as
        # themselves, so an s-final singular keeps its "s".
        parser = QuestionParser(replace(world, nouns=world.nouns + (
            "glasses", "scissors", "cactus", "men", "bus", "bench")))
        for plural, noun in (("dogs", "dog"), ("glasses", "glasses"),
                             ("scissors", "scissors"), ("cactuses", "cactus"),
                             ("men", "men"), ("buses", "bus"),
                             ("benches", "bench")):
            assert parser.parse(f"How many {plural} are there?") == \
                TemplateQuery("count", (("name", noun),))
        assert parser.parse("What color is this cactus?") == \
            AskAttributeFamily("color", "cactus")
        assert parser.parse("Are these men red or blue?") == \
            ChooseOption(("red", "blue"), "men")
        assert parser.parse("Is this cactus red or blue?") == \
            ChooseOption(("red", "blue"), "cactus")

    @pytest.mark.parametrize("word,plural", [
        ("dog", "dogs"), ("bus", "buses"), ("box", "boxes"), ("bench", "benches"),
        ("dish", "dishes"), ("city", "cities"), ("toy", "toys"),
        ("leaf", "leaves"), ("mouse", "mice"), ("glasses", "glasses"),
        ("sheep", "sheep"), ("men", "men"), ("pants", "pants"),
    ])
    def test_pluralize(self, word, plural):
        assert pluralize(word) == plural

    @pytest.mark.parametrize("text,expected", [
        ("Are these glasses red or blue?",
         ChooseOption(("red", "blue"), "glasses")),
        ("What color is this glasses?", AskAttributeFamily("color", "glasses")),
        ("How many glasses are there?",
         TemplateQuery("count", (("name", "glasses"),))),
        ("How many pants are there?",
         TemplateQuery("count", (("name", "pants"),))),
    ])
    def test_plurale_tantum_noun_keeps_its_s(self, world, text, expected):
        plural_world = replace(world, nouns=world.nouns + ("glasses", "pants"))
        assert QuestionParser(plural_world).parse(text) == expected


# Nouns whose plural is not the singular plus "s", or whose singular ends in
# "s": the words that a trailing-s rule reads wrongly.
AWKWARD_NOUNS = ("cactus", "pants", "men", "bus", "lens", "glasses", "sheep",
                 "mouse", "bench")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(default_world_config().nouns), min_size=2,
                max_size=3, unique=True),
       st.lists(st.sampled_from(AWKWARD_NOUNS), min_size=1, max_size=3,
                unique=True),
       st.integers(0, 10_000))
def test_generated_questions_round_trip_for_any_noun(nouns, awkward, seed):
    # Every pointer-on candidate answers its ground truth under the oracle,
    # and every distillable step keys its student the same way at dispatch
    # and from the adapter's sub-question at harvest.
    world = replace(default_world_config(), nouns=tuple(nouns + awkward),
                    ambiguity_rate=0.5)
    store = WorldStore()
    for i in range(8):
        store.add(generate_world(seed + i, world))
    verifier = consistency_verifier(store, world)
    registry = baseline_registry(store, world, CorruptionProfile(seed=1, rho=0.3))
    keys = registry.backend("simple_query")
    vocab = world.all_attributes()
    for sid in store.ids():
        scene = store.get(sid)
        for qa in generate_qa(scene, world, seed):
            assert verifier(qa), (qa.question, qa.program)
            trace = execute(parse(qa.program), scene, registry, qa.question_id)
            for step in trace.steps:
                if step.module_kind not in DISTILLABLE_KINDS:
                    continue
                sub_question = adapt_step(step.module_kind, step.receiver,
                                          step.args, attribute_vocab=vocab)
                harvested = SubTaskInput(step.module_kind, step.receiver,
                                         question=sub_question)
                # The input ModuleRegistry builds for the step at dispatch.
                dispatched = SubTaskInput(step.module_kind, step.receiver,
                                          args=step.args)
                assert keys.student_key(harvested) == \
                    keys.student_key(dispatched), sub_question


# Attribute values for random worlds; none is a noun or a family name.
ATTRIBUTE_POOL = ("red", "blue", "green", "yellow", "small", "large", "tiny",
                  "wooden", "metal", "striped", "round", "shiny")
FAMILY_NAMES = ("color", "size", "material", "pattern")


@st.composite
def random_worlds(draw) -> WorldConfig:
    """Worlds of 1-4 attribute families (a family may hold one value), any
    ambiguity rate, object count range and canvas."""
    nouns = draw(st.lists(st.sampled_from(default_world_config().nouns
                                          + AWKWARD_NOUNS),
                          min_size=1, max_size=6, unique=True))
    values = draw(st.lists(st.sampled_from(ATTRIBUTE_POOL), min_size=1,
                           max_size=len(ATTRIBUTE_POOL), unique=True))
    families = draw(st.integers(1, min(len(FAMILY_NAMES), len(values))))
    cuts = sorted(draw(st.lists(st.integers(1, len(values) - 1),
                                min_size=families - 1, max_size=families - 1,
                                unique=True)) if families > 1 else [])
    bounds = [0, *cuts, len(values)]
    lo = draw(st.integers(1, 8))
    return WorldConfig(
        nouns=tuple(nouns),
        attribute_families={FAMILY_NAMES[i]: tuple(values[a:b]) for i, (a, b)
                            in enumerate(zip(bounds, bounds[1:]))},
        relations=("near",),
        objects_per_scene=(lo, draw(st.integers(lo, 10))),
        ambiguity_rate=draw(st.floats(0.0, 1.0)),
        canvas=(draw(st.integers(20, 160)), draw(st.integers(20, 160))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_worlds(), st.integers(0, 10_000))
def test_unverified_candidates_answer_their_ground_truth(world, seed):
    # Without a verifier, every pointer candidate the generator makes runs to
    # its ground truth under the miss-free oracle: the verifier filters
    # nothing.
    store = WorldStore()
    for i in range(4):
        store.add(generate_world(seed + i, world))
    registry = perfect_registry(store, world)
    for sid in store.ids():
        scene = store.get(sid)
        for qa in generate_qa(scene, world, seed, verifier=None):
            trace = execute(parse(qa.program), scene, registry, qa.question_id)
            assert question_correct(qa, trace) == (True, False), \
                (qa.question, qa.program, trace.answer)


class TestQueryKey:
    def test_canonical_and_distinct(self, world):
        keys = {
            VerifyAttribute("flower", "red").key(),
            ChooseOption(("red", "blue"), "flower").key(),
            ChooseOption(("red", "blue"), None).key(),
            AskAttributeFamily("color", "flower").key(),
            AskAttributeFamily("color", None).key(),
            AskName(None).key(),
            Exists("dog").key(),
            TemplateQuery("count", (("name", "dog"),)).key(),
            RawText("Mystery  Text").key(),
            RawText("").key(),
        }
        assert len(keys) == 10
        assert RawText("Mystery  Text").key() == "raw|mystery text"
        assert RawText(" MYSTERY text ").key() == "raw|mystery text"
        assert RawText("").key() == "raw|"

    def test_answer_support(self, world):
        assert VerifyAttribute("a", "b").support(world) == ("no", "yes")
        assert AskAttributeFamily("color", None).support(world) == \
            ("blue", "green", "red")
        assert ChooseOption(("x", "y"), None).support(world) == ("x", "y")
        assert "5" in TemplateQuery("count", (("name", "dog"),)).support(world)
        assert RawText("Mystery text").support(world) == ()
        assert RawText("").support(world) == ()

    def test_raw_text_answers_unknown(self, world, flower_scene):
        assert RawText("Mystery text").answer(
            flower_scene, full_patch(flower_scene), world) == UNKNOWN


class TestGrounding:
    def test_cases_well_formed_and_deterministic(self, world, small_store):
        total = 0
        kinds = set()
        for sid in small_store.ids():
            scene = small_store.get(sid)
            cases = generate_grounding(scene, world, 0)
            assert cases == generate_grounding(scene, world, 0)
            for case in cases:
                parse(case.program)
                kinds.add(case.kind)
                x, y, w, h = case.target_bbox
                assert w > 0 and h > 0
                assert case.expression.startswith("the ")
                total += 1
        assert total > 10
        assert kinds == {"plain", "discriminated"}

    def test_programs_return_the_target_patch_on_perfect_registry(self, world, small_store):
        registry = perfect_registry(small_store, world)
        for sid in small_store.ids():
            scene = small_store.get(sid)
            for case in generate_grounding(scene, world, 1):
                trace = execute(parse(case.program), scene, registry, case.case_id)
                assert trace.answer.region == case.target_bbox
