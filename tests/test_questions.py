import random

import pytest

from progdistill.backends import consistency_verifier, perfect_registry
from progdistill.dsl import ParseError, parse
from progdistill.interpreter import answer_to_text, execute
from progdistill.questions import (ALL_TEMPLATE_IDS, GenConfig, QuestionParser,
                                   TEMPLATES, TemplateQuery, answer_support,
                                   corrupt_program, depluralize,
                                   evaluate_template, generate_grounding,
                                   generate_qa, qa_from_record, qa_to_record,
                                   query_key)
from progdistill.worlds import (AskAttributeFamily, AskName, ChooseOption,
                                Exists, VerifyAttribute, full_patch,
                                generate_world)

from conftest import store_for


class TestTemplates:
    def test_pinned_attribute_query(self, flower_scene, world):
        gen = GenConfig(world=world)
        made = TEMPLATES["attr_query"].make(flower_scene,
                                            random.Random("pin:0"), gen)
        assert made.slots == {"name": "flower", "family": "color"}
        assert made.question == "What color is the flower?"
        assert made.ground_truth == "red"
        assert made.fine_program == ('ps = image.find("flower")\n'
                                     'return ps[0].simple_query('
                                     '"What color is this flower?")\n')

    def test_pointer_off_drops_center_word(self, flower_scene, world):
        gen = GenConfig(world=world, visual_pointer=False)
        made = TEMPLATES["attr_query"].make(flower_scene,
                                            random.Random("pin:0"), gen)
        assert 'simple_query("What color is this?")' in made.fine_program
        assert made.ground_truth == "red"

    def test_every_template_program_parses_both_frameworks(self, world, small_store):
        for framework in ("fine", "coarse"):
            gen = GenConfig(world=world, framework=framework)
            seen = set()
            for sid in small_store.ids():
                for qa in generate_qa(small_store.get(sid), gen, 0):
                    parse(qa.program)
                    seen.add(qa.question_type)
            assert seen == set(ALL_TEMPLATE_IDS)

    def test_coarse_programs_never_call_fine_modules(self, world, small_store):
        gen = GenConfig(world=world, framework="coarse")
        for sid in small_store.ids():
            for qa in generate_qa(small_store.get(sid), gen, 0):
                assert "verify_property" not in qa.program
                assert "best_text_match" not in qa.program


class TestGeneration:
    def test_deterministic(self, world, small_store):
        gen = GenConfig(world=world)
        scene = small_store.get(small_store.ids()[0])
        assert generate_qa(scene, gen, 7) == generate_qa(scene, gen, 7)
        assert generate_qa(scene, gen, 7) != generate_qa(scene, gen, 8)

    def test_type_coverage_over_100_scenes(self, world):
        gen = GenConfig(world=world)
        seen = set()
        for seed in range(100):
            scene = generate_world(seed, world)
            seen.update(qa.question_type for qa in generate_qa(scene, gen, 0))
        assert seen == set(ALL_TEMPLATE_IDS)

    def test_self_consistency_with_verifier(self, world, small_store):
        verifier = consistency_verifier(small_store, world)
        registry = perfect_registry(small_store, world)
        gen = GenConfig(world=world)
        checked = 0
        for sid in small_store.ids():
            scene = small_store.get(sid)
            for qa in generate_qa(scene, gen, 3, verifier=verifier):
                trace = execute(parse(qa.program), scene, registry, qa.question_id)
                answer = answer_to_text(trace.answer)
                assert answer is not None
                assert answer.casefold() == qa.ground_truth.casefold()
                checked += 1
        assert checked > 200

    def test_ground_truth_matches_template_semantics(self, world, small_store):
        # brute-force check for evaluable templates over the full scene
        gen = GenConfig(world=world)
        for sid in small_store.ids():
            scene = small_store.get(sid)
            visible = full_patch(scene).visible_objects
            for qa in generate_qa(scene, gen, 5):
                spec = TEMPLATES[qa.question_type]
                if spec.evaluate is None:
                    continue
                parser = QuestionParser(world)
                parsed = parser.parse(qa.question)
                assert isinstance(parsed, TemplateQuery), qa.question
                assert evaluate_template(scene, visible, parsed, world) == \
                    qa.ground_truth

    def test_fault_rate_one_breaks_every_program(self, world, small_store):
        gen = GenConfig(world=world, fault_rate=1.0)
        scene = small_store.get(small_store.ids()[0])
        qas = generate_qa(scene, gen, 0)
        assert qas
        for qa in qas:
            with pytest.raises(ParseError):
                parse(qa.program)

    def test_fault_rate_zero_breaks_nothing(self, world, small_store):
        gen = GenConfig(world=world, fault_rate=0.0)
        scene = small_store.get(small_store.ids()[0])
        for qa in generate_qa(scene, gen, 0):
            parse(qa.program)

    def test_pointer_arms_pair_by_question_id(self, world, small_store):
        scene = small_store.get(small_store.ids()[2])
        on = {qa.question_id: qa for qa in generate_qa(
            scene, GenConfig(world=world, visual_pointer=True), 4)}
        off = {qa.question_id: qa for qa in generate_qa(
            scene, GenConfig(world=world, visual_pointer=False), 4)}
        shared = set(on) & set(off)
        assert len(shared) == len(on) == len(off)
        for qid in shared:
            assert on[qid].question == off[qid].question
            assert on[qid].question_type == off[qid].question_type
            assert on[qid].ground_truth == off[qid].ground_truth

    def test_frameworks_pair_by_question_id(self, world, small_store):
        scene = small_store.get(small_store.ids()[3])
        fine = {qa.question_id: qa for qa in generate_qa(
            scene, GenConfig(world=world, framework="fine",
                             verify_consistency=False), 4)}
        coarse = {qa.question_id: qa for qa in generate_qa(
            scene, GenConfig(world=world, framework="coarse",
                             verify_consistency=False), 4)}
        assert set(fine) == set(coarse)
        for qid in fine:
            assert fine[qid].ground_truth == coarse[qid].ground_truth

    def test_bad_config_rejected(self, world):
        with pytest.raises(ValueError):
            GenConfig(world=world, fault_rate=1.5).validate()
        with pytest.raises(ValueError):
            GenConfig(world=world, framework="medium").validate()

    def test_record_round_trip(self, world, small_store):
        scene = small_store.get(small_store.ids()[0])
        for qa in generate_qa(scene, GenConfig(world=world), 0):
            assert qa_from_record(qa_to_record(qa)) == qa


class TestCorruptProgram:
    def test_always_yields_parse_error(self, world, small_store):
        rng = random.Random("cp")
        gen = GenConfig(world=world)
        for sid in small_store.ids()[:6]:
            for qa in generate_qa(small_store.get(sid), gen, 0):
                broken = corrupt_program(qa.program, rng)
                with pytest.raises(ParseError):
                    parse(broken)

    def test_repeated_corruption_ends_and_is_deterministic(self, world,
                                                           small_store):
        # parse() is cached; corrupting the same source again must take the
        # same path to the same unparseable text.
        gen = GenConfig(world=world)
        for qa in generate_qa(small_store.get(small_store.ids()[0]), gen, 0):
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
        gen = GenConfig(world=world)
        for sid in small_store.ids()[:4]:
            texts += [qa.question
                      for qa in generate_qa(small_store.get(sid), gen, 0)]
        memoized, reference = QuestionParser(world), QuestionParser(world)
        for _ in range(2):
            for text in texts:
                assert memoized.parse(text) == reference._parse_text(text), text

    def test_every_generated_question_is_answerable(self, world, small_store):
        parser = QuestionParser(world)
        gen = GenConfig(world=world)
        for sid in small_store.ids()[:10]:
            for qa in generate_qa(small_store.get(sid), gen, 0):
                assert parser.parse(qa.question) is not None, qa.question

    def test_depluralize(self):
        assert depluralize("dogs") == "dog"
        assert depluralize("glasses") == "glasse"  # heuristic, unused noun
        assert depluralize("glass") == "glass"
        assert depluralize("children") == "child"


class TestQueryKey:
    def test_canonical_and_distinct(self, world):
        keys = {
            query_key(VerifyAttribute("flower", "red")),
            query_key(ChooseOption(("red", "blue"), "flower")),
            query_key(ChooseOption(("red", "blue"), None)),
            query_key(AskAttributeFamily("color", "flower")),
            query_key(AskAttributeFamily("color", None)),
            query_key(AskName(None)),
            query_key(Exists("dog")),
            query_key(TemplateQuery("count", (("name", "dog"),))),
            query_key(None, raw_text="Mystery  Text"),
        }
        assert len(keys) == 9
        assert query_key(None, raw_text="Mystery  Text") == "raw|mystery text"

    def test_answer_support(self, world):
        assert answer_support(VerifyAttribute("a", "b"), world) == ("no", "yes")
        assert answer_support(AskAttributeFamily("color", None), world) == \
            ("blue", "green", "red")
        assert answer_support(ChooseOption(("x", "y"), None), world) == ("x", "y")
        assert "5" in answer_support(TemplateQuery("count", (("name", "dog"),)), world)
        assert answer_support(None, world) == ()


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
