import logging

import pytest

from progdistill.adapter import (AdapterError, adapt_best_text_match,
                                 adapt_simple_query, adapt_step,
                                 adapt_verify_property)
from progdistill.backends import OracleBackend, perfect_registry
from progdistill.distill import harvest
from progdistill.dsl import parse
from progdistill.interpreter import execute
from progdistill.questions import article, generate_qa
from progdistill.worlds import ScenePatch, crop

from conftest import store_for

ATTRS = {"red", "blue", "green", "small", "large", "open", "turned on"}


class TestVerifyPropertyTemplate:
    def test_golden_flower_red(self):
        assert adapt_verify_property("flower", "red") == "Is this flower red?"

    def test_door_open(self):
        assert adapt_verify_property("door", "open") == "Is this door open?"

    def test_multiword_attribute(self):
        assert adapt_verify_property("tv", "turned on") == "Is this tv turned on?"

    def test_empty_tokens_rejected(self):
        with pytest.raises(AdapterError):
            adapt_verify_property("", "red")
        with pytest.raises(AdapterError):
            adapt_verify_property("flower", "")


class TestBestTextMatchTemplate:
    def test_golden_noun_singular(self):
        out = adapt_best_text_match(["bread", "sandwich"], center="food",
                                    plural=False, attribute_vocab=ATTRS)
        assert out == "Is this a bread or sandwich?"

    def test_adjective_singular_uses_center_word(self):
        out = adapt_best_text_match(["red", "blue"], center="flower",
                                    plural=False, attribute_vocab=ATTRS)
        assert out == "Is this flower red or blue?"

    def test_noun_plural_drops_article(self):
        out = adapt_best_text_match(["apple", "orange"], center="fruits",
                                    plural=True, attribute_vocab=ATTRS)
        assert out == "Are these apple or orange?"

    def test_adjective_plural(self):
        out = adapt_best_text_match(["red", "blue"], center="flowers",
                                    plural=True, attribute_vocab=ATTRS)
        assert out == "Are these flowers red or blue?"

    def test_article_an_for_vowel_first_option(self):
        out = adapt_best_text_match(["apple", "pear"], center="fruit",
                                    plural=False, attribute_vocab=ATTRS)
        assert out == "Is this an apple or pear?"

    def test_three_options_join_with_or(self):
        out = adapt_best_text_match(["bread", "sandwich", "cake"],
                                    center="food", plural=False,
                                    attribute_vocab=ATTRS)
        assert out == "Is this a bread or sandwich or cake?"

    def test_errors(self):
        with pytest.raises(AdapterError):
            adapt_best_text_match(["bread"], attribute_vocab=ATTRS)
        with pytest.raises(AdapterError):
            adapt_best_text_match(["bread", "red"], center="x",
                                  attribute_vocab=ATTRS)
        with pytest.raises(AdapterError):
            adapt_best_text_match(["red", "blue"], center=None,
                                  attribute_vocab=ATTRS)
        with pytest.raises(AdapterError):
            adapt_best_text_match(["bread", ""], attribute_vocab=ATTRS)


class TestSimpleQueryTemplate:
    def test_golden_question_gains_question_mark(self):
        assert adapt_simple_query("What color is this table") == \
            "What color is this table?"

    def test_already_terminated_unchanged(self):
        assert adapt_simple_query("What is this?") == "What is this?"

    def test_extra_question_marks_collapse_to_one(self):
        assert adapt_simple_query("Really??") == "Really?"

    @pytest.mark.parametrize("question", ["", "  ", "\n"])
    def test_blank_question_is_rejected_without_a_warning(self, caplog,
                                                            question):
        with caplog.at_level(logging.WARNING):
            with pytest.raises(AdapterError, match="empty simple_query"):
                adapt_simple_query(question)
        assert caplog.text == ""


class TestPluralityAndArticles:
    # A center word is the noun a find() matched; only a noun that is its own
    # plural reads as a plural center.
    @pytest.mark.parametrize("center,adjectives,nouns", [
        ("glasses", "Are these glasses red or blue?", "Are these cup or glasses?"),
        ("bus", "Is this bus red or blue?", "Is this a bus or cup?"),
        ("pants", "Are these pants red or blue?", "Are these cup or pants?"),
        ("flower", "Is this flower red or blue?", "Is this a cup or flower?"),
    ], ids=["glasses", "bus", "pants", "flower"])
    def test_plural_center_is_a_noun_that_is_its_own_plural(
            self, center, adjectives, nouns):
        patch = ScenePatch("s", (0, 0, 10, 10), origin_label=center,
                           visible_objects=("o00",))
        for options, text in ((("red", "blue"), adjectives),
                              (tuple(sorted(("cup", center))), nouns)):
            assert adapt_step("best_text_match", patch, (options,),
                              attribute_vocab=ATTRS) == text

    def test_article(self):
        assert article("apple") == "an"
        assert article("bread") == "a"


class TestAdaptStep:
    def _patch(self):
        return ScenePatch("s", (0, 0, 10, 10), origin_label="flower",
                          visible_objects=("o00",))

    def test_verify_step(self):
        out = adapt_step("verify_property", self._patch(), ("flower", "red"),
                         attribute_vocab=ATTRS)
        assert out == "Is this flower red?"

    def test_btm_step_center_and_plural_from_receiver(self):
        out = adapt_step("best_text_match", self._patch(), (("red", "blue"),),
                         attribute_vocab=ATTRS)
        assert out == "Is this flower red or blue?"

    def test_simple_query_step(self):
        out = adapt_step("simple_query", self._patch(),
                         ("What color is this flower",), attribute_vocab=ATTRS)
        assert out == "What color is this flower?"

    def test_sub_image_region_identity(self, flower_scene, world):
        # The sub-image of a harvested step is its receiver patch.
        store = store_for(flower_scene)
        source = ('ps = image.find("flower")\n'
                  'return ps[0].verify_property("flower", "red")\n')
        trace = execute(parse(source), flower_scene,
                        perfect_registry(store, world), "q")
        triple, = harvest([trace], OracleBackend(store, world), world)
        assert triple.region == trace.steps[1].receiver.region

    def test_non_distillable_kind_rejected(self):
        with pytest.raises(AdapterError):
            adapt_step("find", self._patch(), ("flower",), attribute_vocab=ATTRS)

    def test_empty_question_step_rejected(self):
        with pytest.raises(AdapterError):
            adapt_step("simple_query", self._patch(), ("",), attribute_vocab=ATTRS)

    def test_totality_over_generated_traces(self, world, small_store):
        """Every distillable step from generated programs adapts cleanly."""
        registry = perfect_registry(small_store, world)
        vocab = world.all_attributes()
        adapted = 0
        for sid in small_store.ids():
            scene = small_store.get(sid)
            for qa in generate_qa(scene, world, 0):
                trace = execute(parse(qa.program), scene, registry,
                                qa.question_id)
                for step in trace.steps:
                    if step.module_kind in ("verify_property",
                                            "best_text_match", "simple_query"):
                        assert adapt_step(step.module_kind, step.receiver,
                                          step.args, attribute_vocab=vocab)
                        adapted += 1
        assert adapted > 150
