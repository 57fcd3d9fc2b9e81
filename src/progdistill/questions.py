"""Question, program, and grounding-case generation over scene worlds, plus
the question-text parser that backends use to understand sub-questions.

Each template family produces: the question text, the ground-truth answer
(computed by brute force on the scene), a fine-grained program, and a coarse
counterpart that collapses verify/match steps into simple_query phrasings.
Template slot selection consumes the RNG identically regardless of the
visual_pointer flag or framework, so paired generations share question ids.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import dsl
from .util import stable_unit
from .worlds import (AskAttributeFamily, AskName, ChooseOption, Exists,
                     SceneGraph, SceneObject, StructuredQuery, UNKNOWN,
                     VerifyAttribute, WorldConfig, Rect)

DISTILLABLE_KINDS = ("verify_property", "best_text_match", "simple_query")


# ---------------------------------------------------------------------------
# Parsed question forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateQuery:
    """A full template question, answerable by evaluating the template's
    semantics over a patch's visible objects."""
    template_id: str
    slots: tuple[tuple[str, str], ...]

    def slot(self, key: str) -> str:
        for k, v in self.slots:
            if k == key:
                return v
        raise KeyError(key)


ParsedQuery = StructuredQuery | TemplateQuery


def query_key(query: ParsedQuery | None, raw_text: str = "") -> str:
    """Canonical string for a question form; corruption and student tables key
    on this."""
    if query is None:
        return "raw|" + " ".join(raw_text.casefold().split())
    if isinstance(query, VerifyAttribute):
        return f"verify|{query.name}|{query.attribute}"
    if isinstance(query, ChooseOption):
        return f"choose|{','.join(query.options)}|{query.center or '-'}"
    if isinstance(query, AskAttributeFamily):
        return f"askfam|{query.family}|{query.center or '-'}"
    if isinstance(query, AskName):
        return f"askname|{query.center or '-'}"
    if isinstance(query, Exists):
        return f"exists|{query.name}"
    if isinstance(query, TemplateQuery):
        slots = ",".join(f"{k}={v}" for k, v in query.slots)
        return f"tmpl|{query.template_id}|{slots}"
    raise TypeError(f"unsupported query {query!r}")


# ---------------------------------------------------------------------------
# Small text helpers
# ---------------------------------------------------------------------------

PLURAL_IRREGULAR = frozenset({"men", "women", "children", "people", "feet",
                              "teeth", "geese", "mice", "sheep", "scissors",
                              "glasses"})
SINGULAR_WITH_S = frozenset({"glass", "grass", "bus", "dress", "class", "gas",
                             "lens"})
_PLURAL_TO_SINGULAR = {"men": "man", "women": "woman", "children": "child",
                       "people": "person", "feet": "foot", "teeth": "tooth",
                       "geese": "goose", "mice": "mouse"}


def article(word: str) -> str:
    return "an" if word[:1].lower() in "aeiou" else "a"


def pluralize(word: str) -> str:
    return word if word in PLURAL_IRREGULAR else word + "s"


def depluralize(word: str) -> str:
    if word in _PLURAL_TO_SINGULAR:
        return _PLURAL_TO_SINGULAR[word]
    if word.endswith("s") and word not in SINGULAR_WITH_S:
        return word[:-1]
    return word


def attribute_sub_question(family: str, name: str, visual_pointer: bool) -> str:
    if visual_pointer:
        return f"What {family} is this {name}?"
    return f"What {family} is this?"


def _s(text: str) -> str:
    return dsl.escape_string(text)


# ---------------------------------------------------------------------------
# Scene inspection helpers
# ---------------------------------------------------------------------------

def _unique_names(scene: SceneGraph) -> list[str]:
    counts: dict[str, int] = {}
    for o in scene.objects:
        counts[o.name] = counts.get(o.name, 0) + 1
    return sorted(n for n, c in counts.items() if c == 1)


def _absent_nouns(scene: SceneGraph, world: WorldConfig) -> list[str]:
    present = scene.names
    return sorted(n for n in world.nouns if n not in present)


def _attr_of(obj: SceneObject, family: str, world: WorldConfig) -> str:
    values = set(world.attribute_families.get(family, ()))
    for attr in sorted(obj.attributes):
        if attr in values:
            return attr
    return UNKNOWN


def _visible_named(scene: SceneGraph, visible_ids: Sequence[str],
                   name: str) -> list[SceneObject]:
    objs = [scene.object_by_id(oid) for oid in visible_ids]
    return sorted((o for o in objs if o.name == name), key=lambda o: o.id)


def _families(world: WorldConfig) -> list[str]:
    return list(world.attribute_families)


# ---------------------------------------------------------------------------
# Template definitions
# ---------------------------------------------------------------------------

@dataclass
class MadeQuestion:
    question: str
    ground_truth: str
    fine_program: str
    coarse_program: str
    slots: dict[str, str]


@dataclass(frozen=True)
class TemplateSpec:
    template_id: str
    weight: float  # relative sampling weight in generate_qa
    make: Callable[[SceneGraph, random.Random, "GenConfig"], MadeQuestion | None]
    evaluate: Callable[[SceneGraph, Sequence[str], TemplateQuery, WorldConfig], str] | None = None
    support: Callable[[TemplateQuery, WorldConfig], tuple[str, ...]] | None = None


def _make_attr_query(scene, rng, config):
    world = config.world
    names = _unique_names(scene)
    family = rng.choice(_families(world))
    if not names:
        return None
    name = rng.choice(names)
    obj = scene.objects_named(name)[0]
    sub = attribute_sub_question(family, name, config.visual_pointer)
    program = (f"ps = image.find({_s(name)})\n"
               f"return ps[0].simple_query({_s(sub)})\n")
    return MadeQuestion(
        question=f"What {family} is the {name}?",
        ground_truth=_attr_of(obj, family, world),
        fine_program=program,
        coarse_program=program,
        slots={"name": name, "family": family},
    )


def _make_attr_query_guarded(scene, rng, config):
    world = config.world
    family = rng.choice(_families(world))
    candidates = _unique_names(scene) + _absent_nouns(scene, world)
    if not candidates:
        return None
    name = rng.choice(sorted(candidates))
    objs = scene.objects_named(name)
    gt = _attr_of(objs[0], family, world) if objs else "none"
    sub = attribute_sub_question(family, name, config.visual_pointer)
    program = (f"ps = image.find({_s(name)})\n"
               f"e = ps.exists()\n"
               f"if e:\n"
               f"    ans = ps[0].simple_query({_s(sub)})\n"
               f"else:\n"
               f"    ans = \"none\"\n"
               f"return ans\n")
    return MadeQuestion(
        question=f"What {family} is the {name}?",
        ground_truth=gt,
        fine_program=program,
        coarse_program=program,
        slots={"name": name, "family": family},
    )


def _make_direct_query(scene, rng, config):
    world = config.world
    names = _unique_names(scene)
    family = rng.choice(_families(world))
    if not names:
        return None
    name = rng.choice(names)
    obj = scene.objects_named(name)[0]
    question = f"What {family} is the {name}?"
    fine = f"return image.simple_query({_s(question)})\n"
    # The coarse framework always decomposes find-then-query.
    sub = attribute_sub_question(family, name, config.visual_pointer)
    coarse = (f"ps = image.find({_s(name)})\n"
              f"return ps[0].simple_query({_s(sub)})\n")
    return MadeQuestion(
        question=question,
        ground_truth=_attr_of(obj, family, world),
        fine_program=fine,
        coarse_program=coarse,
        slots={"name": name, "family": family},
    )


def _make_exist(scene, rng, config):
    name = rng.choice(config.world.nouns)
    program = (f"ps = image.find({_s(name)})\n"
               f"return ps.exists()\n")
    return MadeQuestion(
        question=f"Is there {article(name)} {name}?",
        ground_truth="yes" if scene.objects_named(name) else "no",
        fine_program=program,
        coarse_program=program,
        slots={"name": name},
    )


def _make_verify_attr(scene, rng, config):
    world = config.world
    candidates = _unique_names(scene) + _absent_nouns(scene, world)
    if not candidates:
        return None
    name = rng.choice(sorted(candidates))
    family = rng.choice(_families(world))
    objs = scene.objects_named(name)
    hold = rng.random() < 0.5
    if objs:
        true_attr = _attr_of(objs[0], family, world)
        if true_attr == UNKNOWN:
            return None
        if hold:
            attr = true_attr
        else:
            others = [a for a in world.attribute_families[family] if a != true_attr]
            attr = rng.choice(others) if others else true_attr
        gt = "yes" if attr in objs[0].attributes else "no"
    else:
        attr = rng.choice(world.attribute_families[family])
        gt = "no"
    fine = (f"ps = image.find({_s(name)})\n"
            f"e = ps.exists()\n"
            f"if e:\n"
            f"    ans = ps[0].verify_property({_s(name)}, {_s(attr)})\n"
            f"else:\n"
            f"    ans = \"no\"\n"
            f"return ans\n")
    # Coarse counterpart: ask the attribute family, compare in program logic.
    att_family = world.family_of(attr) or family
    sub = attribute_sub_question(att_family, name, config.visual_pointer)
    coarse = (f"ps = image.find({_s(name)})\n"
              f"e = ps.exists()\n"
              f"if e:\n"
              f"    c = ps[0].simple_query({_s(sub)})\n"
              f"    ans = c == {_s(attr)}\n"
              f"else:\n"
              f"    ans = \"no\"\n"
              f"return ans\n")
    return MadeQuestion(
        question=f"Is the {name} {attr}?",
        ground_truth=gt,
        fine_program=fine,
        coarse_program=coarse,
        slots={"name": name, "attribute": attr},
    )


def _make_btm_noun(scene, rng, config):
    world = config.world
    names = _unique_names(scene)
    absent = _absent_nouns(scene, world)
    if not names or not absent:
        return None
    name = rng.choice(names)
    distractor = rng.choice(absent)
    options = sorted((name, distractor))
    opts_literal = "[" + ", ".join(_s(o) for o in options) + "]"
    question = f"Is this {article(options[0])} {options[0]} or {options[1]}?"
    fine = (f"ps = image.find({_s(name)})\n"
            f"return ps[0].best_text_match({opts_literal})\n")
    # Coarse counterpart decides between nouns by detection alone.
    coarse = (f"a = image.find({_s(options[0])})\n"
              f"ea = a.exists()\n"
              f"if ea:\n"
              f"    ans = {_s(options[0])}\n"
              f"else:\n"
              f"    ans = {_s(options[1])}\n"
              f"return ans\n")
    return MadeQuestion(
        question=question,
        ground_truth=name,
        fine_program=fine,
        coarse_program=coarse,
        slots={"name": name, "options": "|".join(options)},
    )


def _make_btm_attr(scene, rng, config):
    world = config.world
    names = _unique_names(scene)
    if not names:
        return None
    name = rng.choice(names)
    family = rng.choice(_families(world))
    obj = scene.objects_named(name)[0]
    true_attr = _attr_of(obj, family, world)
    others = [a for a in world.attribute_families[family] if a != true_attr]
    if true_attr == UNKNOWN or not others:
        return None
    options = sorted((true_attr, rng.choice(others)))
    opts_literal = "[" + ", ".join(_s(o) for o in options) + "]"
    fine = (f"ps = image.find({_s(name)})\n"
            f"return ps[0].best_text_match({opts_literal})\n")
    # Coarse counterpart: both options live in one family, so asking for the
    # family value answers the choice directly.
    ask = attribute_sub_question(family, name, config.visual_pointer)
    coarse = (f"ps = image.find({_s(name)})\n"
              f"return ps[0].simple_query({_s(ask)})\n")
    return MadeQuestion(
        question=f"Is the {name} {options[0]} or {options[1]}?",
        ground_truth=true_attr,
        fine_program=fine,
        coarse_program=coarse,
        slots={"name": name, "options": "|".join(options)},
    )


def _eval_two_hop(scene, visible_ids, tq, world) -> str:
    objs = _visible_named(scene, visible_ids, tq.slot("name"))
    if not objs:
        return "none"
    obj = objs[0]
    if tq.slot("cond_attr") not in obj.attributes:
        return "none"
    return _attr_of(obj, tq.slot("family"), world)


def _make_two_hop(scene, rng, config):
    world = config.world
    names = _unique_names(scene)
    if not names:
        return None
    name = rng.choice(names)
    obj = scene.objects_named(name)[0]
    cond_family = rng.choice(_families(world))
    ask_family = rng.choice(_families(world))
    true_attr = _attr_of(obj, cond_family, world)
    hold = rng.random() < 0.5
    if hold or true_attr == UNKNOWN:
        cond_attr = true_attr
    else:
        others = [a for a in world.attribute_families[cond_family] if a != true_attr]
        cond_attr = rng.choice(others) if others else true_attr
    if cond_attr == UNKNOWN:
        return None
    gt = _attr_of(obj, ask_family, world) if cond_attr in obj.attributes else "none"
    sub = attribute_sub_question(ask_family, name, config.visual_pointer)
    fine = (f"ps = image.find({_s(name)})\n"
            f"e = ps.exists()\n"
            f"if e:\n"
            f"    cond = ps[0].verify_property({_s(name)}, {_s(cond_attr)})\n"
            f"else:\n"
            f"    cond = False\n"
            f"if cond:\n"
            f"    ans = ps[0].simple_query({_s(sub)})\n"
            f"else:\n"
            f"    ans = \"none\"\n"
            f"return ans\n")
    # Coarse counterpart checks the condition by asking for the attribute
    # family and comparing in program logic.
    cond_sub = attribute_sub_question(cond_family, name, config.visual_pointer)
    coarse = (f"ps = image.find({_s(name)})\n"
              f"e = ps.exists()\n"
              f"if e:\n"
              f"    v = ps[0].simple_query({_s(cond_sub)})\n"
              f"else:\n"
              f"    v = \"none\"\n"
              f"if v == {_s(cond_attr)}:\n"
              f"    ans = ps[0].simple_query({_s(sub)})\n"
              f"else:\n"
              f"    ans = \"none\"\n"
              f"return ans\n")
    return MadeQuestion(
        question=f"What {ask_family} is the {cond_attr} {name}?",
        ground_truth=gt,
        fine_program=fine,
        coarse_program=coarse,
        slots={"name": name, "cond_attr": cond_attr, "family": ask_family},
    )


def _eval_both_exist(scene, visible_ids, tq, world) -> str:
    a = _visible_named(scene, visible_ids, tq.slot("name_a"))
    b = _visible_named(scene, visible_ids, tq.slot("name_b"))
    return "yes" if a and b else "no"


def _eval_either_exist(scene, visible_ids, tq, world) -> str:
    a = _visible_named(scene, visible_ids, tq.slot("name_a"))
    b = _visible_named(scene, visible_ids, tq.slot("name_b"))
    return "yes" if a or b else "no"


def _make_pair_exist(op: str):
    def make(scene, rng, config):
        name_a, name_b = rng.sample(config.world.nouns, 2)
        has_a = bool(scene.objects_named(name_a))
        has_b = bool(scene.objects_named(name_b))
        if op == "and":
            question = (f"Are there both {article(name_a)} {name_a} "
                        f"and {article(name_b)} {name_b}?")
            gt = "yes" if has_a and has_b else "no"
            combine = "both = ea and eb\nreturn both\n"
        else:
            question = (f"Is there {article(name_a)} {name_a} "
                        f"or {article(name_b)} {name_b}?")
            gt = "yes" if has_a or has_b else "no"
            combine = "either = ea or eb\nreturn either\n"
        program = (f"a = image.find({_s(name_a)})\n"
                   f"b = image.find({_s(name_b)})\n"
                   f"ea = a.exists()\n"
                   f"eb = b.exists()\n" + combine)
        return MadeQuestion(question, gt, program, program,
                            {"name_a": name_a, "name_b": name_b})
    return make


def _eval_compare(scene, visible_ids, tq, world) -> str:
    a = _visible_named(scene, visible_ids, tq.slot("name_a"))
    b = _visible_named(scene, visible_ids, tq.slot("name_b"))
    if not a or not b:
        return "no"
    family = tq.slot("family")
    return "yes" if _attr_of(a[0], family, world) == _attr_of(b[0], family, world) else "no"


def _make_compare(scene, rng, config):
    world = config.world
    names = _unique_names(scene)
    if len(names) < 2:
        return None
    name_a, name_b = rng.sample(names, 2)
    family = rng.choice(_families(world))
    obj_a = scene.objects_named(name_a)[0]
    obj_b = scene.objects_named(name_b)[0]
    gt = "yes" if _attr_of(obj_a, family, world) == _attr_of(obj_b, family, world) else "no"
    sub_a = attribute_sub_question(family, name_a, config.visual_pointer)
    sub_b = attribute_sub_question(family, name_b, config.visual_pointer)
    program = (f"a = image.find({_s(name_a)})\n"
               f"b = image.find({_s(name_b)})\n"
               f"va = a[0].simple_query({_s(sub_a)})\n"
               f"vb = b[0].simple_query({_s(sub_b)})\n"
               f"same = va == vb\n"
               f"return same\n")
    return MadeQuestion(
        question=f"Do the {name_a} and the {name_b} have the same {family}?",
        ground_truth=gt,
        fine_program=program,
        coarse_program=program,
        slots={"name_a": name_a, "name_b": name_b, "family": family},
    )


def _eval_count(scene, visible_ids, tq, world) -> str:
    return str(len(_visible_named(scene, visible_ids, tq.slot("name"))))


def _make_count(scene, rng, config):
    name = rng.choice(config.world.nouns)
    program = (f"ps = image.find({_s(name)})\n"
               f"return len(ps)\n")
    return MadeQuestion(
        question=f"How many {pluralize(name)} are there?",
        ground_truth=str(len(scene.objects_named(name))),
        fine_program=program,
        coarse_program=program,
        slots={"name": name},
    )


def _yes_no_support(tq, world):
    return ("no", "yes")


def _attr_none_support(tq, world):
    family = tq.slot("family")
    return tuple(sorted(world.attribute_families.get(family, ()))) + ("none",)


COUNT_SUPPORT = tuple(str(i) for i in range(16))

# Sampling weights skew toward attribute/verification questions, the way
# compositional QA corpora are dominated by attribute and relation queries
# over bare existence checks. Higher weight = more module-call exposure.
TEMPLATES: dict[str, TemplateSpec] = {spec.template_id: spec for spec in (
    TemplateSpec("attr_query", 1.75, _make_attr_query),
    TemplateSpec("attr_query_guarded", 1.75, _make_attr_query_guarded),
    TemplateSpec("direct_query", 1.0, _make_direct_query),
    TemplateSpec("exist", 0.5, _make_exist),
    TemplateSpec("verify_attr", 1.5, _make_verify_attr),
    TemplateSpec("btm_noun", 0.75, _make_btm_noun),
    TemplateSpec("btm_attr", 1.0, _make_btm_attr),
    TemplateSpec("two_hop_verify_query", 1.75, _make_two_hop, _eval_two_hop,
                 _attr_none_support),
    TemplateSpec("both_exist", 0.5, _make_pair_exist("and"), _eval_both_exist,
                 _yes_no_support),
    TemplateSpec("either_exist", 0.5, _make_pair_exist("or"),
                 _eval_either_exist, _yes_no_support),
    TemplateSpec("compare_attr", 2.0, _make_compare, _eval_compare, _yes_no_support),
    TemplateSpec("count", 0.5, _make_count, _eval_count, lambda tq, world: COUNT_SUPPORT),
)}

ALL_TEMPLATE_IDS = tuple(TEMPLATES)
_TEMPLATE_WEIGHTS = [spec.weight for spec in TEMPLATES.values()]


def evaluate_template(scene: SceneGraph, visible_ids: Sequence[str],
                      query: TemplateQuery, world: WorldConfig) -> str:
    spec = TEMPLATES.get(query.template_id)
    if spec is None or spec.evaluate is None:
        return UNKNOWN
    return spec.evaluate(scene, visible_ids, query, world)


def answer_support(query: ParsedQuery | None, world: WorldConfig) -> tuple[str, ...]:
    """Candidate answer vocabulary for a query, used for corruption
    permutations and smoothed loss distributions."""
    if query is None:
        return ()
    if isinstance(query, (VerifyAttribute, Exists)):
        return ("no", "yes")
    if isinstance(query, AskAttributeFamily):
        return tuple(sorted(world.attribute_families.get(query.family, ())))
    if isinstance(query, AskName):
        return tuple(sorted(world.nouns))
    if isinstance(query, ChooseOption):
        return query.options
    if isinstance(query, TemplateQuery):
        spec = TEMPLATES.get(query.template_id)
        if spec is not None and spec.support is not None:
            return spec.support(query, world)
        return ()
    raise TypeError(f"unsupported query {query!r}")


# ---------------------------------------------------------------------------
# Question-text parsing
# ---------------------------------------------------------------------------

class QuestionParser:
    """Maps question text (top-level questions and adapted sub-questions) to a
    structured or template query. Unrecognized text parses to None."""

    def __init__(self, world: WorldConfig):
        self.world = world
        self.nouns = set(world.nouns)
        self.attributes = world.all_attributes()
        self.families = set(world.attribute_families)
        # text -> result; parsing depends only on the text and this world, and
        # the pipeline asks about a few hundred distinct texts many times over.
        self._memo: dict[str, ParsedQuery | None] = {}

    def parse(self, text: str) -> ParsedQuery | None:
        try:
            return self._memo[text]
        except KeyError:
            result = self._memo[text] = self._parse_text(text)
            return result

    def _parse_text(self, text: str) -> ParsedQuery | None:
        if not text:
            return None
        t = " ".join(text.casefold().replace("?", " ").split())

        m = re.fullmatch(r"are there both an? (\w+) and an? (\w+)", t)
        if m:
            return TemplateQuery("both_exist", (("name_a", m.group(1)),
                                                ("name_b", m.group(2))))
        m = re.fullmatch(r"is there an? (\w+) or an? (\w+)", t)
        if m:
            return TemplateQuery("either_exist", (("name_a", m.group(1)),
                                                  ("name_b", m.group(2))))
        m = re.fullmatch(r"is there an? (\w+)", t)
        if m:
            return Exists(m.group(1))
        m = re.fullmatch(r"how many (\w+) are there", t)
        if m:
            return TemplateQuery("count", (("name", depluralize(m.group(1))),))
        m = re.fullmatch(r"do the (\w+) and the (\w+) have the same (\w+)", t)
        if m and m.group(3) in self.families:
            return TemplateQuery("compare_attr", (("name_a", m.group(1)),
                                                  ("name_b", m.group(2)),
                                                  ("family", m.group(3))))
        m = re.fullmatch(r"what (\w+) is the (\w+) (\w+)", t)
        if (m and m.group(1) in self.families and m.group(2) in self.attributes
                and m.group(3) in self.nouns):
            return TemplateQuery("two_hop_verify_query",
                                 (("name", m.group(3)),
                                  ("cond_attr", m.group(2)),
                                  ("family", m.group(1))))
        m = re.fullmatch(r"what (\w+) (?:is|are) (?:this|the|these) (\w+)", t)
        if m and m.group(1) in self.families:
            return AskAttributeFamily(m.group(1), depluralize(m.group(2)))
        m = re.fullmatch(r"what (\w+) is this", t)
        if m and m.group(1) in self.families:
            return AskAttributeFamily(m.group(1), None)
        m = re.fullmatch(r"what is (?:this|the) (\w+)(?: called)?", t)
        if m and depluralize(m.group(1)) in self.nouns:
            return AskName(depluralize(m.group(1)))
        if t in ("what is this", "what is this called", "what is this object"):
            return AskName(None)
        m = re.fullmatch(r"(?:is this|are these) an? (.+ or .+)", t)
        if m:
            options = tuple(o.strip() for o in m.group(1).split(" or "))
            if len(options) >= 2:
                return ChooseOption(options, None)
        m = re.fullmatch(r"(?:is this|is the|are these) (\w+) (.+ or .+)", t)
        if m and depluralize(m.group(1)) in self.nouns:
            options = tuple(o.strip() for o in m.group(2).split(" or "))
            if len(options) >= 2:
                return ChooseOption(options, depluralize(m.group(1)))
        m = re.fullmatch(r"are these (.+ or .+)", t)
        if m:
            options = tuple(o.strip() for o in m.group(1).split(" or "))
            if len(options) >= 2:
                return ChooseOption(options, None)
        m = re.fullmatch(r"(?:is this|is the) (\w+) (.+)", t)
        if m and m.group(1) in self.nouns:
            return VerifyAttribute(m.group(1), m.group(2))
        return None


# ---------------------------------------------------------------------------
# QA generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QAPair:
    question_id: str
    question: str
    ground_truth: str
    program: str
    question_type: str
    scene_id: str


@dataclass
class GenConfig:
    world: WorldConfig
    questions_per_scene: tuple[int, int] = (8, 12)
    fault_rate: float = 0.0
    visual_pointer: bool = True
    framework: str = "fine"
    # None means: verify exactly when visual_pointer is on. Pointer-less
    # questions on ambiguous patches are unanswerable even by the oracle and
    # must survive generation for the pointer comparison to mean anything.
    verify_consistency: bool | None = None

    def validate(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate outside [0, 1]")
        if self.framework not in ("fine", "coarse"):
            raise ValueError(f"unknown framework {self.framework!r}")

    @property
    def should_verify(self) -> bool:
        if self.verify_consistency is None:
            return self.visual_pointer
        return self.verify_consistency


def corrupt_program(source: str, rng: random.Random) -> str:
    """Delete whitespace-delimited tokens until the program no longer parses.

    Deleting a token does not always break the grammar, so this retries on the
    mutated source; after too many attempts it falls back to a stub that is
    unparseable by construction.
    """
    src = source
    for _ in range(25):
        spans = [m.span() for m in re.finditer(r"\S+", src)]
        if not spans:
            break
        start, end = spans[rng.randrange(len(spans))]
        candidate = src[:start] + src[end:]
        try:
            dsl.parse(candidate)
            src = candidate
        except dsl.ParseError:
            return candidate
    return "return (\n"


def generate_qa(scene: SceneGraph, config: GenConfig, seed: int,
                verifier: Callable[[QAPair], bool] | None = None) -> list[QAPair]:
    """Generate question/program pairs for one scene, deterministically.

    Question ids are keyed by generation attempt, and slot selection never
    consumes RNG differently across visual_pointer or framework settings, so
    paired generations line up by question_id.
    """
    config.validate()
    if not scene.objects:
        raise ValueError(f"scene {scene.scene_id} has no objects")
    rng = random.Random(f"qa:{seed}:{scene.scene_id}")
    lo, hi = config.questions_per_scene
    target = rng.randint(lo, hi)
    out: list[QAPair] = []
    for attempt in range(target * 4):
        if len(out) >= target:
            break
        template_id = rng.choices(ALL_TEMPLATE_IDS, _TEMPLATE_WEIGHTS)[0]
        made = TEMPLATES[template_id].make(scene, rng, config)
        if made is None:
            continue
        qid = f"{scene.scene_id}:q{attempt:03d}"
        program = made.fine_program if config.framework == "fine" else made.coarse_program
        qa = QAPair(question_id=qid, question=made.question,
                    ground_truth=made.ground_truth, program=program,
                    question_type=template_id, scene_id=scene.scene_id)
        if config.should_verify and verifier is not None and not verifier(qa):
            continue
        if config.fault_rate > 0 and stable_unit("fault", seed, qid) < config.fault_rate:
            qa = replace(qa, program=corrupt_program(
                qa.program, random.Random(f"faultsel:{seed}:{qid}")))
        out.append(qa)
    return out


def qa_to_record(qa: QAPair) -> dict:
    return {
        "question_id": qa.question_id,
        "question": qa.question,
        "ground_truth": qa.ground_truth,
        "program": qa.program,
        "question_type": qa.question_type,
        "scene_id": qa.scene_id,
    }


def qa_from_record(record: dict) -> QAPair:
    return QAPair(
        question_id=record["question_id"],
        question=record["question"],
        ground_truth=record["ground_truth"],
        program=record["program"],
        question_type=record["question_type"],
        scene_id=record["scene_id"],
    )


# ---------------------------------------------------------------------------
# Grounding cases (referring expressions with a ground-truth box)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundingCase:
    case_id: str
    scene_id: str
    expression: str
    program: str
    target_bbox: Rect
    kind: str  # "plain" | "discriminated"


def _discrimination_candidates(scene: SceneGraph,
                               world: WorldConfig) -> list[tuple[str, str]]:
    """Names occurring exactly twice whose two objects differ in some family;
    returns (name, family) pairs."""
    counts: dict[str, int] = {}
    for o in scene.objects:
        counts[o.name] = counts.get(o.name, 0) + 1
    out = []
    for name in sorted(n for n, c in counts.items() if c == 2):
        a, b = sorted(scene.objects_named(name), key=lambda o: o.id)
        for family in world.attribute_families:
            if _attr_of(a, family, world) != _attr_of(b, family, world):
                out.append((name, family))
                break
    return out


def generate_grounding(scene: SceneGraph, world: WorldConfig, seed: int,
                       per_scene: tuple[int, int] = (1, 2)) -> list[GroundingCase]:
    rng = random.Random(f"ground:{seed}:{scene.scene_id}")
    target = rng.randint(*per_scene)
    cases: list[GroundingCase] = []
    for attempt in range(target * 3):
        if len(cases) >= target:
            break
        case_id = f"{scene.scene_id}:g{attempt:02d}"
        kind = rng.choice(("plain", "discriminated"))
        if kind == "plain":
            names = _unique_names(scene)
            if not names:
                continue
            name = rng.choice(names)
            obj = scene.objects_named(name)[0]
            program = (f"ps = image.find({_s(name)})\n"
                       f"return ps[0]\n")
            cases.append(GroundingCase(case_id, scene.scene_id, f"the {name}",
                                       program, obj.bbox, "plain"))
        else:
            pairs = _discrimination_candidates(scene, world)
            if not pairs:
                continue
            name, family = rng.choice(pairs)
            a, b = sorted(scene.objects_named(name), key=lambda o: o.id)
            target_obj = rng.choice((a, b))
            attr = _attr_of(target_obj, family, world)
            program = (f"ps = image.find({_s(name)})\n"
                       f"ok = ps[0].verify_property({_s(name)}, {_s(attr)})\n"
                       f"if ok:\n"
                       f"    ans = ps[0]\n"
                       f"else:\n"
                       f"    ans = ps[1]\n"
                       f"return ans\n")
            cases.append(GroundingCase(case_id, scene.scene_id,
                                       f"the {attr} {name}", program,
                                       target_obj.bbox, "discriminated"))
    return cases
