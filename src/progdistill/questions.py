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
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import dsl
from .util import stable_unit
from .worlds import (AskAttributeFamily, AskName, ChooseOption, Exists,
                     SceneGraph, SceneObject, ScenePatch, UNKNOWN,
                     VerifyAttribute, WorldConfig, YES_NO, Rect,
                     attribute_value, pluralize)

DISTILLABLE_KINDS = ("verify_property", "best_text_match", "simple_query")


# ---------------------------------------------------------------------------
# Parsed question forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateQuery:
    """A full template question, answered by evaluating the template's
    semantics over a patch's visible objects. The parser reads only
    templates that declare `evaluate` and `support`."""
    template_id: str
    slots: tuple[tuple[str, str], ...]

    def slot(self, key: str) -> str:
        return dict(self.slots)[key]

    def key(self) -> str:
        slots = ",".join(f"{k}={v}" for k, v in self.slots)
        return f"tmpl|{self.template_id}|{slots}"

    def support(self, world: WorldConfig) -> tuple[str, ...]:
        return TEMPLATES[self.template_id].support(self, world)

    def answer(self, scene: SceneGraph, patch: ScenePatch,
               world: WorldConfig) -> str:
        return TEMPLATES[self.template_id].evaluate(
            scene, patch.visible_objects, self, world)


@dataclass(frozen=True)
class RawText:
    """Text that no other form reads: keyed by its words, with no answer
    support, and answered UNKNOWN."""
    text: str

    def key(self) -> str:
        return "raw|" + " ".join(self.text.casefold().split())

    def support(self, world: WorldConfig) -> tuple[str, ...]:
        return ()

    def answer(self, scene: SceneGraph, patch: ScenePatch,
               world: WorldConfig) -> str:
        return UNKNOWN


ParsedQuery = (VerifyAttribute | ChooseOption | AskAttributeFamily | AskName
               | Exists | TemplateQuery)


# ---------------------------------------------------------------------------
# Small text helpers
# ---------------------------------------------------------------------------

def article(word: str) -> str:
    return "an" if word[:1].lower() in "aeiou" else "a"


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


@dataclass(frozen=True)
class TemplateSpec:
    template_id: str
    weight: float  # relative sampling weight in generate_qa
    make: Callable[[SceneGraph, random.Random, WorldConfig, bool], MadeQuestion | None]
    evaluate: Callable[[SceneGraph, Sequence[str], TemplateQuery, WorldConfig], str] | None = None
    support: Callable[[TemplateQuery, WorldConfig], tuple[str, ...]] | None = None


# Program shapes shared by the templates. `_s` quotes every string slot.

def _find_then(name: str, tail: str) -> str:
    """Find `name`, then return the expression `tail` over `ps`."""
    return f"ps = image.find({_s(name)})\nreturn {tail}\n"


def _if_else(test: str, then: str, otherwise: str) -> str:
    """An if statement; `then` and `otherwise` are its branches' bodies."""
    return f"if {test}:\n    {then}\nelse:\n    {otherwise}\n"


def _if_found(name: str, then: str, otherwise: str) -> str:
    """Find `name`; if found run `then` (lines that set `ans`), else set
    `ans` to the expression `otherwise`; return `ans`."""
    return (f"ps = image.find({_s(name)})\ne = ps.exists()\n"
            + _if_else("e", then.replace("\n", "\n    "), f"ans = {otherwise}")
            + "return ans\n")


def _ask(patches: str, family: str, name: str, pointer: bool) -> str:
    """The attribute sub-question call on the first patch of `patches`."""
    sub = attribute_sub_question(family, name, pointer)
    return f"{patches}[0].simple_query({_s(sub)})"


def _options(options: Sequence[str]) -> str:
    return "[" + ", ".join(_s(o) for o in options) + "]"


def _other_values(world: WorldConfig, family: str, value: str) -> list[str]:
    return [a for a in world.attribute_families[family] if a != value]


def _held_or_other(rng: random.Random, world: WorldConfig, family: str,
                   value: str, hold: bool) -> str:
    """`value` if `hold`, else another value of its family drawn from rng
    (`value` itself when the family has no other)."""
    if hold:
        return value
    others = _other_values(world, family, value)
    return rng.choice(others) if others else value


def _make_attr_query(direct: bool):
    """attr_query, or direct_query, whose fine program hands the whole
    question to simple_query; the coarse framework always decomposes
    find-then-query."""
    def make(scene, rng, world, pointer):
        names = _unique_names(scene)
        family = rng.choice(_families(world))
        if not names:
            return None
        name = rng.choice(names)
        obj = scene.objects_named(name)[0]
        question = f"What {family} is the {name}?"
        coarse = _find_then(name, _ask("ps", family, name, pointer))
        fine = f"return image.simple_query({_s(question)})\n" if direct else coarse
        return MadeQuestion(
            question=question,
            ground_truth=attribute_value(obj, family, world),
            fine_program=fine,
            coarse_program=coarse,
        )
    return make


def _make_attr_query_guarded(scene, rng, world, pointer):
    family = rng.choice(_families(world))
    candidates = _unique_names(scene) + _absent_nouns(scene, world)
    if not candidates:
        return None
    name = rng.choice(sorted(candidates))
    objs = scene.objects_named(name)
    gt = attribute_value(objs[0], family, world) if objs else "none"
    program = _if_found(name, f"ans = {_ask('ps', family, name, pointer)}",
                        '"none"')
    return MadeQuestion(
        question=f"What {family} is the {name}?",
        ground_truth=gt,
        fine_program=program,
        coarse_program=program,
    )


def _make_exist(scene, rng, world, pointer):
    name = rng.choice(world.nouns)
    program = _find_then(name, "ps.exists()")
    return MadeQuestion(
        question=f"Is there {article(name)} {name}?",
        ground_truth="yes" if scene.objects_named(name) else "no",
        fine_program=program,
        coarse_program=program,
    )


def _make_verify_attr(scene, rng, world, pointer):
    candidates = _unique_names(scene) + _absent_nouns(scene, world)
    if not candidates:
        return None
    name = rng.choice(sorted(candidates))
    family = rng.choice(_families(world))
    objs = scene.objects_named(name)
    hold = rng.random() < 0.5
    if objs:
        true_attr = attribute_value(objs[0], family, world)
        if true_attr == UNKNOWN:
            return None
        attr = _held_or_other(rng, world, family, true_attr, hold)
        gt = "yes" if attr in objs[0].attributes else "no"
    else:
        attr = rng.choice(world.attribute_families[family])
        gt = "no"
    fine = _if_found(name, f"ans = ps[0].verify_property({_s(name)}, {_s(attr)})",
                     '"no"')
    # Coarse counterpart: ask the attribute family, compare in program logic.
    ask = _ask("ps", world.family_of(attr) or family, name, pointer)
    coarse = _if_found(name, f"c = {ask}\nans = c == {_s(attr)}", '"no"')
    return MadeQuestion(
        question=f"Is the {name} {attr}?",
        ground_truth=gt,
        fine_program=fine,
        coarse_program=coarse,
    )


def _make_btm_noun(scene, rng, world, pointer):
    names = _unique_names(scene)
    absent = _absent_nouns(scene, world)
    if not names or not absent:
        return None
    name = rng.choice(names)
    distractor = rng.choice(absent)
    options = sorted((name, distractor))
    question = f"Is this {article(options[0])} {options[0]} or {options[1]}?"
    fine = _find_then(name, f"ps[0].best_text_match({_options(options)})")
    # Coarse counterpart decides between nouns by detection alone.
    coarse = (f"a = image.find({_s(options[0])})\nea = a.exists()\n"
              + _if_else("ea", f"ans = {_s(options[0])}", f"ans = {_s(options[1])}")
              + "return ans\n")
    return MadeQuestion(
        question=question,
        ground_truth=name,
        fine_program=fine,
        coarse_program=coarse,
    )


def _make_btm_attr(scene, rng, world, pointer):
    names = _unique_names(scene)
    if not names:
        return None
    name = rng.choice(names)
    family = rng.choice(_families(world))
    obj = scene.objects_named(name)[0]
    true_attr = attribute_value(obj, family, world)
    others = _other_values(world, family, true_attr)
    if true_attr == UNKNOWN or not others:
        return None
    options = sorted((true_attr, rng.choice(others)))
    fine = _find_then(name, f"ps[0].best_text_match({_options(options)})")
    # Coarse counterpart: both options live in one family, so asking for the
    # family value answers the choice directly.
    coarse = _find_then(name, _ask("ps", family, name, pointer))
    return MadeQuestion(
        question=f"Is the {name} {options[0]} or {options[1]}?",
        ground_truth=true_attr,
        fine_program=fine,
        coarse_program=coarse,
    )


def _eval_two_hop(scene, visible_ids, tq, world) -> str:
    objs = _visible_named(scene, visible_ids, tq.slot("name"))
    if not objs:
        return "none"
    obj = objs[0]
    if tq.slot("cond_attr") not in obj.attributes:
        return "none"
    return attribute_value(obj, tq.slot("family"), world)


def _make_two_hop(scene, rng, world, pointer):
    names = _unique_names(scene)
    if not names:
        return None
    name = rng.choice(names)
    obj = scene.objects_named(name)[0]
    cond_family = rng.choice(_families(world))
    ask_family = rng.choice(_families(world))
    true_attr = attribute_value(obj, cond_family, world)
    hold = rng.random() < 0.5
    cond_attr = _held_or_other(rng, world, cond_family, true_attr,
                               hold or true_attr == UNKNOWN)
    if cond_attr == UNKNOWN:
        return None
    gt = (attribute_value(obj, ask_family, world)
          if cond_attr in obj.attributes else "none")
    found = f"ps = image.find({_s(name)})\ne = ps.exists()\n"
    answer = f"ans = {_ask('ps', ask_family, name, pointer)}"
    verify = f"cond = ps[0].verify_property({_s(name)}, {_s(cond_attr)})"
    fine = (found + _if_else("e", verify, "cond = False")
            + _if_else("cond", answer, 'ans = "none"') + "return ans\n")
    # Coarse counterpart checks the condition by asking for the attribute
    # family and comparing in program logic.
    ask_cond = f"v = {_ask('ps', cond_family, name, pointer)}"
    coarse = (found + _if_else("e", ask_cond, 'v = "none"')
              + _if_else(f"v == {_s(cond_attr)}", answer, 'ans = "none"')
              + "return ans\n")
    return MadeQuestion(
        question=f"What {ask_family} is the {cond_attr} {name}?",
        ground_truth=gt,
        fine_program=fine,
        coarse_program=coarse,
    )


def _eval_pair_exist(op: str):
    """Evaluator of both_exist ("and") or either_exist ("or")."""
    test = all if op == "and" else any

    def evaluate(scene, visible_ids, tq, world) -> str:
        return "yes" if test(_visible_named(scene, visible_ids, tq.slot(slot))
                             for slot in ("name_a", "name_b")) else "no"
    return evaluate


def _make_pair_exist(op: str):
    test = all if op == "and" else any
    lead, var = ("Are there both", "both") if op == "and" else ("Is there", "either")

    def make(scene, rng, world, pointer):
        if len(world.nouns) < 2:
            return None
        name_a, name_b = rng.sample(world.nouns, 2)
        question = (f"{lead} {article(name_a)} {name_a} "
                    f"{op} {article(name_b)} {name_b}?")
        found = (scene.objects_named(name_a), scene.objects_named(name_b))
        program = (f"a = image.find({_s(name_a)})\n"
                   f"b = image.find({_s(name_b)})\n"
                   f"ea = a.exists()\n"
                   f"eb = b.exists()\n"
                   f"{var} = ea {op} eb\n"
                   f"return {var}\n")
        return MadeQuestion(question, "yes" if test(found) else "no",
                            program, program)
    return make


def _eval_compare(scene, visible_ids, tq, world) -> str:
    a = _visible_named(scene, visible_ids, tq.slot("name_a"))
    b = _visible_named(scene, visible_ids, tq.slot("name_b"))
    if not a or not b:
        return "no"
    family = tq.slot("family")
    return "yes" if (attribute_value(a[0], family, world)
                     == attribute_value(b[0], family, world)) else "no"


def _make_compare(scene, rng, world, pointer):
    names = _unique_names(scene)
    if len(names) < 2:
        return None
    name_a, name_b = rng.sample(names, 2)
    family = rng.choice(_families(world))
    obj_a = scene.objects_named(name_a)[0]
    obj_b = scene.objects_named(name_b)[0]
    gt = "yes" if (attribute_value(obj_a, family, world)
                   == attribute_value(obj_b, family, world)) else "no"
    program = (f"a = image.find({_s(name_a)})\n"
               f"b = image.find({_s(name_b)})\n"
               f"va = {_ask('a', family, name_a, pointer)}\n"
               f"vb = {_ask('b', family, name_b, pointer)}\n"
               f"same = va == vb\n"
               f"return same\n")
    return MadeQuestion(
        question=f"Do the {name_a} and the {name_b} have the same {family}?",
        ground_truth=gt,
        fine_program=program,
        coarse_program=program,
    )


def _eval_count(scene, visible_ids, tq, world) -> str:
    return str(len(_visible_named(scene, visible_ids, tq.slot("name"))))


def _make_count(scene, rng, world, pointer):
    name = rng.choice(world.nouns)
    program = _find_then(name, "len(ps)")
    return MadeQuestion(
        question=f"How many {pluralize(name)} are there?",
        ground_truth=str(len(scene.objects_named(name))),
        fine_program=program,
        coarse_program=program,
    )


def _attr_none_support(tq, world):
    return AskAttributeFamily(tq.slot("family")).support(world) + ("none",)


COUNT_SUPPORT = tuple(str(i) for i in range(16))

# Sampling weights skew toward attribute/verification questions, the way
# compositional QA corpora are dominated by attribute and relation queries
# over bare existence checks. Higher weight = more module-call exposure.
TEMPLATES: dict[str, TemplateSpec] = {spec.template_id: spec for spec in (
    TemplateSpec("attr_query", 1.75, _make_attr_query(False)),
    TemplateSpec("attr_query_guarded", 1.75, _make_attr_query_guarded),
    TemplateSpec("direct_query", 1.0, _make_attr_query(True)),
    TemplateSpec("exist", 0.5, _make_exist),
    TemplateSpec("verify_attr", 1.5, _make_verify_attr),
    TemplateSpec("btm_noun", 0.75, _make_btm_noun),
    TemplateSpec("btm_attr", 1.0, _make_btm_attr),
    TemplateSpec("two_hop_verify_query", 1.75, _make_two_hop, _eval_two_hop,
                 _attr_none_support),
    TemplateSpec("both_exist", 0.5, _make_pair_exist("and"),
                 _eval_pair_exist("and"), lambda tq, world: YES_NO),
    TemplateSpec("either_exist", 0.5, _make_pair_exist("or"),
                 _eval_pair_exist("or"), lambda tq, world: YES_NO),
    TemplateSpec("compare_attr", 2.0, _make_compare, _eval_compare,
                 lambda tq, world: YES_NO),
    TemplateSpec("count", 0.5, _make_count, _eval_count, lambda tq, world: COUNT_SUPPORT),
)}

ALL_TEMPLATE_IDS = tuple(TEMPLATES)
_TEMPLATE_WEIGHTS = [spec.weight for spec in TEMPLATES.values()]


# ---------------------------------------------------------------------------
# Question-text parsing
# ---------------------------------------------------------------------------

def _choose(options: str, center: str | None = None) -> ChooseOption:
    """A choice among the " or "-separated `options`."""
    return ChooseOption(tuple(o.strip() for o in options.split(" or ")), center)


def _template(template_id: str, **slots: str) -> TemplateQuery:
    return TemplateQuery(template_id, tuple(slots.items()))


# (pattern, reader) pairs in the order they are tried on casefolded text. A
# reader maps the parser and a full match to a form, or to None when a word
# is outside the world's vocabulary, and the next pattern is tried.
_PATTERN_READERS = (
    (r"are there both an? (\w+) and an? (\w+)",
     lambda p, m: _template("both_exist", name_a=m[1], name_b=m[2])),
    (r"is there an? (\w+) or an? (\w+)",
     lambda p, m: _template("either_exist", name_a=m[1], name_b=m[2])),
    (r"is there an? (\w+)", lambda p, m: Exists(m[1])),
    (r"how many (\w+) are there",
     lambda p, m: _template("count", name=p._noun(m[1]))),
    (r"do the (\w+) and the (\w+) have the same (\w+)",
     lambda p, m: _template("compare_attr", name_a=m[1], name_b=m[2],
                            family=m[3]) if m[3] in p.families else None),
    (r"what (\w+) is the (\w+) (\w+)",
     lambda p, m: _template("two_hop_verify_query", name=m[3],
                            cond_attr=m[2], family=m[1])
     if m[1] in p.families and m[2] in p.attributes and m[3] in p.nouns
     else None),
    (r"what (\w+) (?:is|are) (?:this|the|these) (\w+)",
     lambda p, m: AskAttributeFamily(m[1], p._noun(m[2]))
     if m[1] in p.families else None),
    (r"what (\w+) is this",
     lambda p, m: AskAttributeFamily(m[1]) if m[1] in p.families else None),
    (r"what is (?:this|the) (\w+)(?: called)?",
     lambda p, m: AskName(noun) if (noun := p._noun(m[1])) in p.nouns
     else None),
    (r"what is this(?: called| object)?", lambda p, m: AskName()),
    (r"(?:is this|are these) an? (.+ or .+)", lambda p, m: _choose(m[1])),
    # A center word is followed by an option, never by "or": in "are these
    # cup or dog or glasses", "cup" is the first of three options.
    (r"(?:is this|is the|are these) (\w+) (?!or )(.+ or .+)",
     lambda p, m: _choose(m[2], noun) if (noun := p._noun(m[1])) in p.nouns
     else None),
    (r"are these (.+ or .+)", lambda p, m: _choose(m[1])),
    (r"(?:is this|is the) (\w+) (.+)",
     lambda p, m: VerifyAttribute(m[1], m[2]) if m[1] in p.nouns else None),
)
_QUESTION_FORMS = tuple((re.compile(pattern), read)
                        for pattern, read in _PATTERN_READERS)


class QuestionParser:
    """Maps question text (top-level questions and adapted sub-questions) to a
    structured or template query. Unrecognized text parses to None."""

    def __init__(self, world: WorldConfig):
        self.world = world
        self.nouns = set(world.nouns)
        # Each noun's rendered plural; any other word reads as itself.
        self.singular = {pluralize(n): n for n in world.nouns}
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

    def _noun(self, word: str) -> str:
        return self.singular.get(word, word)

    def _parse_text(self, text: str) -> ParsedQuery | None:
        if not text:
            return None
        t = " ".join(text.casefold().replace("?", " ").split())
        for pattern, read in _QUESTION_FORMS:
            m = pattern.fullmatch(t)
            if m and (query := read(self, m)) is not None:
                return query
        return None


# ---------------------------------------------------------------------------
# QA generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class QAPair:
    question_id: str
    question: str
    ground_truth: str
    program: str
    question_type: str
    scene_id: str


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


def generate_qa(scene: SceneGraph, world: WorldConfig, seed: int,
                questions_per_scene: tuple[int, int] = (8, 12), *,
                visual_pointer: bool = True, coarse: bool = False,
                fault_rate: float = 0.0,
                verifier: Callable[[QAPair], bool] | None = None) -> list[QAPair]:
    """Generate question/program pairs for one scene, deterministically.

    `visual_pointer` names the object in attribute sub-questions; `coarse`
    takes each template's coarse-framework program instead of the fine one;
    a `fault_rate` share of programs (by stable hash) is corrupted until it
    no longer parses. A candidate is kept only if `verifier`, when given,
    accepts it.

    Question ids are keyed by generation attempt, and slot selection never
    consumes RNG differently across visual_pointer or coarse settings, so
    paired generations line up by question_id.
    """
    if not scene.objects:
        raise ValueError(f"scene {scene.scene_id} has no objects")
    rng = random.Random(f"qa:{seed}:{scene.scene_id}")
    target = rng.randint(*questions_per_scene)
    out: list[QAPair] = []
    for attempt in range(target * 4):
        if len(out) >= target:
            break
        template_id = rng.choices(ALL_TEMPLATE_IDS, _TEMPLATE_WEIGHTS)[0]
        made = TEMPLATES[template_id].make(scene, rng, world, visual_pointer)
        if made is None:
            continue
        qid = f"{scene.scene_id}:q{attempt:03d}"
        program = made.coarse_program if coarse else made.fine_program
        qa = QAPair(question_id=qid, question=made.question,
                    ground_truth=made.ground_truth, program=program,
                    question_type=template_id, scene_id=scene.scene_id)
        if verifier is not None and not verifier(qa):
            continue
        if fault_rate > 0 and stable_unit("fault", seed, qid) < fault_rate:
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
    """The question a record holds. Its type, scene id and answer come from
    closed vocabularies and are interned. Its id and texts are open-ended
    and are not: interning them would only grow the interpreter's table of
    interned strings, which never shrinks."""
    return QAPair(
        question_id=record["question_id"],
        question=record["question"],
        ground_truth=sys.intern(record["ground_truth"]),
        program=record["program"],
        question_type=sys.intern(record["question_type"]),
        scene_id=sys.intern(record["scene_id"]),
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
            if (attribute_value(a, family, world)
                    != attribute_value(b, family, world)):
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
            program = _find_then(name, "ps[0]")
            cases.append(GroundingCase(case_id, scene.scene_id, f"the {name}",
                                       program, obj.bbox, "plain"))
        else:
            pairs = _discrimination_candidates(scene, world)
            if not pairs:
                continue
            name, family = rng.choice(pairs)
            a, b = sorted(scene.objects_named(name), key=lambda o: o.id)
            target_obj = rng.choice((a, b))
            attr = attribute_value(target_obj, family, world)
            program = (f"ps = image.find({_s(name)})\n"
                       f"ok = ps[0].verify_property({_s(name)}, {_s(attr)})\n"
                       + _if_else("ok", "ans = ps[0]", "ans = ps[1]")
                       + "return ans\n")
            cases.append(GroundingCase(case_id, scene.scene_id,
                                       f"the {attr} {name}", program,
                                       target_obj.bbox, "discriminated"))
    return cases
