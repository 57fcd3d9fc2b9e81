"""Teacher input adapter: turns an intermediate module call into the
(sub-question, sub-image) pair the teacher answers.

The three templating rules are pinned byte-for-byte by tests:

    verify_property(object_name, attribute)  ->  "Is this {object_name} {attribute}?"
    best_text_match(options) on a noun list  ->  "Is this a/an {opt0} or {opt1}?"
                              plural center  ->  "Are these {opt0} or {opt1}?"
                         on adjective list   ->  "Is this {center} {opt0} or {opt1}?"
    simple_query(question)                    ->  question, ending in exactly one "?"

A center word is the world noun a find() matched; it is a plural center only
if the noun is its own plural (in `PLURAL_IRREGULAR`, e.g. "glasses").

The sub-image is always the receiver patch of the step, unchanged.
All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .interpreter import StepRecord
from .questions import DISTILLABLE_KINDS, PLURAL_IRREGULAR, article
from .worlds import ScenePatch


class AdapterError(ValueError):
    pass


@dataclass(frozen=True)
class TeacherInput:
    sub_question: str
    sub_image: ScenePatch
    source: tuple[str, int, str]  # (question_id, step_index, module_kind)


def adapt_verify_property(object_name: str, attribute: str) -> str:
    if not object_name or not attribute:
        raise AdapterError("verify_property needs a non-empty name and attribute")
    return f"Is this {object_name} {attribute}?"


def adapt_best_text_match(options: Sequence[str], center_word: str | None = None,
                          plural: bool = False, *,
                          attribute_vocab: Collection[str] = ()) -> str:
    """Option-list sub-question.

    Options must be uniformly nouns or uniformly adjectives; membership in the
    attribute vocabulary is the classifier. The indefinite article follows the
    first option's leading sound and appears on the first option only.
    """
    options = list(options)
    if len(options) < 2:
        raise AdapterError("best_text_match needs at least two options")
    if any(not o for o in options):
        raise AdapterError("empty option")
    vocab = set(attribute_vocab)
    adjective_flags = [o in vocab for o in options]
    if all(adjective_flags):
        if not center_word:
            raise AdapterError("adjective options need a center word")
        joined = " or ".join(options)
        if plural:
            return f"Are these {center_word} {joined}?"
        return f"Is this {center_word} {joined}?"
    if any(adjective_flags):
        raise AdapterError(f"options mix nouns and adjectives: {options}")
    joined = " or ".join(options)
    if plural:
        return f"Are these {joined}?"
    return f"Is this {article(options[0])} {joined}?"


def adapt_simple_query(question: str) -> str:
    """Pass the question through, normalized to end with exactly one "?".

    An empty question is returned as-is with a warning record; adapt_step
    treats it as a rejection so TeacherInput stays non-empty.
    """
    if not question.strip():
        # Imported on the warning path only: a CLI process never loads
        # logging unless it warns.
        import logging
        logging.getLogger(__name__).warning("adapter: empty simple_query question")
        return ""
    return question.rstrip().rstrip("?").rstrip() + "?"


def adapt_step(step: StepRecord, *, attribute_vocab: Collection[str],
               question_id: str = "") -> TeacherInput:
    """Dispatch a distillable step through the templating rules.

    The center word comes from the receiver's find() provenance; the
    sub-image is the receiver patch itself.
    """
    if step.module_kind not in DISTILLABLE_KINDS:
        raise AdapterError(f"step kind {step.module_kind!r} is not adaptable")
    if not isinstance(step.receiver, ScenePatch):
        raise AdapterError("adaptable steps take a single patch receiver")
    if step.module_kind == "verify_property":
        name, attribute = step.args
        sub_question = adapt_verify_property(str(name), str(attribute))
    elif step.module_kind == "best_text_match":
        options = [str(o) for o in step.args[0]]
        sub_question = adapt_best_text_match(
            options, center_word=step.center_word,
            plural=step.center_word in PLURAL_IRREGULAR,
            attribute_vocab=attribute_vocab)
    else:
        sub_question = adapt_simple_query(str(step.args[0]))
        if not sub_question:
            raise AdapterError("empty simple_query question")
    return TeacherInput(
        sub_question=sub_question,
        sub_image=step.receiver,
        source=(question_id, step.step_index, step.module_kind),
    )
