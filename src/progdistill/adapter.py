"""Teacher input adapter: turns a distillable module call into the
sub-question the teacher answers, on the call's receiver patch unchanged.

The three templating rules are pinned byte-for-byte by tests:

    verify_property(name, attribute)          ->  "Is this {name} {attribute}?"
    best_text_match(options) on a noun list  ->  "Is this a/an {opt0} or {opt1}?"
                              plural center  ->  "Are these {opt0} or {opt1}?"
                         on adjective list   ->  "Is this {center} {opt0} or {opt1}?"
    simple_query(question)                    ->  question, ending in exactly one "?"

A center word is the world noun a find() matched (the receiver's
origin_label); it is a plural center only if the noun is its own plural (in
`PLURAL_IRREGULAR`, e.g. "glasses").

Harvest labels this text, and dispatch keys a call by it
(`backends.resolve_query`), so a call the adapter rejects has no answer.
All functions are pure.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .dsl import MODULE_ARITY
from .questions import DISTILLABLE_KINDS, article
from .worlds import PLURAL_IRREGULAR, ScenePatch


class AdapterError(ValueError):
    pass


def adapt_verify_property(name: str, attribute: str) -> str:
    if not name or not attribute:
        raise AdapterError("verify_property needs a non-empty name and attribute")
    return f"Is this {name} {attribute}?"


def adapt_best_text_match(options: Sequence[str], center: str | None = None,
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
    adjective_flags = [o in attribute_vocab for o in options]
    joined = " or ".join(options)
    if all(adjective_flags):
        if not center:
            raise AdapterError("adjective options need a center word")
        if plural:
            return f"Are these {center} {joined}?"
        return f"Is this {center} {joined}?"
    if any(adjective_flags):
        raise AdapterError(f"options mix nouns and adjectives: {options}")
    if plural:
        return f"Are these {joined}?"
    return f"Is this {article(options[0])} {joined}?"


def adapt_simple_query(question: str) -> str:
    """Pass the question through, normalized to end with exactly one "?"."""
    if not question.strip():
        raise AdapterError("empty simple_query question")
    return question.rstrip().rstrip("?").rstrip() + "?"


def adapt_step(module_kind: str, receiver, args: tuple, *,
               attribute_vocab: Collection[str]) -> str:
    """The sub-question of a distillable call on a single patch `receiver`;
    the center word is the receiver's find() provenance."""
    if module_kind not in DISTILLABLE_KINDS:
        raise AdapterError(f"step kind {module_kind!r} is not adaptable")
    if not isinstance(receiver, ScenePatch):
        raise AdapterError("adaptable steps take a single patch receiver")
    if len(args) != MODULE_ARITY[module_kind]:
        raise AdapterError(f"wrong argument count for {module_kind}")
    if module_kind == "verify_property":
        name, attribute = args
        return adapt_verify_property(str(name), str(attribute))
    if module_kind == "best_text_match":
        center = receiver.origin_label
        return adapt_best_text_match(
            [str(o) for o in args[0]], center=center,
            plural=center in PLURAL_IRREGULAR, attribute_vocab=attribute_vocab)
    return adapt_simple_query(str(args[0]))
