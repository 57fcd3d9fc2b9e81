"""Pseudo-label harvesting and the student training loop.

Harvesting walks execution traces, adapts every distillable step into a
teacher query, and records the teacher's answer as a pseudo-label. Steps from
wrong or NaN-status runs are harvested too: supervision follows the execution
flow, not the outcome.

Training is single-writer per student; the per-sample loss (mean over a
sample's steps of -log p_student(pseudo_label), smoothed) is a reporting
metric for count students.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .adapter import AdapterError, adapt_step
from .backends import SubTaskInput, TableStudent
from .interpreter import ExecutionTrace
from .questions import DISTILLABLE_KINDS
from .util import iter_jsonl, mean, write_jsonl
from .worlds import Rect, WorldConfig, WorldStore, crop


@dataclass(frozen=True, slots=True)
class Triple:
    """One step-supervision sample: (sub-image, sub-question, pseudo-label)."""
    scene_id: str
    region: Rect
    sub_question: str
    pseudo_label: str
    module_kind: str
    source_qid: str
    question_type: str


@dataclass
class TrainingReport:
    triples_per_kind: dict[str, int] = field(default_factory=dict)
    skipped_unknown_kind: int = 0
    epoch_mean_sample_loss: list[float] = field(default_factory=list)
    table_sizes: dict[str, int] = field(default_factory=dict)
    keys_at_threshold: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Harvesting
# ---------------------------------------------------------------------------

def _warn(message: str, *args) -> None:
    # Imported on the warning paths only: a CLI process never loads logging
    # unless it warns.
    import logging
    logging.getLogger(__name__).warning(message, *args)


def harvest(traces: Iterable[ExecutionTrace], teacher, world: WorldConfig,
            question_types: Mapping[str, str] | None = None,
            audit: list | None = None) -> list[Triple]:
    """One Triple per distillable StepRecord, ordered by (question_id,
    step_index) for traces in any order. Each trace's steps are labelled as
    the trace is drawn, so an iterator of traces is never held whole; the
    triples, and the audit records when `audit` is given, are then stably
    sorted by question_id. Steps the adapter rejects are skipped with a
    warning."""
    attribute_vocab = world.all_attributes()
    triples: list[Triple] = []
    records: list[dict] = []
    skipped = 0
    for trace in traces:
        for step in trace.steps:
            if step.module_kind not in DISTILLABLE_KINDS:
                continue
            try:
                sub_question = adapt_step(step.module_kind, step.receiver,
                                          step.args,
                                          attribute_vocab=attribute_vocab)
            except AdapterError as exc:
                skipped += 1
                _warn("harvest: skipped step %s/%d: %s",
                      trace.question_id, step.step_index, exc)
                continue
            label = teacher.predict(SubTaskInput(
                step.module_kind, step.receiver, question=sub_question))
            triples.append(Triple(
                scene_id=step.receiver.scene_id,
                region=step.receiver.region,
                sub_question=sub_question,
                pseudo_label=label,
                module_kind=step.module_kind,
                source_qid=trace.question_id,
                question_type=(question_types or {}).get(trace.question_id, ""),
            ))
            if audit is not None:
                records.append({"source": [trace.question_id, step.step_index,
                                           step.module_kind],
                                "sub_question": sub_question})
    if skipped:
        _warn("harvest: %d step(s) skipped by the adapter", skipped)
    # A stable sort keeps each trace's steps in step order.
    order = sorted(range(len(triples)), key=lambda i: triples[i].source_qid)
    if audit is not None:
        audit.extend([records[i] for i in order])
    return [triples[i] for i in order]


def triple_input(triple: Triple, store: WorldStore) -> SubTaskInput:
    """Rebuild the sub-task input for a stored triple; patch visibility is
    recomputed from geometry, never trusted from disk."""
    scene = store.get(triple.scene_id)
    patch = crop(scene, triple.region)
    return SubTaskInput(module_kind=triple.module_kind, patch=patch,
                        question=triple.sub_question)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def sample_loss(probabilities: Sequence[float]) -> float:
    """Mean over a sample's steps of -log p(pseudo_label), given each step's
    probability; a zero probability yields an infinite step loss rather than
    a silent clamp."""
    if not probabilities:
        raise ValueError("sample_loss needs at least one step")
    total = 0.0
    for p in probabilities:
        total += -math.log(p) if p > 0.0 else math.inf
    return total / len(probabilities)


def _mean_training_loss(students: Mapping[str, TableStudent],
                        triples: Sequence[Triple],
                        keyed: Sequence[tuple[str, tuple[str, ...]]]) -> float:
    """Mean sample loss over the training triples under the current tables,
    where a sample is one source question; `keyed[i]` is triple i's student
    key and answer support."""
    by_sample: dict[str, list[float]] = {}
    for triple, (key, support) in zip(triples, keyed):
        by_sample.setdefault(triple.source_qid, []).append(
            students[triple.module_kind].label_probability(
                key, support, triple.pseudo_label))
    if not by_sample:
        return 0.0
    sample_means = [sample_loss(probs) for probs in by_sample.values()]
    return mean(sample_means)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(students: Mapping[str, TableStudent], triples: Sequence[Triple],
          store: WorldStore, epochs: int = 1,
          seed: int = 0) -> tuple[Mapping[str, TableStudent], TrainingReport]:
    """Apply every triple whose kind has a student via update() exactly
    `epochs` times, shuffled per epoch by seed; to train fewer kinds, pass
    fewer students."""
    report = TrainingReport()
    usable: list[Triple] = []
    for triple in triples:
        if triple.module_kind not in DISTILLABLE_KINDS:
            report.skipped_unknown_kind += 1
        elif triple.module_kind in students:
            usable.append(triple)
            report.triples_per_kind[triple.module_kind] = (
                report.triples_per_kind.get(triple.module_kind, 0) + 1)

    # A key and a support depend on the input alone, not on the counts, so
    # each triple's are computed once for every epoch's updates and loss.
    keyed = [students[t.module_kind].key_and_support(triple_input(t, store))
             for t in usable]
    order = list(range(len(usable)))
    for epoch in range(epochs):
        rng = random.Random(f"train:{seed}:{epoch}")
        rng.shuffle(order)
        for idx in order:
            triple = usable[idx]
            students[triple.module_kind].count(keyed[idx][0],
                                               triple.pseudo_label)
        report.epoch_mean_sample_loss.append(
            _mean_training_loss(students, usable, keyed))

    for kind, student in sorted(students.items()):
        report.table_sizes[kind] = len(student.table)
        report.keys_at_threshold[kind] = student.keys_at_threshold()
    return students, report


# ---------------------------------------------------------------------------
# Triple files (the step-dataset on-disk record)
# ---------------------------------------------------------------------------

def triple_to_record(triple: Triple) -> dict:
    return {
        "scene_id": triple.scene_id,
        "region": list(triple.region),
        "sub_question": triple.sub_question,
        "pseudo_label": triple.pseudo_label,
        "module_kind": triple.module_kind,
        "source_qid": triple.source_qid,
        "question_type": triple.question_type,
    }


def triple_from_record(record: dict) -> Triple:
    return Triple(
        scene_id=record["scene_id"],
        region=tuple(record["region"]),
        sub_question=record["sub_question"],
        pseudo_label=record["pseudo_label"],
        module_kind=record["module_kind"],
        source_qid=record["source_qid"],
        question_type=record["question_type"],
    )


def save_triples(path, triples: Iterable[Triple]) -> int:
    return write_jsonl(path, (triple_to_record(t) for t in triples))


def load_triples(path) -> list[Triple]:
    return [triple_from_record(r) for r in iter_jsonl(path)]
