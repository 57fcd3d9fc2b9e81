"""Pseudo-label harvesting and the student training loop.

Harvesting walks execution traces, adapts every distillable step into a
teacher query, and records the teacher's answer as a pseudo-label. Steps from
wrong or NaN-status runs are harvested too: supervision follows the execution
flow, not the outcome.

Training is single-writer per student; the per-sample loss (mean over a
sample's steps of -log p_student(pseudo_label), smoothed) is a reporting
metric for count students and the contract any gradient-based backend must
honor through update weights.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .adapter import AdapterError, adapt_step
from .backends import Prediction, SubTaskInput, TableStudent
from .interpreter import ExecutionTrace
from .questions import DISTILLABLE_KINDS
from .util import iter_jsonl, write_jsonl
from .worlds import Rect, WorldConfig, WorldStore, crop

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
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
class DistillConfig:
    epochs: int = 1
    seed: int = 0
    enabled_kinds: tuple[str, ...] = DISTILLABLE_KINDS

    def validate(self) -> None:
        if not self.enabled_kinds:
            raise ValueError("at least one module kind must be enabled")
        unknown = [k for k in self.enabled_kinds if k not in DISTILLABLE_KINDS]
        if unknown:
            raise ValueError(f"not distillable: {unknown}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainingReport:
    triples_per_kind: dict[str, int] = field(default_factory=dict)
    skipped_unknown_kind: int = 0
    epoch_mean_sample_loss: list[float] = field(default_factory=list)
    table_sizes: dict[str, int] = field(default_factory=dict)
    keys_at_threshold: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "triples_per_kind": dict(sorted(self.triples_per_kind.items())),
            "skipped_unknown_kind": self.skipped_unknown_kind,
            "epoch_mean_sample_loss": list(self.epoch_mean_sample_loss),
            "table_sizes": dict(sorted(self.table_sizes.items())),
            "keys_at_threshold": dict(sorted(self.keys_at_threshold.items())),
        }


# ---------------------------------------------------------------------------
# Harvesting
# ---------------------------------------------------------------------------

def harvest(traces: Iterable[ExecutionTrace], teacher, world: WorldConfig,
            question_types: Mapping[str, str] | None = None,
            audit: list | None = None) -> list[Triple]:
    """One Triple per distillable StepRecord, ordered by (question_id,
    step_index). Steps the adapter rejects are skipped with a warning."""
    attribute_vocab = world.all_attributes()
    ordered = sorted(traces, key=lambda t: t.question_id)
    triples: list[Triple] = []
    skipped = 0
    for trace in ordered:
        for step in trace.steps:
            if step.module_kind not in DISTILLABLE_KINDS:
                continue
            try:
                teacher_input = adapt_step(step, attribute_vocab=attribute_vocab,
                                           question_id=trace.question_id)
            except AdapterError as exc:
                skipped += 1
                logger.warning("harvest: skipped step %s/%d: %s",
                               trace.question_id, step.step_index, exc)
                continue
            prediction: Prediction = teacher.predict(SubTaskInput(
                module_kind=step.module_kind,
                patch=teacher_input.sub_image,
                question=teacher_input.sub_question,
            ))
            label = prediction.answer
            if isinstance(label, bool):
                label = "yes" if label else "no"
            triples.append(Triple(
                scene_id=teacher_input.sub_image.scene_id,
                region=teacher_input.sub_image.region,
                sub_question=teacher_input.sub_question,
                pseudo_label=str(label),
                module_kind=step.module_kind,
                source_qid=trace.question_id,
                question_type=(question_types or {}).get(trace.question_id, ""),
            ))
            if audit is not None:
                audit.append({"source": list(teacher_input.source),
                              "sub_question": teacher_input.sub_question})
    if skipped:
        logger.warning("harvest: %d step(s) skipped by the adapter", skipped)
    return triples


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

def sample_loss(trace_triples: Sequence[Triple],
                predictions: Sequence[Prediction]) -> float:
    """Mean over the sample's steps of -log p(pseudo_label).

    Probabilities come from each prediction's distribution; a missing or zero
    probability yields an infinite step loss rather than a silent clamp.
    """
    if not trace_triples:
        raise ValueError("sample_loss needs at least one triple")
    if len(trace_triples) != len(predictions):
        raise ValueError("one prediction per triple required")
    total = 0.0
    for triple, prediction in zip(trace_triples, predictions):
        p = prediction.distribution.get(triple.pseudo_label, 0.0)
        total += -math.log(p) if p > 0.0 else math.inf
    return total / len(trace_triples)


def _mean_training_loss(students: Mapping[str, TableStudent],
                        triples: Sequence[Triple],
                        inputs: Sequence[SubTaskInput]) -> float:
    """Mean sample loss over the training triples under the current tables,
    where a sample is one source question; `inputs[i]` is triple i's rebuilt
    sub-task input."""
    by_sample: dict[str, list[float]] = {}
    for triple, inp in zip(triples, inputs):
        student = students.get(triple.module_kind)
        if student is None:
            continue
        p = student.label_probability(inp, triple.pseudo_label)
        loss = -math.log(p) if p > 0.0 else math.inf
        by_sample.setdefault(triple.source_qid, []).append(loss)
    if not by_sample:
        return 0.0
    sample_means = [sum(vals) / len(vals) for vals in by_sample.values()]
    return sum(sample_means) / len(sample_means)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(students: Mapping[str, TableStudent], triples: Sequence[Triple],
          config: DistillConfig,
          store: WorldStore) -> tuple[Mapping[str, TableStudent], TrainingReport]:
    """Apply every matching triple via update() exactly `epochs` times,
    shuffled per epoch by seed. Disabled kinds are left untouched."""
    config.validate()
    report = TrainingReport()
    enabled = {k: students[k] for k in config.enabled_kinds if k in students}

    usable: list[Triple] = []
    for triple in triples:
        if triple.module_kind not in DISTILLABLE_KINDS:
            report.skipped_unknown_kind += 1
            continue
        if triple.module_kind not in enabled:
            continue
        usable.append(triple)
        report.triples_per_kind[triple.module_kind] = (
            report.triples_per_kind.get(triple.module_kind, 0) + 1)

    inputs = [triple_input(t, store) for t in usable]
    order = list(range(len(usable)))
    for epoch in range(config.epochs):
        rng = random.Random(f"train:{config.seed}:{epoch}")
        rng.shuffle(order)
        for idx in order:
            triple = usable[idx]
            enabled[triple.module_kind].update(inputs[idx], triple.pseudo_label)
        report.epoch_mean_sample_loss.append(
            _mean_training_loss(enabled, usable, inputs))

    for kind, student in sorted(enabled.items()):
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
