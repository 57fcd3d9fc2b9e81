"""Step-dataset assembly: question-type balancing, per-scene supplements,
split construction with machine-checked disjointness, and summary stats.

Balancing happens on original questions; harvesting then expands each into
multiple step triples, so per-type triple counts are emergent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .distill import Triple
from .questions import QAPair


class SplitError(ValueError):
    """val/test overlap detected after construction; always a hard failure."""


@dataclass(frozen=True)
class SplitSpec:
    name: str                       # train | val | test
    per_type_cap: int = 160         # K: phase-one cap per question type
    per_scene_range: tuple[int, int] = (1, 2)
    source_pool: str = "train"
    scene_share: float = 1.0        # fraction of the pool's scenes (val/test)

    def validate(self) -> None:
        if self.per_type_cap < 1:
            raise ValueError("per_type_cap must be >= 1")
        lo, hi = self.per_scene_range
        if lo < 1 or hi < lo:
            raise ValueError("per_scene_range invalid")


@dataclass
class BalanceResult:
    selected: list[QAPair]
    phase_one_count: int
    phase_two_count: int


def balance_detailed(pool: Sequence[QAPair], spec: SplitSpec,
                     seed: int) -> BalanceResult:
    """Phase one caps each question type at K; phase two adds 1-2 questions for
    every scene phase one left unrepresented. Deterministic under seed."""
    spec.validate()
    if not pool:
        return BalanceResult([], 0, 0)
    rng = random.Random(f"balance:{seed}:{spec.name}")

    by_type: dict[str, list[QAPair]] = {}
    for qa in sorted(pool, key=lambda q: q.question_id):
        by_type.setdefault(qa.question_type, []).append(qa)

    selected: list[QAPair] = []
    for qtype in sorted(by_type):
        group = by_type[qtype]
        if len(group) > spec.per_type_cap:
            group = rng.sample(group, spec.per_type_cap)
        selected.extend(group)
    phase_one = len(selected)

    covered = {qa.scene_id for qa in selected}
    by_scene: dict[str, list[QAPair]] = {}
    for qa in sorted(pool, key=lambda q: q.question_id):
        by_scene.setdefault(qa.scene_id, []).append(qa)
    supplements: list[QAPair] = []
    for scene_id in sorted(by_scene):
        if scene_id in covered:
            continue
        group = by_scene[scene_id]
        lo, hi = spec.per_scene_range
        take = min(len(group), rng.randint(lo, hi))
        supplements.extend(rng.sample(group, take))

    out = sorted(selected + supplements, key=lambda q: q.question_id)
    return BalanceResult(out, phase_one, len(supplements))


@dataclass
class SplitResult:
    splits: dict[str, list[QAPair]]
    proof: dict[str, int] = field(default_factory=dict)
    phases: dict[str, dict[str, int]] = field(default_factory=dict)

    def manifest(self) -> dict:
        return {
            "splits": {
                name: {
                    "count": len(qas),
                    "phase_one": self.phases.get(name, {}).get("phase_one", 0),
                    "phase_two": self.phases.get(name, {}).get("phase_two", 0),
                    "question_ids": [qa.question_id for qa in qas],
                }
                for name, qas in sorted(self.splits.items())
            },
            "disjointness": dict(sorted(self.proof.items())),
        }


def make_splits(pools: Mapping[str, Sequence[QAPair]],
                specs: Mapping[str, SplitSpec], seed: int) -> SplitResult:
    """Build train/val/test. train comes from its own pool; val and test share
    a pool split at scene level. Disjointness is verified, never assumed."""
    for name in ("train", "val", "test"):
        if name not in specs:
            raise ValueError(f"missing spec for split {name!r}")

    train_pool = list(pools[specs["train"].source_pool])
    shared_name = specs["val"].source_pool
    if specs["test"].source_pool != shared_name:
        raise ValueError("val and test must draw from a common pool")
    shared_pool = list(pools[shared_name])

    rng = random.Random(f"splits:{seed}")
    scene_ids = sorted({qa.scene_id for qa in shared_pool})
    rng.shuffle(scene_ids)
    val_count = int(round(len(scene_ids) * specs["val"].scene_share))
    val_count = max(0, min(len(scene_ids), val_count))
    val_scenes = set(scene_ids[:val_count])
    test_scenes = set(scene_ids[val_count:])

    val_pool = [qa for qa in shared_pool if qa.scene_id in val_scenes]
    test_pool = [qa for qa in shared_pool if qa.scene_id in test_scenes]

    splits: dict[str, list[QAPair]] = {}
    phases: dict[str, dict[str, int]] = {}
    for name, pool in (("train", train_pool), ("val", val_pool),
                       ("test", test_pool)):
        result = balance_detailed(pool, specs[name], seed)
        splits[name] = result.selected
        phases[name] = {"phase_one": result.phase_one_count,
                        "phase_two": result.phase_two_count}

    proof = verify_disjoint(splits["val"], splits["test"])
    return SplitResult(splits=splits, proof=proof, phases=phases)


def verify_disjoint(val: Sequence[QAPair], test: Sequence[QAPair]) -> dict[str, int]:
    """Machine check: no shared scene ids, no shared question ids."""
    shared_scenes = {qa.scene_id for qa in val} & {qa.scene_id for qa in test}
    shared_questions = {qa.question_id for qa in val} & {qa.question_id for qa in test}
    if shared_scenes or shared_questions:
        raise SplitError(
            f"val/test overlap: {len(shared_scenes)} scene(s), "
            f"{len(shared_questions)} question(s)")
    return {
        "val_scenes": len({qa.scene_id for qa in val}),
        "test_scenes": len({qa.scene_id for qa in test}),
        "shared_scene_ids": 0,
        "shared_question_ids": 0,
    }


def stats(items: Sequence[QAPair] | Sequence[Triple]) -> dict:
    """Counts per question type, per module kind (triples), and per scene."""
    per_type: dict[str, int] = {}
    per_kind: dict[str, int] = {}
    per_scene: dict[str, int] = {}
    for item in items:
        qtype = getattr(item, "question_type", "")
        per_type[qtype] = per_type.get(qtype, 0) + 1
        kind = getattr(item, "module_kind", None)
        if kind is not None:
            per_kind[kind] = per_kind.get(kind, 0) + 1
        scene = getattr(item, "scene_id", "")
        per_scene[scene] = per_scene.get(scene, 0) + 1
    return {
        "total": len(items),
        "per_question_type": dict(sorted(per_type.items())),
        "per_module_kind": dict(sorted(per_kind.items())),
        "scenes": len(per_scene),
    }
