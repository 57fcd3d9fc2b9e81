"""Pluggable visual sub-module backends and the registry that binds them.

Five module kinds exist. find/exists are always served by the fixed detector
(they are never distilled); verify_property, best_text_match, and simple_query
are served by a ground-truth oracle (the teacher), by systematically corrupted
students, or by count-table students trained on pseudo-labels.

Every backend's predict() returns the answer itself: a PatchList (find), a
bool (exists) or the answer text. A distillable backend reads a call as the
adapter's sub-question, the text harvest has the teacher label, so a student
is keyed at evaluation on the sub-task it was trained on (`resolve_query`).
Table students are single-writer during training; freezing a student (done
when a registry is assembled for evaluation) makes further update() calls
raise, which is how the pipeline enforces the train/evaluate phase
separation.

Every sub-module call is a pure function of its backend and inputs, so
ModuleRegistry.dispatch memoizes its coerced output per (backend, kind,
receiver, args). replace() returns a copy that shares the memo: one memo
serves a registry family (a base and every combination built from it), and
it is freed with them. Calls to a student that is not yet frozen
are never memoized.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .adapter import AdapterError, adapt_step
from .interpreter import answer_to_text, execute
from .dsl import MODULE_ARITY, ParseError, parse
from .questions import (DISTILLABLE_KINDS, ParsedQuery, QAPair,
                        QuestionParser, RawText)
from .util import stable_hash, stable_unit
from .worlds import PatchList, ScenePatch, WorldConfig, WorldStore, crop


class BackendError(RuntimeError):
    """Bad input at a call site; the interpreter maps this to a NaN trace."""


class RegistryError(ValueError):
    pass


class PhaseError(RuntimeError):
    """update() called on a backend that is frozen for evaluation."""


@dataclass(frozen=True, slots=True)
class SubTaskInput:
    module_kind: str
    patch: ScenePatch | PatchList
    question: str | None = None
    args: tuple = ()


# ---------------------------------------------------------------------------
# Query resolution shared by teacher and students
# ---------------------------------------------------------------------------

def resolve_query(inp: SubTaskInput,
                  parser: QuestionParser) -> ParsedQuery | RawText:
    """The form of an input's question, or else of the adapter's
    sub-question for its call (BackendError if it has none); text the parser
    cannot read is RawText."""
    text = inp.question
    if text is None:
        try:
            text = adapt_step(inp.module_kind, inp.patch, inp.args,
                              attribute_vocab=parser.attributes)
        except AdapterError as exc:
            raise BackendError(f"no sub-question: {exc}") from exc
    return parser.parse(text) or RawText(text)


# ---------------------------------------------------------------------------
# Detector (find / exists) — fixed, never distilled
# ---------------------------------------------------------------------------

class DetectorBackend:
    """Geometry-faithful detector with a configurable deterministic miss rate.

    Misses are drawn per (scene, object), not per query, so repeated finds
    agree. Returned patches never violate the visibility overlap rule.
    """

    def __init__(self, store: WorldStore, miss_rate: float = 0.0, seed: int = 0):
        self.store = store
        self.miss_rate = miss_rate
        self.seed = seed
        self.name = f"detector(miss={miss_rate})"

    def _missed(self, scene_id: str, object_id: str) -> bool:
        if self.miss_rate <= 0.0:
            return False
        return stable_unit("miss", self.seed, scene_id, object_id) < self.miss_rate

    def predict(self, inp: SubTaskInput) -> PatchList | bool:
        receiver = inp.patch
        if inp.module_kind == "find":
            scene = self.store.get(receiver.scene_id)
            name = inp.args[0]
            patches = []
            for oid in sorted(receiver.visible_objects):
                obj = scene.object_by_id(oid)
                if obj.name != name or self._missed(scene.scene_id, oid):
                    continue
                patches.append(crop(scene, obj.bbox, origin_label=name))
            return PatchList(tuple(patches), origin_label=name)
        if inp.module_kind == "exists":
            return not isinstance(receiver, PatchList) or len(receiver) > 0
        raise BackendError(f"detector cannot serve {inp.module_kind}")


# ---------------------------------------------------------------------------
# Oracle teacher
# ---------------------------------------------------------------------------

class OracleBackend:
    """Answers exactly from the ground-truth scene graph; the desk-scale
    teacher. Reads a call's sub-question (see `resolve_query`)."""

    def __init__(self, store: WorldStore, world: WorldConfig):
        self.store = store
        self.world = world
        self.parser = QuestionParser(world)
        self.name = "oracle"

    def predict(self, inp: SubTaskInput) -> str:
        scene = self.store.get(inp.patch.scene_id)
        return resolve_query(inp, self.parser).answer(scene, inp.patch,
                                                      self.world)


# ---------------------------------------------------------------------------
# Corrupted students
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorruptionProfile:
    """Deterministic, systematic imperfection for a pretrained student.

    A fixed rotation of each answer vocabulary plays the label permutation; it
    applies to the rho-fraction of question-form keys selected by a stable
    hash. Permutations are bijections and never change for a given profile.
    """
    seed: int
    rho: float

    def corrupts(self, question_key: str) -> bool:
        if self.rho <= 0.0:
            return False
        return stable_unit("corrupt", self.seed, question_key) < self.rho

    def shift_for(self, vocab: Sequence[str]) -> int:
        n = len(vocab)
        if n < 2:
            return 0
        return 1 + stable_hash("shift", self.seed, "|".join(vocab)) % (n - 1)

    def permute(self, label: str, vocab: Sequence[str]) -> str:
        ordered = tuple(sorted(set(vocab)))
        if label not in ordered:
            return label
        shift = self.shift_for(ordered)
        return ordered[(ordered.index(label) + shift) % len(ordered)]

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rho": self.rho}

    @classmethod
    def from_dict(cls, d: dict) -> "CorruptionProfile":
        return cls(seed=int(d["seed"]), rho=float(d["rho"]))


class CorruptedBackend:
    """Oracle composed with a per-question-key answer permutation: right on
    clean keys, deterministically wrong on corrupted ones. Corruption affects
    labels, never geometry."""

    def __init__(self, store: WorldStore, world: WorldConfig,
                 profile: CorruptionProfile):
        self.store = store
        self.world = world
        self.profile = profile
        self.parser = QuestionParser(world)
        self.name = f"corrupted(rho={profile.rho},seed={profile.seed})"

    def perceived_signature(self, inp: SubTaskInput, corrupted: bool) -> str:
        """Sorted multiset of (name, attribute set) visible in the patch, seen
        through the label permutations when the question key is `corrupted`."""
        scene = self.store.get(inp.patch.scene_id)
        entries = []
        for oid in inp.patch.visible_objects:
            obj = scene.object_by_id(oid)
            name = obj.name
            attrs = sorted(obj.attributes)
            if corrupted:
                name = self.profile.permute(name, self.world.nouns)
                attrs = sorted(
                    self.profile.permute(a, self.world.attribute_families.get(
                        self.world.family_of(a) or "", (a,)))
                    for a in attrs)
            entries.append(f"{name}({','.join(attrs)})")
        return "+".join(sorted(entries))

    def student_key(self, inp: SubTaskInput) -> str:
        key = resolve_query(inp, self.parser).key()
        signature = self.perceived_signature(inp, self.profile.corrupts(key))
        return f"{inp.module_kind}|{key}|{signature}"

    def predict(self, inp: SubTaskInput) -> str:
        scene = self.store.get(inp.patch.scene_id)
        query = resolve_query(inp, self.parser)
        answer = query.answer(scene, inp.patch, self.world)
        if self.profile.corrupts(query.key()):
            answer = self.profile.permute(answer, query.support(self.world))
        return answer


# ---------------------------------------------------------------------------
# Table students (the distillable backends)
# ---------------------------------------------------------------------------

STUDENT_FILE_VERSION = 1


class TableStudent:
    """Count-model student: argmax over pseudo-label counts once a key has
    been seen at least tau times, exact fallback to the corrupted base below
    that. Ties break lexicographically; probabilities are add-alpha smoothed.
    """

    def __init__(self, module_kind: str, base: CorruptedBackend,
                 tau: int = 3, alpha: float = 1.0):
        if module_kind not in DISTILLABLE_KINDS:
            raise RegistryError(f"{module_kind} is not distillable")
        self.module_kind = module_kind
        self.base = base
        self.tau = tau
        self.alpha = alpha
        self.table: dict[str, dict[str, float]] = {}
        self.frozen = False
        self.name = f"table-student({module_kind})"

    # -- training -----------------------------------------------------------

    def update(self, inp: SubTaskInput, pseudo_label: str) -> None:
        self.count(self.base.student_key(inp), pseudo_label)

    def count(self, key: str, pseudo_label: str) -> None:
        """update() for an input whose student key is `key`."""
        if self.frozen:
            raise PhaseError("student is frozen for evaluation")
        counts = self.table.setdefault(key, {})
        counts[pseudo_label] = counts.get(pseudo_label, 0.0) + 1.0

    def freeze(self) -> None:
        self.frozen = True

    # -- prediction ---------------------------------------------------------

    def key_and_support(self, inp: SubTaskInput) -> tuple[str, tuple[str, ...]]:
        """The input's student key and its query's answer support: all that
        the smoothed distribution reads of an input."""
        return (self.base.student_key(inp),
                resolve_query(inp, self.base.parser).support(self.base.world))

    def smoothed_distribution(self, key: str, support: Sequence[str],
                              extra_label: str | None = None) -> dict[str, float]:
        """Add-alpha distribution over the key's counted labels, `support`
        and `extra_label`, in label order."""
        counts = self.table.get(key, {})
        labels = set(counts) | set(support)
        if extra_label is not None:
            labels.add(extra_label)
        total = sum(counts.values())
        denom = total + self.alpha * len(labels)
        if denom <= 0:
            return {}
        return {label: (counts.get(label, 0.0) + self.alpha) / denom
                for label in sorted(labels)}

    def label_probability(self, key: str, support: Sequence[str],
                          label: str) -> float:
        return self.smoothed_distribution(key, support, label).get(label, 0.0)

    def predict(self, inp: SubTaskInput) -> str:
        counts = self.table.get(self.base.student_key(inp))
        if counts and sum(counts.values()) >= self.tau:
            return min(counts, key=lambda label: (-counts[label], label))
        return self.base.predict(inp)

    # -- stats / persistence --------------------------------------------------

    def keys_at_threshold(self) -> int:
        return sum(1 for counts in self.table.values()
                   if sum(counts.values()) >= self.tau)

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": STUDENT_FILE_VERSION,
            "module_kind": self.module_kind,
            "tau": self.tau,
            "alpha": self.alpha,
            "corruption": self.base.profile.to_dict(),
            "table": {key: dict(sorted(self.table[key].items()))
                      for key in sorted(self.table)},
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=0, sort_keys=True),
                        encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, store: WorldStore,
             world: WorldConfig) -> "TableStudent":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("format_version")
        if version != STUDENT_FILE_VERSION:
            raise RegistryError(f"unsupported student file version {version!r}")
        base = CorruptedBackend(store, world,
                                CorruptionProfile.from_dict(payload["corruption"]))
        student = cls(payload["module_kind"], base,
                      tau=int(payload["tau"]), alpha=float(payload["alpha"]))
        student.table = {k: dict(v) for k, v in payload["table"].items()}
        return student


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class ModuleRegistry:
    """Immutable binding of the five module kinds to backends.

    The detector serves find and exists, and `backend` every distillable
    kind. replace() rebinds one distillable kind in a copy that shares this
    registry's dispatch memo.
    """

    def __init__(self, detector: DetectorBackend, backend):
        if not isinstance(detector, DetectorBackend):
            raise RegistryError("find and exists must be bound to the detector")
        self._bindings = {"find": detector, "exists": detector,
                          **dict.fromkeys(DISTILLABLE_KINDS, backend)}
        self._memo = {}

    def backend(self, kind: str):
        return self._bindings[kind]

    def replace(self, kind: str, backend) -> "ModuleRegistry":
        if kind not in DISTILLABLE_KINDS:
            raise RegistryError(f"{kind} cannot be replaced")
        registry = copy.copy(self)
        registry._bindings = {**self._bindings, kind: backend}
        return registry

    def describe(self) -> dict[str, str]:
        return {kind: getattr(b, "name", type(b).__name__)
                for kind, b in sorted(self._bindings.items())}

    # -- interpreter entry point ----------------------------------------------

    def dispatch(self, kind: str, receiver, args: tuple):
        backend = self._bindings.get(kind)
        if not getattr(backend, "frozen", True):
            return self._dispatch(kind, receiver, args)
        # The backend object itself is in the key, so a replaced kind never
        # sees its predecessor's entries. Failed calls raise and are not kept.
        key = (backend, kind, receiver, args)
        try:
            return self._memo[key]
        except KeyError:
            output = self._memo[key] = self._dispatch(kind, receiver, args)
            return output

    def _dispatch(self, kind: str, receiver, args: tuple):
        if kind not in MODULE_ARITY:
            raise BackendError(f"unknown module kind {kind!r}")
        patch_types = (ScenePatch, PatchList) if kind == "exists" else ScenePatch
        if not isinstance(receiver, patch_types):
            raise BackendError(f"{kind} expects a patch receiver")
        if len(args) != MODULE_ARITY[kind]:
            raise BackendError(f"{kind} takes {MODULE_ARITY[kind]} argument(s)")
        # best_text_match's one argument is a non-empty list of option strings.
        strings = args if kind != "best_text_match" else (
            args[0] if isinstance(args[0], tuple) and args[0] else (None,))
        if not all(isinstance(a, str) for a in strings):
            raise BackendError(f"{kind} expects string arguments")
        answer = self._bindings[kind].predict(SubTaskInput(kind, receiver,
                                                           args=args))
        if kind == "find" and not isinstance(answer, PatchList):
            raise BackendError("find backend returned a non patch list")
        if kind == "exists":
            return bool(answer)
        return answer == "yes" if kind == "verify_property" else answer


# ---------------------------------------------------------------------------
# Registry builders
# ---------------------------------------------------------------------------

def baseline_registry(store: WorldStore, world: WorldConfig,
                      profile: CorruptionProfile, miss_rate: float = 0.05,
                      detector_seed: int = 11) -> ModuleRegistry:
    """Pre-distillation framework: fixed detector plus corrupted students."""
    detector = DetectorBackend(store, miss_rate=miss_rate, seed=detector_seed)
    return ModuleRegistry(detector, CorruptedBackend(store, world, profile))


def oracle_registry(store: WorldStore, world: WorldConfig,
                    miss_rate: float = 0.05,
                    detector_seed: int = 11) -> ModuleRegistry:
    """Teacher replacement: distillable kinds answered by the teacher
    directly; find stays the detector."""
    detector = DetectorBackend(store, miss_rate=miss_rate, seed=detector_seed)
    return ModuleRegistry(detector, OracleBackend(store, world))


def perfect_registry(store: WorldStore, world: WorldConfig) -> ModuleRegistry:
    """All-oracle ceiling: miss-free detector plus the teacher everywhere."""
    return oracle_registry(store, world, miss_rate=0.0)


def distilled_registry(base: ModuleRegistry,
                       students: Mapping[str, TableStudent]) -> ModuleRegistry:
    registry = base
    for kind in sorted(students):
        students[kind].freeze()
        registry = registry.replace(kind, students[kind])
    return registry


def fresh_students(store: WorldStore, world: WorldConfig,
                   profile: CorruptionProfile, tau: int = 3,
                   alpha: float = 1.0) -> dict[str, TableStudent]:
    base = CorruptedBackend(store, world, profile)
    return {kind: TableStudent(kind, base, tau=tau, alpha=alpha)
            for kind in DISTILLABLE_KINDS}


def consistency_verifier(store: WorldStore, world: WorldConfig):
    """Check used at generation time: the program, run with miss-free oracle
    modules, must return the ground truth."""
    registry = perfect_registry(store, world)

    def verify(qa: QAPair) -> bool:
        scene = store.get(qa.scene_id)
        try:
            program = parse(qa.program)
        except ParseError:
            return False
        trace = execute(program, scene, registry, qa.question_id)
        answer = answer_to_text(trace.answer)
        if answer is None:
            return False
        return answer.strip().casefold() == qa.ground_truth.strip().casefold()

    return verify
