"""Pluggable visual sub-module backends and the registry that binds them.

Five module kinds exist. find/exists are always served by the fixed detector
(they are never distilled); verify_property, best_text_match, and simple_query
are served by a ground-truth oracle (the teacher), by systematically corrupted
students, or by count-table students trained on pseudo-labels.

Table students are single-writer during training; freezing a student (done
when a registry is assembled for evaluation) makes further update() calls
raise, which is how the pipeline enforces the train/evaluate phase
separation.

Every sub-module call is a pure function of its backend and inputs, so
ModuleRegistry.dispatch memoizes its coerced output per (backend, kind,
receiver, args). replace() hands the same memo to the registry it returns:
one memo serves a registry family (a base and every combination built from
it), and it is freed with them. Calls to a trainable backend that is not yet
frozen are never memoized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .interpreter import answer_to_text, execute
from .dsl import MODULE_KINDS, parse
from .questions import (DISTILLABLE_KINDS, ParsedQuery, QAPair,
                        QuestionParser, TemplateQuery, answer_support,
                        evaluate_template, query_key)
from .util import stable_hash, stable_unit
from .worlds import (ChooseOption, PatchList, SceneGraph, ScenePatch,
                     UNKNOWN, VerifyAttribute, WorldConfig, WorldStore, crop,
                     oracle_answer)


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
    object_name: str | None = None
    attribute: str | None = None
    options: tuple[str, ...] | None = None
    center_word: str | None = None


@dataclass(slots=True)
class Prediction:
    answer: object
    distribution: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Query resolution shared by teacher and students
# ---------------------------------------------------------------------------

def resolve_query(inp: SubTaskInput, parser: QuestionParser) -> ParsedQuery | None:
    """Normal form of a sub-task input.

    Structured inputs are canonicalized exactly the way the adapter + question
    parser round trip would render them (in particular: best_text_match keeps
    its center word iff the options are attribute tokens), so training-time
    keys from sub-question text coincide with evaluation-time keys from
    structured arguments.
    """
    if inp.module_kind == "verify_property" and inp.object_name is not None:
        return VerifyAttribute(inp.object_name, inp.attribute or "")
    if inp.module_kind == "best_text_match" and inp.options is not None:
        adjective = all(o in parser.attributes for o in inp.options)
        center = inp.center_word if adjective else None
        return ChooseOption(tuple(inp.options), center)
    if inp.question is not None:
        return parser.parse(inp.question)
    return None


def answer_query(scene: SceneGraph, patch: ScenePatch,
                 query: ParsedQuery | None, world: WorldConfig) -> str:
    if query is None:
        return UNKNOWN
    if isinstance(query, TemplateQuery):
        return evaluate_template(scene, patch.visible_objects, query, world)
    return oracle_answer(scene, patch, query, world.attribute_families)


# ---------------------------------------------------------------------------
# Detector (find / exists) — fixed, never distilled
# ---------------------------------------------------------------------------

class DetectorBackend:
    """Geometry-faithful detector with a configurable deterministic miss rate.

    Misses are drawn per (scene, object), not per query, so repeated finds
    agree. Returned patches never violate the visibility overlap rule.
    """

    trainable = False

    def __init__(self, store: WorldStore, miss_rate: float = 0.0, seed: int = 0):
        self.store = store
        self.miss_rate = miss_rate
        self.seed = seed
        self.name = f"detector(miss={miss_rate})"

    def _missed(self, scene_id: str, object_id: str) -> bool:
        if self.miss_rate <= 0.0:
            return False
        return stable_unit("miss", self.seed, scene_id, object_id) < self.miss_rate

    def predict(self, inp: SubTaskInput) -> Prediction:
        if inp.module_kind == "find":
            receiver = inp.patch
            if not isinstance(receiver, ScenePatch):
                raise BackendError("find expects a patch receiver")
            scene = self.store.get(receiver.scene_id)
            name = inp.object_name or ""
            patches = []
            for oid in sorted(receiver.visible_objects):
                obj = scene.object_by_id(oid)
                if obj.name != name or self._missed(scene.scene_id, oid):
                    continue
                patches.append(crop(scene, obj.bbox, origin_label=name))
            result = PatchList(tuple(patches), origin_label=name)
            return Prediction(result)
        if inp.module_kind == "exists":
            receiver = inp.patch
            if isinstance(receiver, PatchList):
                answer = len(receiver) > 0
            elif isinstance(receiver, ScenePatch):
                answer = True
            else:
                raise BackendError("exists expects a patch or patch list")
            return Prediction(answer, {"yes" if answer else "no": 1.0})
        raise BackendError(f"detector cannot serve {inp.module_kind}")


# ---------------------------------------------------------------------------
# Oracle teacher
# ---------------------------------------------------------------------------

class OracleBackend:
    """Answers exactly from the ground-truth scene graph; the desk-scale
    teacher. Accepts structured arguments (registry dispatch) or bare
    sub-question text (teacher queries during harvesting)."""

    trainable = False

    def __init__(self, store: WorldStore, world: WorldConfig,
                 parser: QuestionParser | None = None):
        self.store = store
        self.world = world
        self.parser = parser or QuestionParser(world)
        self.name = "oracle"

    def predict(self, inp: SubTaskInput) -> Prediction:
        patch = inp.patch
        if not isinstance(patch, ScenePatch):
            raise BackendError(f"{inp.module_kind} expects a single patch")
        scene = self.store.get(patch.scene_id)
        query = resolve_query(inp, self.parser)
        answer = answer_query(scene, patch, query, self.world)
        return Prediction(answer, {answer: 1.0})


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

    trainable = False

    def __init__(self, store: WorldStore, world: WorldConfig,
                 profile: CorruptionProfile,
                 parser: QuestionParser | None = None):
        self.store = store
        self.world = world
        self.profile = profile
        self.parser = parser or QuestionParser(world)
        self.name = f"corrupted(rho={profile.rho},seed={profile.seed})"

    def question_key(self, inp: SubTaskInput) -> str:
        query = resolve_query(inp, self.parser)
        return query_key(query, raw_text=inp.question or "")

    def perceived_signature(self, inp: SubTaskInput) -> str:
        """Sorted multiset of (name, attribute set) visible in the patch, seen
        through the label permutations when the question key is corrupted."""
        patch = inp.patch
        if not isinstance(patch, ScenePatch):
            raise BackendError(f"{inp.module_kind} expects a single patch")
        scene = self.store.get(patch.scene_id)
        corrupted = self.profile.corrupts(self.question_key(inp))
        entries = []
        for oid in patch.visible_objects:
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
        return f"{inp.module_kind}|{self.question_key(inp)}|{self.perceived_signature(inp)}"

    def predict(self, inp: SubTaskInput) -> Prediction:
        patch = inp.patch
        if not isinstance(patch, ScenePatch):
            raise BackendError(f"{inp.module_kind} expects a single patch")
        scene = self.store.get(patch.scene_id)
        query = resolve_query(inp, self.parser)
        answer = answer_query(scene, patch, query, self.world)
        if self.profile.corrupts(query_key(query, raw_text=inp.question or "")):
            answer = self.profile.permute(answer, answer_support(query, self.world))
        return Prediction(answer, {answer: 1.0})


# ---------------------------------------------------------------------------
# Table students (the distillable backends)
# ---------------------------------------------------------------------------

STUDENT_FILE_VERSION = 1


class TableStudent:
    """Count-model student: argmax over pseudo-label counts once a key has
    been seen at least tau times, exact fallback to the corrupted base below
    that. Ties break lexicographically; probabilities are add-alpha smoothed.
    """

    trainable = True

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

    def update(self, inp: SubTaskInput, pseudo_label: str,
               weight: float = 1.0) -> None:
        if self.frozen:
            raise PhaseError("student is frozen for evaluation")
        key = self.base.student_key(inp)
        counts = self.table.setdefault(key, {})
        counts[pseudo_label] = counts.get(pseudo_label, 0.0) + weight

    def freeze(self) -> None:
        self.frozen = True

    # -- prediction ---------------------------------------------------------

    def smoothed_distribution(self, inp: SubTaskInput,
                              extra_label: str | None = None) -> dict[str, float]:
        counts = self.table.get(self.base.student_key(inp), {})
        return self._smoothed(inp, counts, extra_label)

    def _smoothed(self, inp: SubTaskInput, counts: Mapping[str, float],
                  extra_label: str | None = None) -> dict[str, float]:
        """Add-alpha distribution over the counted labels, the query's answer
        support and `extra_label`, in label order."""
        query = resolve_query(inp, self.base.parser)
        support = set(counts) | set(answer_support(query, self.base.world))
        if extra_label is not None:
            support.add(extra_label)
        total = sum(counts.values())
        denom = total + self.alpha * len(support)
        if denom <= 0:
            return {}
        return {label: (counts.get(label, 0.0) + self.alpha) / denom
                for label in sorted(support)}

    def label_probability(self, inp: SubTaskInput, label: str) -> float:
        dist = self.smoothed_distribution(inp, extra_label=label)
        return dist.get(label, 0.0)

    def predict(self, inp: SubTaskInput) -> Prediction:
        counts = self.table.get(self.base.student_key(inp))
        if counts and sum(counts.values()) >= self.tau:
            best = min(counts, key=lambda label: (-counts[label], label))
            return Prediction(best, self._smoothed(inp, counts))
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

    find and exists must be served by the detector; replace() only accepts the
    three distillable kinds and returns a new registry that shares this one's
    dispatch memo.
    """

    def __init__(self, bindings: Mapping[str, object],
                 memo: dict | None = None):
        missing = [k for k in MODULE_KINDS if k not in bindings]
        if missing:
            raise RegistryError(f"unbound module kinds: {missing}")
        for kind in ("find", "exists"):
            if not isinstance(bindings[kind], DetectorBackend):
                raise RegistryError(f"{kind} must be bound to the detector")
        self._bindings = dict(bindings)
        self._memo = {} if memo is None else memo

    def backend(self, kind: str):
        return self._bindings[kind]

    def replace(self, kind: str, backend) -> "ModuleRegistry":
        if kind not in DISTILLABLE_KINDS:
            raise RegistryError(f"{kind} cannot be replaced")
        bindings = dict(self._bindings)
        bindings[kind] = backend
        return ModuleRegistry(bindings, self._memo)

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
        if kind not in self._bindings:
            raise BackendError(f"unknown module kind {kind!r}")
        center = receiver.origin_label if isinstance(
            receiver, (ScenePatch, PatchList)) else None
        if kind == "find":
            if not isinstance(receiver, ScenePatch):
                raise BackendError("find expects a patch receiver")
            if len(args) != 1 or not isinstance(args[0], str):
                raise BackendError("find expects one string argument")
            inp = SubTaskInput("find", receiver, object_name=args[0])
            answer = self._bindings[kind].predict(inp).answer
            if not isinstance(answer, PatchList):
                raise BackendError("find backend returned a non patch list")
            return answer
        if kind == "exists":
            if not isinstance(receiver, (ScenePatch, PatchList)):
                raise BackendError("exists expects a patch or patch list")
            inp = SubTaskInput("exists", receiver)
            return bool(self._bindings[kind].predict(inp).answer)
        if kind == "verify_property":
            if not isinstance(receiver, ScenePatch):
                raise BackendError("verify_property expects a patch receiver")
            if (len(args) != 2 or not isinstance(args[0], str)
                    or not isinstance(args[1], str)):
                raise BackendError("verify_property expects two string arguments")
            inp = SubTaskInput("verify_property", receiver, object_name=args[0],
                               attribute=args[1], center_word=center)
            answer = self._bindings[kind].predict(inp).answer
            if isinstance(answer, bool):
                return answer
            return answer == "yes"
        if kind == "best_text_match":
            if not isinstance(receiver, ScenePatch):
                raise BackendError("best_text_match expects a patch receiver")
            if (len(args) != 1 or not isinstance(args[0], tuple)
                    or not args[0]
                    or not all(isinstance(o, str) for o in args[0])):
                raise BackendError("best_text_match expects a list of strings")
            inp = SubTaskInput("best_text_match", receiver,
                               options=tuple(args[0]), center_word=center)
            return str(self._bindings[kind].predict(inp).answer)
        if kind == "simple_query":
            if not isinstance(receiver, ScenePatch):
                raise BackendError("simple_query expects a patch receiver")
            if len(args) != 1 or not isinstance(args[0], str):
                raise BackendError("simple_query expects one string argument")
            inp = SubTaskInput("simple_query", receiver, question=args[0],
                               center_word=center)
            return str(self._bindings[kind].predict(inp).answer)
        raise BackendError(f"unknown module kind {kind!r}")


# ---------------------------------------------------------------------------
# Registry builders
# ---------------------------------------------------------------------------

def baseline_registry(store: WorldStore, world: WorldConfig,
                      profile: CorruptionProfile, miss_rate: float = 0.05,
                      detector_seed: int = 11) -> ModuleRegistry:
    """Pre-distillation framework: fixed detector plus corrupted students."""
    parser = QuestionParser(world)
    detector = DetectorBackend(store, miss_rate=miss_rate, seed=detector_seed)
    student = CorruptedBackend(store, world, profile, parser)
    return ModuleRegistry({
        "find": detector,
        "exists": detector,
        "verify_property": student,
        "best_text_match": student,
        "simple_query": student,
    })


def oracle_registry(store: WorldStore, world: WorldConfig,
                    miss_rate: float = 0.05,
                    detector_seed: int = 11) -> ModuleRegistry:
    """Teacher replacement: distillable kinds answered by the teacher
    directly; find stays the detector."""
    parser = QuestionParser(world)
    detector = DetectorBackend(store, miss_rate=miss_rate, seed=detector_seed)
    oracle = OracleBackend(store, world, parser)
    return ModuleRegistry({
        "find": detector,
        "exists": detector,
        "verify_property": oracle,
        "best_text_match": oracle,
        "simple_query": oracle,
    })


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
    parser = QuestionParser(world)
    out = {}
    for kind in DISTILLABLE_KINDS:
        base = CorruptedBackend(store, world, profile, parser)
        out[kind] = TableStudent(kind, base, tau=tau, alpha=alpha)
    return out


def consistency_verifier(store: WorldStore, world: WorldConfig):
    """Check used at generation time: the program, run with miss-free oracle
    modules, must return the ground truth."""
    registry = perfect_registry(store, world)

    def verify(qa: QAPair) -> bool:
        scene = store.get(qa.scene_id)
        try:
            program = parse(qa.program)
        except Exception:
            return False
        trace = execute(program, scene, registry, qa.question_id)
        answer = answer_to_text(trace.answer)
        if answer is None:
            return False
        return answer.strip().casefold() == qa.ground_truth.strip().casefold()

    return verify
