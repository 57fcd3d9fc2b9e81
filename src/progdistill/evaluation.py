"""Composite-task evaluation, the distilled-count and visual-pointer
ablations, grounding, error taxonomy, and before/after case reports.

Accounting follows the All / No-NaN convention: NaN predictions always count
wrong in acc_all and are excluded from the acc_no_nan denominator. Answer
comparison is exact match after case folding and whitespace trimming.

Evaluation is read-only over the registry and scenes, and runs every
question's program in turn, in input order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .backends import (BackendError, CorruptionProfile, ModuleRegistry,
                       TableStudent, baseline_registry, distilled_registry,
                       perfect_registry)
from .dsl import ParseError, parse
from .interpreter import (ExecutionTrace, STATUS_FALLBACK, STATUS_NAN,
                          answer_to_text, run_with_fallback)
from .questions import (DISTILLABLE_KINDS, GroundingCase, QAPair,
                        generate_qa)
from .util import mean
from .worlds import PatchList, ScenePatch, WorldConfig, WorldStore, rect_iou

TAXONOMY_KEYS = ("find_error", "verify_property_error", "best_text_match_error",
                 "simple_query_error", "program_logic_error", "parse_fallback")


@dataclass
class EvalReport:
    total: int
    correct: int
    nan_count: int
    acc_all: float
    acc_no_nan: float
    per_question_type: dict[str, dict] = field(default_factory=dict)
    error_taxonomy: dict[str, int] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(**d)

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["metric", "value"],
                            ["total", self.total],
                            ["correct", self.correct],
                            ["nan_count", self.nan_count],
                            ["acc_all", f"{self.acc_all:.6f}"],
                            ["acc_no_nan", f"{self.acc_no_nan:.6f}"]]
        for qtype, entry in sorted(self.per_question_type.items()):
            rows.append([f"acc[{qtype}]", f"{entry['acc']:.6f}"])
        for key, count in sorted(self.error_taxonomy.items()):
            rows.append([f"errors[{key}]", count])
        return rows

    def to_text(self) -> str:
        lines = [
            f"questions      {self.total}",
            f"correct        {self.correct}",
            f"nan            {self.nan_count}",
            f"acc (All)      {100.0 * self.acc_all:6.2f}%",
            f"acc (No NaN)   {100.0 * self.acc_no_nan:6.2f}%",
        ]
        if self.per_question_type:
            lines.append("per question type:")
            for qtype, entry in sorted(self.per_question_type.items()):
                lines.append(f"  {qtype:<22} {100.0 * entry['acc']:6.2f}%"
                             f"  ({entry['correct']}/{entry['total']})")
        if self.error_taxonomy:
            lines.append("error taxonomy (all failures):")
            for key in TAXONOMY_KEYS:
                if key in self.error_taxonomy:
                    lines.append(f"  {key:<24} {self.error_taxonomy[key]}")
        return "\n".join(lines) + "\n"


def normalize_answer(text: str) -> str:
    return text.strip().casefold()


def question_correct(qa: QAPair, trace: ExecutionTrace) -> tuple[bool, bool]:
    """(correct, is_nan). NaN is never correct."""
    answer = answer_to_text(trace.answer)
    if answer is None or trace.status == STATUS_NAN:
        return False, True
    return normalize_answer(answer) == normalize_answer(qa.ground_truth), False


# ---------------------------------------------------------------------------
# Program execution over an eval set
# ---------------------------------------------------------------------------

def run_programs(qapairs: Sequence[QAPair], store: WorldStore,
                 registry: ModuleRegistry) -> list[ExecutionTrace]:
    """Execute every question's program (with parse-error fallback), in input
    order."""
    return [run_with_fallback(qa.program, qa.question, store.get(qa.scene_id),
                              registry, qa.question_id)
            for qa in qapairs]


def score(qapairs: Sequence[QAPair], traces: Sequence[ExecutionTrace],
          metadata: Mapping | None = None, store: WorldStore | None = None,
          world: WorldConfig | None = None) -> EvalReport:
    """Accounting over paired (question, trace) lists; with `world` (and the
    `store` the traces ran over) it also attributes every failure through
    error_taxonomy.

    Identity maintained exactly: correct + wrong_non_nan + nan == total.
    """
    if len(qapairs) != len(traces):
        raise ValueError("one trace per question required")
    total = len(qapairs)
    correct = 0
    nan_count = 0
    per_type: dict[str, dict] = {}
    failures = []
    for qa, trace in zip(qapairs, traces):
        ok, is_nan = question_correct(qa, trace)
        entry = per_type.setdefault(qa.question_type,
                                    {"total": 0, "correct": 0, "acc": 0.0})
        entry["total"] += 1
        if not ok:
            failures.append((qa, trace))
        if is_nan:
            nan_count += 1
        elif ok:
            correct += 1
            entry["correct"] += 1
    for entry in per_type.values():
        entry["acc"] = entry["correct"] / entry["total"] if entry["total"] else 0.0
    acc_all = correct / total if total else 0.0
    denom = total - nan_count
    acc_no_nan = correct / denom if denom else 0.0
    taxonomy = {} if world is None else error_taxonomy(failures, store, world)
    return EvalReport(total=total, correct=correct, nan_count=nan_count,
                      acc_all=acc_all, acc_no_nan=acc_no_nan,
                      per_question_type=per_type, error_taxonomy=taxonomy,
                      metadata=dict(metadata or {}))


def validate_coarse_programs(qapairs: Sequence[QAPair]) -> None:
    """Coarse-framework programs must not call verify_property or
    best_text_match."""
    for qa in qapairs:
        try:
            program = parse(qa.program)
        except ParseError:
            continue  # will take the fallback path, which is simple_query only
        if program.module_kinds & {"verify_property", "best_text_match"}:
            raise ValueError(
                f"{qa.question_id}: coarse program calls a fine-grained module")


def evaluate(registry: ModuleRegistry, eval_set: Sequence[QAPair],
             store: WorldStore, coarse: bool = False,
             world: WorldConfig | None = None,
             metadata: Mapping | None = None) -> EvalReport:
    """Run the eval set under `registry` and account results; the coarse
    framework's programs must call no fine-grained module. The error
    taxonomy runs when `world` is given."""
    if coarse:
        validate_coarse_programs(eval_set)
    traces = run_programs(eval_set, store, registry)
    meta = {"framework": "coarse" if coarse else "fine",
            "bindings": registry.describe(), **(metadata or {})}
    return score(eval_set, traces, metadata=meta, store=store, world=world)


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

def error_taxonomy(failures: Sequence[tuple[QAPair, ExecutionTrace]],
                   store: WorldStore, world: WorldConfig) -> dict[str, int]:
    """Attribute each failed question to its first step that diverges from the
    oracle on the same call; fallback runs count as parse_fallback, and
    failures with no divergence as program logic errors.

    Each step is replayed through the all-oracle registry; find outputs are
    compared by their sorted patch regions. Replay is deterministic given the
    trace and scene.
    """
    oracle = perfect_registry(store, world)
    counts = {key: 0 for key in TAXONOMY_KEYS}
    for qa, trace in failures:
        if trace.fallback or trace.status == STATUS_FALLBACK:
            counts["parse_fallback"] += 1
            continue
        attributed = None
        for step in trace.steps:
            try:
                expected = oracle.dispatch(step.module_kind, step.receiver,
                                           step.args)
            except BackendError:
                # A stored trace may hold a call that an earlier version
                # answered and dispatch now refuses: it diverges.
                expected = None
            actual = step.output
            if step.module_kind == "find" and expected is not None:
                expected = sorted(p.region for p in expected)
                actual = sorted(p.region for p in actual)
            if expected != actual:
                if step.module_kind in ("find", "exists"):
                    attributed = "find_error"
                else:
                    attributed = f"{step.module_kind}_error"
                break
        counts[attributed or "program_logic_error"] += 1
    return counts


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def ablate_distilled_count(base: ModuleRegistry,
                           students: Mapping[str, TableStudent],
                           eval_set: Sequence[QAPair],
                           store: WorldStore) -> dict:
    """One row per number of distilled modules, from none to every student;
    each row averages the runs over every choice of that many students."""
    kinds = [k for k in DISTILLABLE_KINDS if k in students]
    runs: dict[str, dict] = {}
    rows = []
    for count in range(len(kinds) + 1):
        accs_all = []
        accs_no_nan = []
        for combo in combinations(kinds, count):
            registry = distilled_registry(base, {k: students[k] for k in combo})
            report = evaluate(registry, eval_set, store)
            label = "+".join(combo) if combo else "none"
            runs[f"dp{count}:{label}"] = {"acc_all": report.acc_all,
                                          "acc_no_nan": report.acc_no_nan}
            accs_all.append(report.acc_all)
            accs_no_nan.append(report.acc_no_nan)
        rows.append({
            "distilled_count": count,
            "acc_all": mean(accs_all),
            "acc_no_nan": mean(accs_no_nan),
        })
    return {"rows": rows, "runs": dict(sorted(runs.items()))}


def grounding_eval(registry: ModuleRegistry, cases: Sequence[GroundingCase],
                   store: WorldStore) -> dict:
    """Mean IoU between each returned patch region and the ground-truth box.
    NaN traces and non-patch answers score 0."""
    per_case = []
    total = 0.0
    for case in cases:
        trace = run_with_fallback(case.program, case.expression,
                                  store.get(case.scene_id), registry,
                                  case.case_id)
        if isinstance(trace.answer, ScenePatch):
            iou = rect_iou(trace.answer.region, case.target_bbox)
        else:
            iou = 0.0
        total += iou
        per_case.append({"case_id": case.case_id, "iou": iou,
                         "status": trace.status})
    mean_iou = total / len(cases) if cases else 0.0
    return {"mean_iou": mean_iou, "cases": per_case}


def visual_pointer_effect(store: WorldStore, world: WorldConfig,
                          profile: CorruptionProfile,
                          questions_per_scene: tuple[int, int], seed: int,
                          miss_rate: float = 0.05,
                          detector_seed: int = 11) -> dict:
    """Zero-shot pointer comparison on the ambiguous-patch subset.

    Generates paired question sets (pointer on/off share question ids), runs
    both under corruption-free modules, and compares accuracy on questions
    whose trace touched a find-patch showing two or more objects.

    The probe zeroes the corruption rate: pointered and pointer-less question
    forms are distinct corruption keys, so leaving corruption on would compare
    two different key lotteries instead of the pointer mechanism itself
    (ambiguous patches resolving to the wrong object).
    """
    arms = {arm: {qa.question_id: qa for scene_id in store.ids()
                  for qa in generate_qa(store.get(scene_id), world, seed,
                                        questions_per_scene,
                                        visual_pointer=pointer)}
            for arm, pointer in (("vp", True), ("plain", False))}
    shared = sorted(set(arms["vp"]) & set(arms["plain"]))

    probe_profile = CorruptionProfile(seed=profile.seed, rho=0.0)
    registry = baseline_registry(store, world, probe_profile,
                                 miss_rate=miss_rate,
                                 detector_seed=detector_seed)
    correct = {}
    for arm, by_id in arms.items():
        qas = [by_id[qid] for qid in shared]
        traces = run_programs(qas, store, registry)
        correct[arm] = [question_correct(qa, trace)[0]
                        for qa, trace in zip(qas, traces)]
        if arm == "vp":
            ambiguous = [i for i, trace in enumerate(traces)
                         if _touches_ambiguous_patch(trace)]
        del traces  # hold one arm's traces at a time

    def acc(arm: str, indices: Sequence[int]) -> float:
        hits = sum(correct[arm][i] for i in indices)
        return hits / len(indices) if indices else 0.0

    everything = range(len(shared))
    return {
        "paired_questions": len(shared),
        "ambiguous_count": len(ambiguous),
        "acc_vp_ambiguous": acc("vp", ambiguous),
        "acc_plain_ambiguous": acc("plain", ambiguous),
        "gap_ambiguous": acc("vp", ambiguous) - acc("plain", ambiguous),
        "acc_vp_all": acc("vp", everything),
        "acc_plain_all": acc("plain", everything),
    }


def _touches_ambiguous_patch(trace: ExecutionTrace) -> bool:
    for step in trace.steps:
        receiver = step.receiver
        if (isinstance(receiver, ScenePatch) and receiver.origin_label is not None
                and len(receiver.visible_objects) >= 2):
            return True
    return False


# ---------------------------------------------------------------------------
# Case reports (stored-trace diff)
# ---------------------------------------------------------------------------

def case_report(qa: QAPair, traces: Mapping[str, ExecutionTrace]) -> str:
    """Side-by-side step outputs, branch decisions, and final answers of
    stored traces of one question, keyed by the framework that ran them. The
    first trace's program is listed; another trace's program is listed too
    when it differs."""
    (_, first), *others = traces.items()
    listings = [("program", first.source)] + [
        (f"program ({name})", trace.source) for name, trace in others
        if trace.source != first.source]
    lines = [
        f"question {qa.question_id} [{qa.question_type}]",
        f"  text:         {qa.question}",
        f"  ground truth: {qa.ground_truth}",
    ]
    for label, source in listings:
        lines.append(f"  {label}:")
        lines.extend(f"    {src_line}"
                     for src_line in source.rstrip("\n").splitlines())
    lines.append("")
    width = max(len(name) for name in traces)
    for name, trace in traces.items():
        lines.append(f"  [{name:<{width}}] status={trace.status} "
                     f"branches={list(trace.branch_decisions)} "
                     f"answer={answer_to_text(trace.answer)!r}")
        for step in trace.steps:
            out = step.output
            if isinstance(out, PatchList):
                shown = f"{len(out)} patch(es)"
            elif isinstance(out, ScenePatch):
                shown = f"patch{out.region}"
            else:
                shown = repr(out)
            lines.append(f"      step {step.step_index}: {step.module_kind}"
                         f"({', '.join(repr(a) for a in step.args)}) -> {shown}")
    lines.append("  verdict: " + "; ".join(
        f"{name}: {'correct' if question_correct(qa, trace)[0] else 'wrong'}"
        for name, trace in traces.items()))
    return "\n".join(lines) + "\n"
