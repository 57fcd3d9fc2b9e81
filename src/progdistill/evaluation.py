"""Composite-task evaluation, ablations, transfer experiments, error
taxonomy, and before/after case reports.

Accounting follows the All / No-NaN convention: NaN predictions always count
wrong in acc_all and are excluded from the acc_no_nan denominator. Answer
comparison is exact match after case folding and whitespace trimming.

Evaluation is read-only over the registry and scenes, and runs every
question's program in turn, in input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .backends import (CorruptionProfile, ModuleRegistry, TableStudent,
                       baseline_registry, consistency_verifier,
                       distilled_registry, fresh_students, perfect_registry)
from .dsl import Call, ParseError, parse
from .distill import Triple, train
from .interpreter import (ExecutionTrace, STATUS_FALLBACK, STATUS_NAN,
                          answer_to_text, run_with_fallback)
from .questions import (DISTILLABLE_KINDS, GenConfig, GroundingCase, QAPair,
                        generate_qa)
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
        return {
            "total": self.total,
            "correct": self.correct,
            "nan_count": self.nan_count,
            "acc_all": self.acc_all,
            "acc_no_nan": self.acc_no_nan,
            "per_question_type": {k: dict(v) for k, v in
                                  sorted(self.per_question_type.items())},
            "error_taxonomy": dict(sorted(self.error_taxonomy.items())),
            "metadata": dict(sorted(self.metadata.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(total=d["total"], correct=d["correct"],
                   nan_count=d["nan_count"], acc_all=d["acc_all"],
                   acc_no_nan=d["acc_no_nan"],
                   per_question_type=d.get("per_question_type", {}),
                   error_taxonomy=d.get("error_taxonomy", {}),
                   metadata=d.get("metadata", {}))

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

    def walk(expr) -> bool:
        if isinstance(expr, Call):
            if expr.module_kind in ("verify_property", "best_text_match"):
                return False
            if not walk(expr.receiver):
                return False
            return all(walk(a) for a in expr.args)
        for attr in ("target", "operand", "left", "right"):
            child = getattr(expr, attr, None)
            if child is not None and not walk(child):
                return False
        return True

    def walk_stmts(stmts) -> bool:
        for stmt in stmts:
            for attr in ("expr", "cond"):
                child = getattr(stmt, attr, None)
                if child is not None and not walk(child):
                    return False
            for attr in ("then_body", "else_body"):
                body = getattr(stmt, attr, None)
                if body and not walk_stmts(body):
                    return False
        return True

    for qa in qapairs:
        try:
            program = parse(qa.program)
        except ParseError:
            continue  # will take the fallback path, which is simple_query only
        if not walk_stmts(program.statements):
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
    oracle on the same (patch, structured query); fallback runs count as
    parse_fallback, and failures with no divergence as program logic errors.

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
            expected = oracle.dispatch(step.module_kind, step.receiver, step.args)
            actual = step.output
            if step.module_kind == "find":
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

def _combo_registry(base: ModuleRegistry, students: Mapping[str, TableStudent],
                    combo: Sequence[str]) -> ModuleRegistry:
    registry = base
    for kind in combo:
        registry = registry.replace(kind, students[kind])
    return registry


def ablate_distilled_count(base: ModuleRegistry,
                           students: Mapping[str, TableStudent],
                           eval_set: Sequence[QAPair],
                           store: WorldStore) -> dict:
    """Four rows for 0/1/2/3 distilled modules. Rows 1 and 2 average the three
    single- and pair-substitution runs."""
    for student in students.values():
        student.freeze()
    kinds = [k for k in DISTILLABLE_KINDS if k in students]
    combos: dict[int, list[tuple[str, ...]]] = {
        0: [()],
        1: [(k,) for k in kinds],
        2: list(combinations(kinds, 2)),
        3: [tuple(kinds)],
    }
    runs: dict[str, dict] = {}
    rows = []
    for count in sorted(combos):
        accs_all = []
        accs_no_nan = []
        for combo in combos[count]:
            registry = _combo_registry(base, students, combo)
            report = evaluate(registry, eval_set, store)
            label = "+".join(combo) if combo else "none"
            runs[f"dp{count}:{label}"] = {"acc_all": report.acc_all,
                                          "acc_no_nan": report.acc_no_nan}
            accs_all.append(report.acc_all)
            accs_no_nan.append(report.acc_no_nan)
        rows.append({
            "distilled_count": count,
            "acc_all": sum(accs_all) / len(accs_all),
            "acc_no_nan": sum(accs_no_nan) / len(accs_no_nan),
        })
    return {"rows": rows, "runs": dict(sorted(runs.items()))}


def ablate_trainset_size(sizes: Sequence[int], triples: Sequence[Triple],
                         base: ModuleRegistry, store: WorldStore,
                         world: WorldConfig, profile: CorruptionProfile,
                         eval_set: Sequence[QAPair], tau: int = 3,
                         alpha: float = 1.0, seed: int = 0) -> dict:
    """Nested training subsets (each smaller set contained in every larger
    one); one distillation plus evaluation per size."""
    import random as _random
    order = list(range(len(triples)))
    _random.Random(f"subset:{seed}").shuffle(order)
    curve = []
    for size in sorted(sizes):
        size = min(size, len(triples))
        subset = [triples[i] for i in order[:size]]
        students = fresh_students(store, world, profile, tau=tau, alpha=alpha)
        train(students, subset, store, seed=seed)
        report = evaluate(distilled_registry(base, students), eval_set, store)
        curve.append({"size": size, "acc_all": report.acc_all,
                      "acc_no_nan": report.acc_no_nan})
    return {"curve": curve}


def cross_framework(base: ModuleRegistry, student_path,
                    coarse_eval: Sequence[QAPair], store: WorldStore,
                    world: WorldConfig, visual_pointer: bool) -> dict:
    """Coarse framework, the baseline registry `base` vs `base` with a
    transplanted distilled simple_query student loaded from serialized state
    (not retrained). `visual_pointer` is the setting the questions were
    generated under; both reports record it."""
    student = TableStudent.load(student_path, store, world)
    if student.module_kind != "simple_query":
        raise ValueError("cross-framework transplant expects the simple_query student")
    student.freeze()
    registries = {"baseline": base,
                  "transplanted": base.replace("simple_query", student)}
    return {name: evaluate(registry, coarse_eval, store, coarse=True,
                           world=world,
                           metadata={"mode": f"coarse_{name}",
                                     "visual_pointer": visual_pointer})
            for name, registry in registries.items()}


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
                          profile: CorruptionProfile, gen_config: GenConfig,
                          seed: int, miss_rate: float = 0.05,
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
    from dataclasses import replace as _replace

    verifier = consistency_verifier(store, world)
    vp_config = _replace(gen_config, visual_pointer=True)
    plain_config = _replace(gen_config, visual_pointer=False)

    vp_qas: list[QAPair] = []
    plain_qas: list[QAPair] = []
    for scene_id in store.ids():
        scene = store.get(scene_id)
        vp_qas.extend(generate_qa(scene, vp_config, seed, verifier=verifier))
        plain_qas.extend(generate_qa(scene, plain_config, seed))
    vp_by_id = {qa.question_id: qa for qa in vp_qas}
    plain_by_id = {qa.question_id: qa for qa in plain_qas}
    shared = sorted(set(vp_by_id) & set(plain_by_id))

    probe_profile = CorruptionProfile(seed=profile.seed, rho=0.0)
    registry = baseline_registry(store, world, probe_profile,
                                 miss_rate=miss_rate,
                                 detector_seed=detector_seed)
    results = {}
    traces_vp = {}
    for arm, by_id in (("vp", vp_by_id), ("plain", plain_by_id)):
        outcomes = {}
        for qid in shared:
            qa = by_id[qid]
            trace = run_with_fallback(qa.program, qa.question,
                                      store.get(qa.scene_id), registry, qid)
            outcomes[qid] = question_correct(qa, trace)[0]
            if arm == "vp":
                traces_vp[qid] = trace
        results[arm] = outcomes

    ambiguous = [qid for qid in shared if _touches_ambiguous_patch(traces_vp[qid])]
    def acc(arm: str, qids: Sequence[str]) -> float:
        if not qids:
            return 0.0
        return sum(1 for qid in qids if results[arm][qid]) / len(qids)

    return {
        "paired_questions": len(shared),
        "ambiguous_count": len(ambiguous),
        "acc_vp_ambiguous": acc("vp", ambiguous),
        "acc_plain_ambiguous": acc("plain", ambiguous),
        "gap_ambiguous": acc("vp", ambiguous) - acc("plain", ambiguous),
        "acc_vp_all": acc("vp", shared),
        "acc_plain_all": acc("plain", shared),
    }


def _touches_ambiguous_patch(trace: ExecutionTrace) -> bool:
    for step in trace.steps:
        receiver = step.receiver
        if (isinstance(receiver, ScenePatch) and receiver.origin_label is not None
                and len(receiver.visible_objects) >= 2):
            return True
    return False


# ---------------------------------------------------------------------------
# Case reports (before/after trace diff)
# ---------------------------------------------------------------------------

def case_report(qa: QAPair, before: ModuleRegistry, after: ModuleRegistry,
                store: WorldStore, before_name: str = "before",
                after_name: str = "after") -> str:
    """Side-by-side step outputs, branch decisions, and final answers for one
    question under two registries."""
    scene = store.get(qa.scene_id)
    trace_a = run_with_fallback(qa.program, qa.question, scene, before,
                                qa.question_id)
    trace_b = run_with_fallback(qa.program, qa.question, scene, after,
                                qa.question_id)
    lines = [
        f"question {qa.question_id} [{qa.question_type}]",
        f"  text:         {qa.question}",
        f"  ground truth: {qa.ground_truth}",
        "  program:",
    ]
    for src_line in qa.program.rstrip("\n").splitlines():
        lines.append(f"    {src_line}")
    lines.append("")
    width = max(len(before_name), len(after_name))
    for name, trace in ((before_name, trace_a), (after_name, trace_b)):
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
    verdicts = []
    for name, trace in ((before_name, trace_a), (after_name, trace_b)):
        ok, _ = question_correct(qa, trace)
        verdicts.append(f"{name}: {'correct' if ok else 'wrong'}")
    lines.append("  verdict: " + "; ".join(verdicts))
    return "\n".join(lines) + "\n"
