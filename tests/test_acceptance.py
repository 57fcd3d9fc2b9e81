"""Acceptance gate: every criterion runs at its stated tolerance against real
pipeline artifacts (default desk scale: 1,000 scenes, ~10k questions,
corruption rho=0.3, detector miss rate 0.05) and prints one line per
criterion. Accuracy tolerances are in accuracy points on a 0..1 scale
(3 points = 0.03).
"""

import json
import math
import random

import pytest

from progdistill.adapter import (adapt_best_text_match, adapt_simple_query,
                                 adapt_verify_property)
from progdistill.backends import (CorruptedBackend, CorruptionProfile,
                                  OracleBackend, TableStudent,
                                  baseline_registry)
from progdistill.datasets import balance_detailed
from progdistill.dsl import ParseError, parse
from progdistill.evaluation import EvalReport
from progdistill.interpreter import STATUS_FALLBACK, run_with_fallback
from progdistill.pipeline import PipelineConfig, run_full_recipe
from progdistill.questions import QAPair, generate_qa
from progdistill.worlds import (SceneGraph, SceneObject, WorldConfig, crop,
                                generate_world)

from conftest import store_for

POINT = 0.01  # one accuracy point


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


@pytest.fixture(scope="session")
def recipe(tmp_path_factory):
    """One full default-scale pipeline run shared by the criteria."""
    cfg = PipelineConfig()
    run = run_full_recipe(tmp_path_factory.mktemp("recipe"), cfg)
    return cfg, run


def _eval_report(run, name: str) -> EvalReport:
    return EvalReport.from_dict(
        json.loads(run.eval_file(name).read_text(encoding="utf-8")))


def test_c01_adapter_golden_strings():
    attrs = {"red", "blue", "green", "small", "large"}
    assert adapt_verify_property("flower", "red") == "Is this flower red?"
    assert adapt_best_text_match(["bread", "sandwich"], center="food",
                                 plural=False, attribute_vocab=attrs) == \
        "Is this a bread or sandwich?"
    assert adapt_simple_query("What color is this table") == \
        "What color is this table?"
    _passed(1, "adapter golden strings, byte-exact")


def test_c02_ordering_chain(recipe):
    _, run = recipe
    baseline = _eval_report(run, "baseline")
    distilled = _eval_report(run, "distilled")
    teacher = _eval_report(run, "teacher-replacement")
    oracle = _eval_report(run, "all-oracle")
    assert baseline.acc_all < distilled.acc_all < teacher.acc_all <= oracle.acc_all
    assert distilled.acc_all - baseline.acc_all >= 3 * POINT
    assert teacher.acc_all - distilled.acc_all >= 3 * POINT
    assert oracle.acc_all >= 0.99
    _passed(2, "ordering chain baseline < distilled < teacher-replacement "
               "<= all-oracle, gaps >= 3 points")


def test_c03_visual_pointer_effect(recipe):
    cfg, run = recipe
    assert cfg.vp_probe_ambiguity == 0.4
    data = json.loads(run.ablation_file("visual-pointer").read_text())
    assert data["ambiguous_count"] >= 50
    assert data["acc_vp_ambiguous"] >= data["acc_plain_ambiguous"]
    assert data["acc_vp_ambiguous"] - data["acc_plain_ambiguous"] >= 1 * POINT
    _passed(3, "visual pointer gap >= 1 point on ambiguous patches at "
               "ambiguity 0.4")


def test_c04_distilled_count_monotonicity(recipe):
    _, run = recipe
    data = json.loads(run.ablation_file("distilled-count").read_text())
    rows = data["rows"]
    assert [row["distilled_count"] for row in rows] == [0, 1, 2, 3]
    accs = [row["acc_all"] for row in rows]
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    assert accs[3] - accs[0] >= 5 * POINT
    singles = [v["acc_all"] for k, v in data["runs"].items()
               if k.startswith("dp1:")]
    assert len(singles) == 3
    assert rows[1]["acc_all"] == pytest.approx(sum(singles) / 3)
    _passed(4, "0/1/2/3 distilled modules non-decreasing, total gain >= 5 "
               "points, row 1 averages three single-substitution runs")


def test_c05_trainset_scaling(recipe):
    _, run = recipe
    data = json.loads(run.ablation_file("trainset-size").read_text())
    curve = data["curve"]
    assert len(curve) == 3
    sizes = [point["size"] for point in curve]
    assert sizes == sorted(sizes)
    assert sizes[1] / sizes[0] == pytest.approx(4.0, rel=0.05)
    assert sizes[2] / sizes[0] == pytest.approx(6.0, rel=0.05)
    accs = [point["acc_all"] for point in curve]
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    _passed(5, "nested 1:4:6 training subsets give non-decreasing accuracy")


def test_ablation_end_points_are_the_stored_evaluations(recipe):
    # No students and all three students are the baseline and distilled
    # registries; the curve's last point trains on every triple. So a curve
    # trained on no triples, or on all of them at every point, fails here.
    _, run = recipe
    accs = ("acc_all", "acc_no_nan")
    baseline, distilled = (json.loads(run.eval_file(name).read_text())
                           for name in ("baseline", "distilled"))
    rows = json.loads(run.ablation_file("distilled-count").read_text())["rows"]
    assert all(rows[0][k] == baseline[k] for k in accs)
    assert all(rows[-1][k] == distilled[k] for k in accs)
    curve = json.loads(run.ablation_file("trainset-size").read_text())["curve"]
    with run.triples.open(encoding="utf-8") as f:
        assert curve[-1]["size"] == sum(1 for _ in f)
    assert all(curve[-1][k] == distilled[k] for k in accs)
    sizes = [point["size"] for point in curve]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert any(curve[0][k] != curve[-1][k] for k in accs)


def test_c06_cross_framework_transfer(recipe):
    _, run = recipe
    assert run.student_file("simple_query").exists()  # serialized, not retrained
    data = json.loads(run.ablation_file("cross-framework").read_text())
    base, trans = data["baseline"], data["transplanted"]
    assert trans["acc_all"] - base["acc_all"] >= 3 * POINT
    assert trans["acc_no_nan"] - base["acc_no_nan"] >= 3 * POINT
    _passed(6, "transplanted simple_query student beats the coarse baseline "
               "by >= 3 points on acc_all and acc_no_nan")


def test_c07_grounding_non_degradation(recipe):
    _, run = recipe
    data = json.loads(run.grounding_file().read_text())
    assert data["distilled"]["mean_iou"] >= data["baseline"]["mean_iou"] - 1 * POINT
    _passed(7, "mean grounding IoU after distillation >= baseline - 1 point")


def test_c08_accounting_invariants(recipe):
    _, run = recipe
    report = _eval_report(run, "baseline")
    assert report.nan_count > 0
    wrong_non_nan = report.total - report.nan_count - report.correct
    assert wrong_non_nan >= 0
    assert report.correct + wrong_non_nan + report.nan_count == report.total
    assert report.acc_all == pytest.approx(report.correct / report.total)
    assert report.acc_no_nan == pytest.approx(
        report.correct / (report.total - report.nan_count))
    assert report.acc_no_nan >= report.acc_all
    _passed(8, "correct + wrong + nan == total and acc_no_nan >= acc_all")


def test_c09_fallback_behavior(recipe):
    cfg, _ = recipe
    from progdistill.worlds import WorldStore
    store = WorldStore()
    for i in range(cfg.train_scenes + cfg.eval_scenes):
        store.add(generate_world(3_000_000 + i, cfg.world))
    registry = baseline_registry(store, cfg.world, cfg.profile,
                                 miss_rate=cfg.miss_rate,
                                 detector_seed=cfg.detector_seed)
    total = 0
    corrupted = 0
    for sid in store.ids():
        scene = store.get(sid)
        for qa in generate_qa(scene, cfg.world, cfg.seed,
                              cfg.questions_per_scene, fault_rate=0.1):
            total += 1
            try:
                parse(qa.program)
                parses = True
            except ParseError:
                parses = False
            trace = run_with_fallback(qa.program, qa.question, scene, registry,
                                      qa.question_id)
            if not parses:
                corrupted += 1
                assert trace.status == STATUS_FALLBACK
                assert len(trace.steps) == 1
                step = trace.steps[0]
                assert step.module_kind == "simple_query"
                assert step.args == (qa.question,)
    assert total >= 10_000
    assert corrupted > 0
    _passed(9, f"{corrupted} corrupted programs out of {total} all took the "
               f"single simple_query fallback; zero interpreter crashes")


def test_c10_distillation_learnability_oracle():
    """Toy vocabulary with 20 keys: every key observed >= tau times matches
    the teacher, verified against an independent brute-force counter."""
    world = WorldConfig(
        nouns=("n0", "n1", "n2", "n3", "n4"),
        attribute_families={"color": ("c0", "c1"), "size": ("s0", "s1")},
        relations=("near",),
    )
    scenes = []
    for i, noun in enumerate(world.nouns):
        for j, color in enumerate(world.attribute_families["color"]):
            for k, size in enumerate(world.attribute_families["size"]):
                scenes.append(SceneGraph(f"toy{i}{j}{k}", (50, 50), (
                    SceneObject("o00", noun, frozenset({color, size}),
                                (5, 5, 12, 12)),
                ), seed=-1))
        # 5 nouns x 4 attribute combos = 20 object signatures
    store = store_for(*scenes)
    base = CorruptedBackend(store, world, CorruptionProfile(seed=13, rho=1.0))
    student = TableStudent("simple_query", base, tau=3)
    teacher = OracleBackend(store, world)

    from progdistill.backends import SubTaskInput
    inputs = []
    for scene in scenes:
        obj = scene.objects[0]
        patch = crop(scene, obj.bbox, obj.name)
        inputs.append(SubTaskInput("simple_query", patch,
                                   question=f"What color is this {obj.name}?"))
    assert len({base.student_key(inp) for inp in inputs}) == 20

    rng = random.Random("c10")
    brute: dict[str, dict[str, int]] = {}
    for _ in range(4):
        for inp in rng.sample(inputs, len(inputs)):
            label = teacher.predict(inp)
            student.update(inp, label)
            key = base.student_key(inp)
            brute.setdefault(key, {})
            brute[key][label] = brute[key].get(label, 0) + 1

    matched = 0
    for inp in inputs:
        counts = brute[base.student_key(inp)]
        assert sum(counts.values()) >= student.tau
        expected = min(counts, key=lambda lbl: (-counts[lbl], lbl))
        assert student.predict(inp) == expected
        assert student.predict(inp) == teacher.predict(inp)
        matched += 1
    assert matched == 20
    _passed(10, "distilled table matches the teacher on 100% of keys "
                "observed >= tau times (brute-force verified)")


def test_c11_dataset_rules(recipe):
    cfg, run = recipe
    assert cfg.per_type_cap == 160
    # cap enforcement on a constructed pool: 300 of one type -> exactly 160
    pool = [QAPair(f"s{i % 50}:q{i:04d}", "q?", "a", 'return "a"\n',
                   "attr_query", f"s{i % 50}") for i in range(300)]
    result = balance_detailed(pool, "train", 160, 0)
    assert result.phase_one_count == 160
    # the recipe's build reports the cap phases and proves disjointness
    manifest = json.loads(run.split_manifest.read_text())
    assert manifest["disjointness"]["shared_scene_ids"] == 0
    assert manifest["disjointness"]["shared_question_ids"] == 0
    for split in manifest["splits"].values():
        assert split["count"] == split["phase_one"] + split["phase_two"]
    val_ids = set(manifest["splits"]["val"]["question_ids"])
    test_ids = set(manifest["splits"]["test"]["question_ids"])
    assert not (val_ids & test_ids)
    _passed(11, "per-type cap (K=160) enforced; val/test disjointness "
                "machine-verified on the build")


def test_c12_full_recipe_determinism(recipe, tmp_path_factory):
    cfg, first = recipe
    second = run_full_recipe(tmp_path_factory.mktemp("recipe-again"),
                             PipelineConfig())
    compared = 0
    for name in ("report.md", "report_tables.csv", "trainset_curve.csv",
                 "eval_baseline.json", "eval_distilled.json",
                 "eval_teacher_replacement.json", "eval_all_oracle.json",
                 "split_manifest.json", "triples.jsonl",
                 "training_report.json", "ablate_distilled_count.json",
                 "ablate_trainset_size.json", "ablate_cross_framework.json",
                 "ablate_visual_pointer.json", "grounding.json"):
        a = (first.base / name).read_bytes()
        b = (second.base / name).read_bytes()
        assert a == b, f"{name} differs between identical-seed runs"
        compared += 1
    assert compared == 15
    _passed(12, "two identical-seed recipe runs produce byte-identical reports")
