"""Plain-file pipeline: every stage reads JSONL artifacts, writes JSONL
artifacts plus a manifest, and downstream stages verify upstream checksums.

Intermediate results are stored first and adapted/consumed later, so each
stage is independently inspectable and re-runnable. Reports contain no
timestamps; with fixed seeds and config, report bytes are identical across
runs (manifests carry the timestamps instead).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .backends import (CorruptionProfile, OracleBackend, TableStudent,
                       baseline_registry, consistency_verifier,
                       distilled_registry, fresh_students, oracle_registry,
                       perfect_registry)
from .datasets import make_splits, stats
from .distill import harvest, load_triples, save_triples, train
from .evaluation import (EvalReport, ablate_distilled_count,
                         ablate_trainset_size, case_report, cross_framework,
                         grounding_eval, question_correct, run_programs, score,
                         visual_pointer_effect)
from .interpreter import trace_from_record, trace_to_record
from .questions import (DISTILLABLE_KINDS, GenConfig, QAPair,
                        generate_grounding, generate_qa, qa_from_record,
                        qa_to_record)
from .service import (PROFILE_PLAIN, PROFILE_POINTER, ProgramServiceClient,
                      ServiceError)
from .util import (config_digest, iter_jsonl, read_jsonl, sha256_file,
                   write_jsonl)
from .worlds import WorldConfig, WorldStore, default_world_config, generate_world

REGISTRY_NAMES = ("baseline", "distilled", "teacher-replacement", "all-oracle")
ABLATION_AXES = ("distilled-count", "trainset-size", "cross-framework",
                 "visual-pointer")


class PipelineError(Exception):
    exit_code = 1


class ConfigError(PipelineError):
    exit_code = 2


class MissingArtifactError(PipelineError):
    exit_code = 3


class ChecksumError(PipelineError):
    exit_code = 4


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class PipelineConfig:
    seed: int = 0
    world: WorldConfig = field(default_factory=default_world_config)
    train_scenes: int = 700
    eval_scenes: int = 300
    questions_per_scene: tuple[int, int] = (12, 16)
    fault_rate: float = 0.0
    visual_pointer: bool = True
    framework: str = "fine"
    miss_rate: float = 0.05
    detector_seed: int = 11
    # Chosen so the realized corrupted fraction sits at the nominal rho across
    # every question-form family (single draws over small form sets are lumpy).
    corruption_seed: int = 98
    rho: float = 0.3
    tau: int = 3
    alpha: float = 1.0
    epochs: int = 1
    per_type_cap: int = 160
    val_scene_share: float = 0.65
    grounding_per_scene: tuple[int, int] = (1, 2)
    vp_probe_scenes: int = 200
    vp_probe_ambiguity: float = 0.4
    trainset_ratios: tuple[int, int, int] = (1, 4, 6)
    service_timeout: float = 5.0

    def to_dict(self) -> dict:
        out: dict = {}
        for entry in CONFIG_SCHEMA:
            section, _, leaf = entry.key.rpartition(".")
            value = getattr(self, entry.field)
            if isinstance(value, WorldConfig):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            (out.setdefault(section, {}) if section else out)[leaf] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Read every key present in `d` through its schema entry; an unknown
        key or a bad section, value or range raises ConfigError naming the
        dotted key."""
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        present = [name for name in d if name not in _SECTIONS]
        present += [f"{name}.{leaf}" for name in _SECTIONS
                    if isinstance(d.get(name), dict) for leaf in d[name]]
        _reject_unknown(present, {entry.key for entry in CONFIG_SCHEMA})
        values = {}
        for entry in CONFIG_SCHEMA:
            section_name, _, leaf = entry.key.rpartition(".")
            section = d.get(section_name, {}) if section_name else d
            if not isinstance(section, dict):
                raise ConfigError(
                    f"config key {section_name!r} must be a JSON object")
            if leaf not in section:
                continue
            raw = section[leaf]
            try:
                value = entry.coerce(raw)
                ok = entry.check is None or entry.check[0](value)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise ConfigError(
                    f"bad config value for {entry.key!r}: {detail}") from exc
            if not ok:
                raise ConfigError(f"config key {entry.key!r} must be "
                                  f"{entry.check[1]}, got {raw!r}")
            values[entry.field] = value
        cfg = cls(**values)
        try:
            cfg.world.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value for 'world': {exc}") from exc
        return cfg

    def digest(self) -> str:
        return config_digest(self.to_dict())

    @property
    def profile(self) -> CorruptionProfile:
        return CorruptionProfile(seed=self.corruption_seed, rho=self.rho)

    def gen_config(self, framework: str | None = None) -> GenConfig:
        return GenConfig(
            world=self.world,
            questions_per_scene=self.questions_per_scene,
            fault_rate=self.fault_rate,
            visual_pointer=self.visual_pointer,
            framework=framework or self.framework,
        )


def load_config(path: str | Path | None, seed: int | None = None) -> PipelineConfig:
    data: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = PipelineConfig.from_dict(data)
    if seed is not None:
        cfg.seed = seed
    return cfg


def _strict_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _strict_int(value) -> int:
    """An integral JSON number: 3 and 3.0 read as 3; 3.7, true and "3" fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _strict_float(value) -> float:
    """A JSON number as a float: 1 reads as 1.0; true and "0.5" fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _int_list(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {value!r}")
    return tuple(_strict_int(x) for x in value)


def _words(value) -> tuple[str, ...]:
    """A JSON array of strings as a tuple; a bare string is not split."""
    if not isinstance(value, list) or not all(isinstance(w, str) for w in value):
        raise TypeError(f"expected a JSON array of strings, got {value!r}")
    return tuple(value)


_WORLD_KEYS: dict[str, Callable] = {
    "nouns": _words, "relations": _words,
    "attribute_families": lambda d: {k: _words(v) for k, v in d.items()},
    "objects_per_scene": _int_list, "canvas": _int_list,
    "ambiguity_rate": _strict_float,
}


def _reject_unknown(keys, known) -> None:
    """ConfigError naming every dotted key of `keys` not in `known`: a
    mistyped key must not silently keep its default."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")


def _world(d: dict) -> WorldConfig:
    """The `world` section; optional keys it leaves out keep their defaults."""
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object, got {d!r}")
    _reject_unknown((f"world.{key}" for key in d),
                    (f"world.{key}" for key in _WORLD_KEYS))
    return WorldConfig(**{key: coerce(d[key]) for key, coerce in
                          _WORLD_KEYS.items() if key in d})


def _span_from(n: int) -> tuple:
    return (lambda v: len(v) == 2 and n <= v[0] <= v[1],
            f"a [lo, hi] pair with {n} <= lo <= hi")


_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = (lambda v: v > 0.0, "> 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")


class SchemaEntry(NamedTuple):
    """One PipelineConfig field's place, reading and range in the file."""
    field: str          # PipelineConfig attribute
    key: str            # dotted path in the JSON config file
    coerce: Callable    # raw JSON value -> field value
    check: tuple[Callable, str] | None = None  # (test, what value must be)


CONFIG_SCHEMA: tuple[SchemaEntry, ...] = (
    SchemaEntry("seed", "seed", _strict_int),
    SchemaEntry("world", "world", _world),
    SchemaEntry("train_scenes", "scenes.train", _strict_int, _AT_LEAST_1),
    SchemaEntry("eval_scenes", "scenes.eval", _strict_int, _AT_LEAST_1),
    SchemaEntry("questions_per_scene", "questions.per_scene", _int_list,
                _span_from(1)),
    SchemaEntry("fault_rate", "questions.fault_rate", _strict_float, _UNIT),
    SchemaEntry("visual_pointer", "questions.visual_pointer", _strict_bool),
    SchemaEntry("framework", "questions.framework", str,
                (lambda v: v in ("fine", "coarse"), "'fine' or 'coarse'")),
    SchemaEntry("miss_rate", "detector.miss_rate", _strict_float, _UNIT),
    SchemaEntry("detector_seed", "detector.seed", _strict_int),
    SchemaEntry("corruption_seed", "corruption.seed", _strict_int),
    SchemaEntry("rho", "corruption.rho", _strict_float, _UNIT),
    SchemaEntry("tau", "students.tau", _strict_int, _AT_LEAST_1),
    SchemaEntry("alpha", "students.alpha", _strict_float, _POSITIVE),
    SchemaEntry("epochs", "distill.epochs", _strict_int,
                (lambda v: v >= 0, ">= 0")),
    SchemaEntry("per_type_cap", "dataset.per_type_cap", _strict_int,
                _AT_LEAST_1),
    SchemaEntry("val_scene_share", "dataset.val_scene_share", _strict_float, _UNIT),
    SchemaEntry("grounding_per_scene", "grounding.per_scene", _int_list,
                _span_from(0)),
    SchemaEntry("vp_probe_scenes", "vp_probe.scenes", _strict_int, _AT_LEAST_1),
    SchemaEntry("vp_probe_ambiguity", "vp_probe.ambiguity_rate", _strict_float, _UNIT),
    SchemaEntry("trainset_ratios", "ablation.trainset_ratios", _int_list,
                (lambda v: len(v) > 0 and min(v) >= 1,
                 "a non-empty list of values >= 1")),
    SchemaEntry("service_timeout", "service.timeout", _strict_float, _POSITIVE),
)
_SECTIONS = {entry.key.rpartition(".")[0] for entry in CONFIG_SCHEMA} - {""}


# ---------------------------------------------------------------------------
# Run directory layout and manifests
# ---------------------------------------------------------------------------

class RunPaths:
    def __init__(self, base: str | Path):
        self.base = Path(base)
        # Artifacts the running stage has verified: run-relative path ->
        # sha256. The stage's manifest records them as its inputs.
        self.verified: dict[str, str] = {}

    # artifacts
    @property
    def config(self): return self.base / "config.json"
    @property
    def worlds_train(self): return self.base / "worlds_train.jsonl"
    @property
    def worlds_eval(self): return self.base / "worlds_eval.jsonl"
    @property
    def qa_train(self): return self.base / "qa_train.jsonl"
    @property
    def qa_eval(self): return self.base / "qa_eval.jsonl"
    @property
    def split_manifest(self): return self.base / "split_manifest.json"
    @property
    def triples(self): return self.base / "triples.jsonl"
    @property
    def training_report(self): return self.base / "training_report.json"
    @property
    def students_dir(self): return self.base / "students"
    @property
    def manifests_dir(self): return self.base / "manifests"
    @property
    def report_md(self): return self.base / "report.md"
    @property
    def report_csv(self): return self.base / "report_tables.csv"
    @property
    def curve_csv(self): return self.base / "trainset_curve.csv"

    def split_file(self, name: str) -> Path:
        return self.base / f"split_{name}.jsonl"

    def traces_file(self, split: str, registry: str) -> Path:
        return self.base / f"traces_{split}_{registry.replace('-', '_')}.jsonl"

    def eval_file(self, registry: str, suffix: str = "json") -> Path:
        return self.base / f"eval_{registry.replace('-', '_')}.{suffix}"

    def student_file(self, kind: str) -> Path:
        return self.students_dir / f"{kind}.json"

    def ablation_file(self, axis: str) -> Path:
        return self.base / f"ablate_{axis.replace('-', '_')}.json"

    def grounding_file(self) -> Path:
        return self.base / "grounding.json"

    def manifest_file(self, stage: str) -> Path:
        safe = stage.replace(":", "_").replace("-", "_")
        return self.manifests_dir / f"{safe}.json"


def write_stage_manifest(run: RunPaths, stage: str, cfg: PipelineConfig,
                         outputs: dict[str, Path]) -> None:
    """Record the stage's outputs with their checksums, and as its inputs
    the artifacts it verified (then forget those)."""
    manifest = {
        "command": stage,
        "config_digest": cfg.digest(),
        "seed": cfg.seed,
        "inputs": dict(sorted(run.verified.items())),
        "outputs": {name: {"path": str(p.relative_to(run.base)),
                           "sha256": sha256_file(p)}
                    for name, p in sorted(outputs.items())},
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    run.verified.clear()
    path = run.manifest_file(stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                    encoding="utf-8")


def require_artifacts(run: RunPaths, producer_stage: str,
                      names: list[str]) -> None:
    """Check that a producing stage ran and its recorded output checksums
    still match the files on disk; the only way a stage reads an upstream
    artifact. Each verified file is noted on `run` for the stage manifest."""
    manifest_path = run.manifest_file(producer_stage)
    if not manifest_path.exists():
        raise MissingArtifactError(
            f"stage {producer_stage!r} has not produced its artifacts "
            f"(missing {manifest_path.name})")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    outputs = manifest.get("outputs", {})
    for name in names:
        entry = outputs.get(name)
        if entry is None:
            raise MissingArtifactError(
                f"stage {producer_stage!r} did not record artifact {name!r}")
        path = run.base / entry["path"]
        if not path.exists():
            raise MissingArtifactError(f"artifact missing on disk: {path}")
        actual = sha256_file(path)
        if actual != entry["sha256"]:
            raise ChecksumError(
                f"artifact {name!r} changed since {producer_stage!r} ran "
                f"({actual[:12]} != {entry['sha256'][:12]})")
        run.verified[entry["path"]] = actual


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _scene_seed(cfg: PipelineConfig, pool: str, index: int) -> int:
    offset = 0 if pool == "train" else 500_000
    return cfg.seed * 1_000_000 + offset + index


def stage_gen_world(run: RunPaths, cfg: PipelineConfig) -> None:
    run.base.mkdir(parents=True, exist_ok=True)
    run.config.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True),
                          encoding="utf-8")
    train_store = WorldStore()
    for i in range(cfg.train_scenes):
        train_store.add(generate_world(_scene_seed(cfg, "train", i), cfg.world))
    eval_store = WorldStore()
    for i in range(cfg.eval_scenes):
        eval_store.add(generate_world(_scene_seed(cfg, "eval", i), cfg.world))
    train_store.save_jsonl(run.worlds_train)
    eval_store.save_jsonl(run.worlds_eval)
    write_stage_manifest(run, "gen-world", cfg, {
        "worlds_train": run.worlds_train,
        "worlds_eval": run.worlds_eval,
    })


def load_world_stores(run: RunPaths) -> tuple[WorldStore, WorldStore, WorldStore]:
    """(train, eval, combined) stores, after checking the gen-world
    checksums; scene ids are globally unique."""
    require_artifacts(run, "gen-world", ["worlds_train", "worlds_eval"])
    train_store = WorldStore.load_jsonl(run.worlds_train)
    eval_store = WorldStore.load_jsonl(run.worlds_eval)
    combined = WorldStore()
    combined.scenes.update(train_store.scenes)
    combined.scenes.update(eval_store.scenes)
    return train_store, eval_store, combined


def read_split(run: RunPaths, name: str) -> list[QAPair]:
    """The questions of one split, after checking the build-dataset
    checksum."""
    require_artifacts(run, "build-dataset", [f"split_{name}"])
    return [qa_from_record(r) for r in read_jsonl(run.split_file(name))]


def stage_gen_qa(run: RunPaths, cfg: PipelineConfig) -> None:
    train_store, eval_store, _ = load_world_stores(run)
    gen = cfg.gen_config()
    for store, path in ((train_store, run.qa_train), (eval_store, run.qa_eval)):
        verifier = consistency_verifier(store, cfg.world) if gen.should_verify else None
        write_jsonl(path, (qa_to_record(qa) for scene_id in store.ids()
                           for qa in generate_qa(store.get(scene_id), gen,
                                                 cfg.seed, verifier=verifier)))
    write_stage_manifest(run, "gen-qa", cfg,
                         {"qa_train": run.qa_train, "qa_eval": run.qa_eval})


def stage_build_dataset(run: RunPaths, cfg: PipelineConfig) -> dict:
    require_artifacts(run, "gen-qa", ["qa_train", "qa_eval"])
    train_pool, eval_pool = ([qa_from_record(r) for r in read_jsonl(path)]
                             for path in (run.qa_train, run.qa_eval))
    result = make_splits(train_pool, eval_pool, cfg.seed, cfg.per_type_cap,
                         cfg.val_scene_share)
    outputs = {}
    for name, qas in result.splits.items():
        path = run.split_file(name)
        write_jsonl(path, (qa_to_record(qa) for qa in qas))
        outputs[f"split_{name}"] = path
    manifest = result.manifest()
    manifest["stats"] = {name: stats(qas) for name, qas in
                         sorted(result.splits.items())}
    run.split_manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                  encoding="utf-8")
    outputs["split_manifest"] = run.split_manifest
    write_stage_manifest(run, "build-dataset", cfg, outputs)
    return manifest


def _load_students(run: RunPaths, cfg: PipelineConfig,
                  store: WorldStore) -> dict[str, TableStudent]:
    """The students the distill stage saved, after checking their checksums."""
    require_artifacts(run, "distill",
                      [f"student_{k}" for k in DISTILLABLE_KINDS])
    return {kind: TableStudent.load(run.student_file(kind), store, cfg.world)
            for kind in DISTILLABLE_KINDS}


def build_registry(name: str, run: RunPaths, cfg: PipelineConfig,
                   store: WorldStore):
    if name == "baseline":
        return baseline_registry(store, cfg.world, cfg.profile,
                                 miss_rate=cfg.miss_rate,
                                 detector_seed=cfg.detector_seed)
    if name == "distilled":
        return distilled_registry(build_registry("baseline", run, cfg, store),
                                  _load_students(run, cfg, store))
    if name == "teacher-replacement":
        return oracle_registry(store, cfg.world, miss_rate=cfg.miss_rate,
                               detector_seed=cfg.detector_seed)
    if name == "all-oracle":
        return perfect_registry(store, cfg.world)
    raise ConfigError(f"unknown registry {name!r}")


def stage_run_programs(run: RunPaths, cfg: PipelineConfig, split: str,
                       registry_name: str = "baseline",
                       program_source: str = "templates",
                       service_client: ProgramServiceClient | None = None,
                       on_service_error: str = "fail") -> None:
    qapairs = read_split(run, split)
    _, _, store = load_world_stores(run)

    if program_source == "service":
        if service_client is None:
            raise ConfigError("program source 'service' needs an endpoint")
        profile_name = PROFILE_POINTER if cfg.visual_pointer else PROFILE_PLAIN
        regenerated = []
        for qa in qapairs:
            try:
                text = service_client.generate(qa.question, profile_name)
            except ServiceError:
                if on_service_error == "templates":
                    regenerated.append(qa)
                    continue
                raise
            regenerated.append(replace(qa, program=text))
        qapairs = regenerated
    elif program_source != "templates":
        raise ConfigError(f"unknown program source {program_source!r}")

    registry = build_registry(registry_name, run, cfg, store)
    traces = run_programs(qapairs, store, registry)
    path = run.traces_file(split, registry_name)
    write_jsonl(path, (trace_to_record(t) for t in traces))
    write_stage_manifest(run, f"run-programs:{split}:{registry_name}", cfg,
                         {"traces": path})


def stage_harvest(run: RunPaths, cfg: PipelineConfig) -> int:
    require_artifacts(run, "run-programs:train:baseline", ["traces"])
    _, _, store = load_world_stores(run)
    traces = [trace_from_record(r)
              for r in iter_jsonl(run.traces_file("train", "baseline"))]
    qapairs = read_split(run, "train")
    question_types = {qa.question_id: qa.question_type for qa in qapairs}
    teacher = OracleBackend(store, cfg.world)
    audit: list[dict] = []
    triples = harvest(traces, teacher, cfg.world, question_types=question_types,
                      audit=audit)
    save_triples(run.triples, triples)
    audit_path = run.base / "adapter_audit.jsonl"
    write_jsonl(audit_path, audit)
    write_stage_manifest(run, "harvest", cfg,
                         {"triples": run.triples, "adapter_audit": audit_path})
    return len(triples)


def stage_distill(run: RunPaths, cfg: PipelineConfig) -> dict:
    require_artifacts(run, "harvest", ["triples"])
    _, _, store = load_world_stores(run)
    triples = load_triples(run.triples)
    students = fresh_students(store, cfg.world, cfg.profile, tau=cfg.tau,
                              alpha=cfg.alpha)
    _, report = train(students, triples, store, epochs=cfg.epochs,
                      seed=cfg.seed)
    outputs = {}
    for kind, student in sorted(students.items()):
        path = run.student_file(kind)
        student.save(path)
        outputs[f"student_{kind}"] = path
    run.training_report.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    outputs["training_report"] = run.training_report
    write_stage_manifest(run, "distill", cfg, outputs)
    return report.to_dict()


def _write_csv(path: Path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def stage_evaluate(run: RunPaths, cfg: PipelineConfig,
                   registry_name: str) -> EvalReport:
    """Accounting over traces stored by run-programs for the test split."""
    require_artifacts(run, f"run-programs:test:{registry_name}", ["traces"])
    _, _, store = load_world_stores(run)
    qapairs = read_split(run, "test")
    traces = [trace_from_record(r)
              for r in iter_jsonl(run.traces_file("test", registry_name))]
    by_id = {t.question_id: t for t in traces}
    missing = [qa.question_id for qa in qapairs if qa.question_id not in by_id]
    if missing:
        raise MissingArtifactError(
            f"traces missing for {len(missing)} question(s); re-run run-programs")
    report = score(qapairs, [by_id[qa.question_id] for qa in qapairs],
                   metadata={"registry": registry_name, "split": "test",
                             "config_digest": cfg.digest(), "seed": cfg.seed},
                   store=store, world=cfg.world)
    outputs = {"eval_json": run.eval_file(registry_name),
               "eval_csv": run.eval_file(registry_name, "csv"),
               "eval_txt": run.eval_file(registry_name, "txt")}
    outputs["eval_json"].write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    _write_csv(outputs["eval_csv"], report.to_csv_rows())
    outputs["eval_txt"].write_text(report.to_text(), encoding="utf-8")
    write_stage_manifest(run, f"evaluate:{registry_name}", cfg, outputs)
    return report


def stage_ablate(run: RunPaths, cfg: PipelineConfig, axis: str) -> dict:
    if axis not in ABLATION_AXES:
        raise ConfigError(f"unknown ablation axis {axis!r}")
    if axis == "visual-pointer":
        # The probe makes its own scenes, but like every ablation it runs
        # over a built dataset.
        require_artifacts(run, "build-dataset", ["split_test"])
    else:
        _, eval_store, store = load_world_stores(run)
        test_set = read_split(run, "test")
        base = build_registry("baseline", run, cfg, store)
    outputs = {"ablation": run.ablation_file(axis)}

    if axis == "distilled-count":
        result = ablate_distilled_count(base, _load_students(run, cfg, store),
                                        test_set, store)
    elif axis == "trainset-size":
        require_artifacts(run, "harvest", ["triples"])
        triples = load_triples(run.triples)
        total = len(triples)
        hi = max(cfg.trainset_ratios)
        sizes = [max(1, total * r // hi) for r in cfg.trainset_ratios]
        result = ablate_trainset_size(sizes, triples, base, store, cfg.world,
                                      cfg.profile, test_set, tau=cfg.tau,
                                      alpha=cfg.alpha, seed=cfg.seed)
        _write_csv(run.curve_csv, [["size", "acc_all", "acc_no_nan"]] + [
            [point["size"], f"{point['acc_all']:.6f}",
             f"{point['acc_no_nan']:.6f}"] for point in result["curve"]])
        outputs["curve_csv"] = run.curve_csv
    elif axis == "cross-framework":
        require_artifacts(run, "distill", ["student_simple_query"])
        coarse_test = _coarse_counterparts(run, cfg, eval_store, test_set)
        reports = cross_framework(base, run.student_file("simple_query"),
                                  coarse_test, store, cfg.world,
                                  cfg.visual_pointer)
        result = {name: rep.to_dict() for name, rep in reports.items()}
    else:
        probe_world = replace(cfg.world,
                              ambiguity_rate=cfg.vp_probe_ambiguity)
        probe_store = WorldStore()
        for i in range(cfg.vp_probe_scenes):
            probe_store.add(generate_world(
                cfg.seed * 1_000_000 + 900_000 + i, probe_world))
        gen = GenConfig(world=probe_world,
                        questions_per_scene=cfg.questions_per_scene)
        result = visual_pointer_effect(probe_store, probe_world, cfg.profile,
                                       gen, cfg.seed, miss_rate=cfg.miss_rate,
                                       detector_seed=cfg.detector_seed)

    outputs["ablation"].write_text(json.dumps(result, indent=2, sort_keys=True),
                                   encoding="utf-8")
    write_stage_manifest(run, f"ablate:{axis}", cfg, outputs)
    return result


def _coarse_counterparts(run: RunPaths, cfg: PipelineConfig,
                         eval_store: WorldStore, test_set) -> list:
    """Regenerate the test questions under the coarse framework; question ids
    pair with the fine-framework set by construction."""
    gen = cfg.gen_config(framework="coarse")
    gen.verify_consistency = False  # gt is shared with the fine counterpart
    pool = []
    for scene_id in eval_store.ids():
        pool.extend(generate_qa(eval_store.get(scene_id), gen, cfg.seed))
    wanted = {qa.question_id for qa in test_set}
    return [qa for qa in pool if qa.question_id in wanted]


def stage_ground_eval(run: RunPaths, cfg: PipelineConfig,
                      registries: tuple[str, ...] = ("baseline", "distilled")) -> dict:
    _, eval_store, store = load_world_stores(run)
    cases = []
    for scene_id in eval_store.ids():
        cases.extend(generate_grounding(eval_store.get(scene_id), cfg.world,
                                        cfg.seed,
                                        per_scene=cfg.grounding_per_scene))
    result = {"cases": len(cases)}
    for name in registries:
        registry = build_registry(name, run, cfg, store)
        outcome = grounding_eval(registry, cases, store)
        result[name] = {"mean_iou": outcome["mean_iou"]}
    path = run.grounding_file()
    path.write_text(json.dumps(result, indent=2, sort_keys=True),
                    encoding="utf-8")
    write_stage_manifest(run, "ground-eval", cfg, {"grounding": path})
    return result


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _fmt_pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def _stored_json(run: RunPaths, path: Path, stage: str, name: str):
    """The JSON artifact `name` of `stage` after checking its checksum, or
    None when the file is not there."""
    if not path.exists():
        return None
    require_artifacts(run, stage, [name])
    return json.loads(path.read_text(encoding="utf-8"))


def stage_report(run: RunPaths, cfg: PipelineConfig) -> str:
    """Render stored eval/ablation artifacts into one deterministic report."""
    sections: list[str] = [
        "# Run report",
        "",
        f"- config digest: `{cfg.digest()}`",
        f"- seed: {cfg.seed}",
        "",
    ]
    csv_rows: list[list] = [["table", "row", "acc_all", "acc_no_nan"]]

    def ablation(axis: str):
        return _stored_json(run, run.ablation_file(axis), f"ablate:{axis}",
                            "ablation")

    evals = {name: _stored_json(run, run.eval_file(name), f"evaluate:{name}",
                                "eval_json") for name in REGISTRY_NAMES}
    available = [name for name in REGISTRY_NAMES if evals[name] is not None]
    if not available:
        raise MissingArtifactError("no eval_*.json artifacts; run `evaluate` first")

    def table(title: str, csv_table: str, head: str, rows,
              prefix: str = "", nan: bool = False) -> None:
        """An accuracy table under `title`, and one `csv_table` CSV row per
        table row. `rows` yields (label, entry): the table shows `prefix` +
        label, the CSV the bare label. Each entry holds acc_all, acc_no_nan
        and, with `nan`, nan_count."""
        columns = [head, "acc All (%)", "acc No-NaN (%)"] + (["NaN"] if nan else [])
        sections.extend([f"## {title}", "", f"| {' | '.join(columns)} |",
                         "|" + "---|" * len(columns)])
        for label, entry in rows:
            cells = [f"{prefix}{label}", _fmt_pct(entry["acc_all"]),
                     _fmt_pct(entry["acc_no_nan"])]
            cells += [str(entry["nan_count"])] if nan else []
            sections.append(f"| {' | '.join(cells)} |")
            csv_rows.append([csv_table, label, f"{entry['acc_all']:.6f}",
                             f"{entry['acc_no_nan']:.6f}"])
        sections.append("")

    table("Composite-task accuracy (test split)", "composite", "configuration",
          [(name, evals[name]) for name in available], nan=True)
    data = ablation("distilled-count")
    if data is not None:
        table("Distilled sub-module count", "distilled_count",
              "distilled modules",
              [(row["distilled_count"], row) for row in data["rows"]])
    data = ablation("trainset-size")
    if data is not None:
        table("Train-set size curve", "trainset_size", "triples",
              [(point["size"], point) for point in data["curve"]])
    data = ablation("cross-framework")
    if data is not None:
        table("Cross-framework transfer (coarse framework)", "cross_framework",
              "configuration", [(name, data[name])
                                for name in ("baseline", "transplanted")],
              prefix="coarse ")

    data = ablation("visual-pointer")
    if data is not None:
        sections.append("## Visual pointer probe (ambiguous patches)")
        sections.append("")
        sections.append(f"- paired questions: {data['paired_questions']} "
                        f"(ambiguous: {data['ambiguous_count']})")
        sections.append(f"- pointer on:  {_fmt_pct(data['acc_vp_ambiguous'])}%")
        sections.append(f"- pointer off: {_fmt_pct(data['acc_plain_ambiguous'])}%")
        sections.append("")
        csv_rows.append(["visual_pointer", "pointer_on",
                         f"{data['acc_vp_ambiguous']:.6f}", ""])
        csv_rows.append(["visual_pointer", "pointer_off",
                         f"{data['acc_plain_ambiguous']:.6f}", ""])

    data = _stored_json(run, run.grounding_file(), "ground-eval", "grounding")
    if data is not None:
        sections.append("## Grounding (mean IoU)")
        sections.append("")
        for name in sorted(k for k in data if k != "cases"):
            sections.append(f"- {name}: {_fmt_pct(data[name]['mean_iou'])}%")
            csv_rows.append(["grounding", name,
                             f"{data[name]['mean_iou']:.6f}", ""])
        sections.append("")

    case_docs = _example_case_reports(run, cfg)
    if case_docs:
        sections.append("## Example trace diffs (baseline vs distilled)")
        sections.append("")
        sections.append("```")
        sections.extend(case_docs)
        sections.append("```")
        sections.append("")

    text = "\n".join(sections).rstrip() + "\n"
    run.report_md.write_text(text, encoding="utf-8")
    _write_csv(run.report_csv, csv_rows)
    write_stage_manifest(run, "report", cfg,
                         {"report_md": run.report_md,
                          "report_csv": run.report_csv})
    return text


def _example_case_reports(run: RunPaths, cfg: PipelineConfig,
                          limit: int = 2) -> list[str]:
    """Render trace diffs for the first questions, in split order, that the
    baseline gets wrong and the distilled framework gets right; empty when the
    needed artifacts are not there yet. Traces are streamed and only their
    verdicts kept."""
    needed = [run.traces_file("test", "baseline"),
              run.traces_file("test", "distilled"), run.split_file("test")]
    if not all(p.exists() for p in needed):
        return []
    for name in ("baseline", "distilled"):
        require_artifacts(run, f"run-programs:test:{name}", ["traces"])
    qapairs = read_split(run, "test")
    _, _, store = load_world_stores(run)
    by_id = {qa.question_id: qa for qa in qapairs}

    def verdicts(name: str, among) -> dict[str, bool]:
        out = {}
        for record in iter_jsonl(run.traces_file("test", name)):
            trace = trace_from_record(record)
            if trace.question_id in among:
                out[trace.question_id] = question_correct(
                    by_id[trace.question_id], trace)[0]
        return out

    base_wrong = {qid for qid, ok in verdicts("baseline", by_id).items()
                  if not ok}
    fixed_ids = {qid for qid, ok in verdicts("distilled", base_wrong).items()
                 if ok}
    fixed = [qa for qa in qapairs if qa.question_id in fixed_ids][:limit]
    if not fixed:
        return []
    before = build_registry("baseline", run, cfg, store)
    after = build_registry("distilled", run, cfg, store)
    return [case_report(qa, before, after, store,
                        before_name="baseline", after_name="distilled")
            for qa in fixed]


# ---------------------------------------------------------------------------
# Full recipe
# ---------------------------------------------------------------------------

def run_full_recipe(base_dir: str | Path, cfg: PipelineConfig) -> RunPaths:
    """Every stage end to end; byte-identical reports for identical
    (seed, config)."""
    run = RunPaths(base_dir)
    stage_gen_world(run, cfg)
    stage_gen_qa(run, cfg)
    stage_build_dataset(run, cfg)
    stage_run_programs(run, cfg, "train", "baseline")
    stage_harvest(run, cfg)
    stage_distill(run, cfg)
    for registry_name in REGISTRY_NAMES:
        stage_run_programs(run, cfg, "test", registry_name)
        stage_evaluate(run, cfg, registry_name)
    stage_ablate(run, cfg, "distilled-count")
    stage_ablate(run, cfg, "trainset-size")
    stage_ablate(run, cfg, "cross-framework")
    stage_ablate(run, cfg, "visual-pointer")
    stage_ground_eval(run, cfg)
    stage_report(run, cfg)
    return run
