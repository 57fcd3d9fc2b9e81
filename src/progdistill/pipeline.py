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
import random
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterator

from .backends import (CorruptionProfile, OracleBackend, TableStudent,
                       baseline_registry, consistency_verifier,
                       distilled_registry, fresh_students, oracle_registry,
                       perfect_registry)
from .datasets import make_splits, stats
from .distill import harvest, load_triples, save_triples, train
from .evaluation import (EvalReport, ablate_distilled_count, case_report,
                         evaluate, grounding_eval, question_correct,
                         run_programs, score, visual_pointer_effect)
from .interpreter import ExecutionTrace, trace_from_record, trace_to_record
from .questions import (DISTILLABLE_KINDS, QAPair,
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

def _span(lo: int, hi: int) -> tuple:
    return (lambda v: len(v) == 2 and lo <= v[0] <= v[1] <= hi,
            f"a [lo, hi] pair with {lo} <= lo <= hi <= {hi:,}")


def _count(lo: int, hi: int) -> tuple:
    return (lambda v: lo <= v <= hi, f">= {lo:,} and <= {hi:,}")


_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = (lambda v: v > 0.0, "> 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")

# A run's scene seeds are `seed * _SEEDS_PER_RUN` plus the scene's pool
# offset plus its index in the pool. The seed's range keeps them below 2**63.
_SEEDS_PER_RUN = 1_000_000
_SEED_POOLS = {"train": 0, "eval": 500_000, "probe": 900_000}


def _scene_seed(cfg: PipelineConfig, pool: str, index: int) -> int:
    return cfg.seed * _SEEDS_PER_RUN + _SEED_POOLS[pool] + index


def _pool_size(pool: str) -> tuple:
    """A pool's scene count, at most the gap to the next pool's offset."""
    start = _SEED_POOLS[pool]
    end = min(o for o in (*_SEED_POOLS.values(), _SEEDS_PER_RUN) if o > start)
    return _count(1, end - start)


def _key(key: str, default, check: tuple[Callable, str] | None = None):
    """A field read from the config file at the dotted `key` and, with a
    `check` (test, what the value must be), range-checked. A callable
    `default` is a factory."""
    kind = "default_factory" if callable(default) else "default"
    return field(metadata={"key": key, "check": check}, **{kind: default})


@dataclass
class PipelineConfig:
    seed: int = _key("seed", 0, _count(-10**12, 10**12))
    world: WorldConfig = _key("world", default_world_config)
    train_scenes: int = _key("scenes.train", 700, _pool_size("train"))
    eval_scenes: int = _key("scenes.eval", 300, _pool_size("eval"))
    questions_per_scene: tuple[int, int] = _key(
        "questions.per_scene", (12, 16), _span(1, 100))
    fault_rate: float = _key("questions.fault_rate", 0.0, _UNIT)
    visual_pointer: bool = _key("questions.visual_pointer", True)
    framework: str = _key("questions.framework", "fine", (
        lambda v: v in ("fine", "coarse"), "'fine' or 'coarse'"))
    miss_rate: float = _key("detector.miss_rate", 0.05, _UNIT)
    detector_seed: int = _key("detector.seed", 11)
    # Chosen so the realized corrupted fraction sits at the nominal rho across
    # every question-form family (single draws over small form sets are lumpy).
    corruption_seed: int = _key("corruption.seed", 98)
    rho: float = _key("corruption.rho", 0.3, _UNIT)
    tau: int = _key("students.tau", 3, _AT_LEAST_1)
    alpha: float = _key("students.alpha", 1.0, _POSITIVE)
    epochs: int = _key("distill.epochs", 1, _count(0, 1_000))
    per_type_cap: int = _key("dataset.per_type_cap", 160, _AT_LEAST_1)
    val_scene_share: float = _key("dataset.val_scene_share", 0.65, _UNIT)
    grounding_per_scene: tuple[int, int] = _key(
        "grounding.per_scene", (1, 2), _span(0, 100))
    vp_probe_scenes: int = _key("vp_probe.scenes", 200, _pool_size("probe"))
    vp_probe_ambiguity: float = _key("vp_probe.ambiguity_rate", 0.4, _UNIT)
    trainset_ratios: tuple[int, ...] = _key(
        "ablation.trainset_ratios", (1, 4, 6),
        (lambda v: 1 <= len(v) <= 100 and min(v) >= 1,
         "a list of 1 to 100 values >= 1"))
    service_timeout: float = _key("service.timeout", 5.0, _POSITIVE)

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            section, _, leaf = f.metadata["key"].rpartition(".")
            (out.setdefault(section, {}) if section else out)[leaf] = \
                _plain(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Read every key present in `d` by its field's type; an unknown
        key or a bad section, value or range raises ConfigError naming the
        dotted key."""
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        keys = [f.metadata["key"] for f in fields(cls)]
        sections = {key.rpartition(".")[0] for key in keys} - {""}
        present = [name for name in d if name not in sections]
        present += [f"{name}.{leaf}" for name in sections
                    if isinstance(d.get(name), dict) for leaf in d[name]]
        _reject_unknown(present, keys)
        values = {}
        for f, key in zip(fields(cls), keys):
            section_name, _, leaf = key.rpartition(".")
            section = d.get(section_name, {}) if section_name else d
            if not isinstance(section, dict):
                raise ConfigError(
                    f"config key {section_name!r} must be a JSON object")
            if leaf not in section:
                continue
            raw, read, check = section[leaf], _READERS[f.type], f.metadata["check"]
            try:
                value = read(raw)
                ok = check is None or check[0](value)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise ConfigError(
                    f"bad config value for {key!r}: {detail}") from exc
            if not ok:
                raise ConfigError(f"config key {key!r} must be "
                                  f"{check[1]}, got {raw!r}")
            values[f.name] = value
        cfg = cls(**values)
        try:
            cfg.world.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value for 'world': {exc}") from exc
        return cfg

    def digest(self) -> str:
        return config_digest(self.to_dict())

    def provenance_digest(self) -> str:
        """Digest of the keys that shape artifacts: a stage refuses the
        artifacts of a producer whose digest differs. The service timeout
        and the world's relations (scenes carry none) are left out."""
        data = self.to_dict()
        del data["service"]["timeout"], data["world"]["relations"]
        return config_digest(data)

    @property
    def profile(self) -> CorruptionProfile:
        return CorruptionProfile(seed=self.corruption_seed, rho=self.rho)


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
        # ValueError: not UTF-8, or an integer literal past Python's digit
        # limit.
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if seed is not None and isinstance(data, dict):
        data["seed"] = seed
    return PipelineConfig.from_dict(data)


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
    """A finite JSON number as a float: 1 reads as 1.0; true, "0.5", 1e400,
    10**400 and the Infinity and NaN tokens fail. (Python compares an int
    with a float exactly, and NaN compares false.)"""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            -sys.float_info.max <= value <= sys.float_info.max):
        raise TypeError(f"expected a finite number, got {value!r}")
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
    world_fields = fields(WorldConfig)
    _reject_unknown((f"world.{key}" for key in d),
                    (f"world.{f.name}" for f in world_fields))
    return WorldConfig(**{f.name: _READERS[f.type](d[f.name])
                          for f in world_fields if f.name in d})


# A raw JSON value read as a field of PipelineConfig or WorldConfig, by the
# text of the field's annotation (both modules postpone annotations).
_READERS: dict[str, Callable] = {
    "int": _strict_int, "float": _strict_float, "bool": _strict_bool,
    "str": str, "tuple[int, int]": _int_list, "tuple[int, ...]": _int_list,
    "tuple[str, ...]": _words,
    "dict[str, tuple[str, ...]]": lambda d: {k: _words(v) for k, v in d.items()},
    "WorldConfig": _world,
}


def _plain(value):
    """`value` as JSON data: a tuple becomes a list, a WorldConfig a dict."""
    if isinstance(value, WorldConfig):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Run directory layout and manifests
# ---------------------------------------------------------------------------

class RunPaths:
    def __init__(self, base: str | Path):
        self.base = Path(base)
        # Artifacts the running stage has verified: run-relative path ->
        # sha256. The stage's manifest records them as its inputs. Each stage
        # clears them first: what a failed stage verified is no one's input.
        self.verified: dict[str, str] = {}
        # Artifacts parsed in this process (see `_load_once`): their paths
        # -> (their sha256 values, parsed value).
        self.loaded: dict[tuple[Path, ...], tuple[tuple[str, ...], object]] = {}

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


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True), encoding="utf-8")


def write_stage_manifest(run: RunPaths, stage: str, cfg: PipelineConfig,
                         paths: list[Path]) -> None:
    """Record the stage's outputs, each run-relative path with its sha256,
    and in the same shape as its inputs the artifacts it verified."""
    manifest = {
        "command": stage,
        "config_digest": cfg.digest(),
        "provenance_digest": cfg.provenance_digest(),
        "seed": cfg.seed,
        "inputs": run.verified,
        "outputs": {str(p.relative_to(run.base)): sha256_file(p)
                    for p in paths},
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    path = run.manifest_file(stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, manifest)


def require_artifacts(run: RunPaths, cfg: PipelineConfig, producer_stage: str,
                      paths: list[Path]) -> tuple[str, ...]:
    """Check that a producing stage ran under the seed and the provenance
    digest of `cfg` and recorded `paths` among its outputs with the sha256
    they still have on disk; the only way a stage reads an upstream artifact.
    Each verified file is noted on `run` for the stage manifest. Returns the
    files' sha256 values, in the order of `paths`."""
    manifest_path = run.manifest_file(producer_stage)
    if not manifest_path.exists():
        raise MissingArtifactError(
            f"stage {producer_stage!r} has not produced its artifacts "
            f"(missing {manifest_path.name})")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError:  # not JSON, or not UTF-8
        manifest = None
    # Outputs map run-relative paths to sha256 values; run directories
    # written before that, which keyed them by artifact name, are refused.
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(outputs, dict) or not all(
            isinstance(digest, str) for digest in outputs.values()):
        raise MissingArtifactError(
            f"stage {producer_stage!r} left an unreadable manifest "
            f"{manifest_path.name}; run it again")
    # The provenance digest covers the seed too; this check comes first only
    # to name the two seeds.
    if manifest.get("seed") != cfg.seed:
        raise ConfigError(
            f"stage {producer_stage!r} ran with seed {manifest.get('seed')}, "
            f"this run has seed {cfg.seed}")
    recorded = manifest.get("provenance_digest")
    digest = cfg.provenance_digest()
    if recorded is None:
        raise ConfigError(
            f"stage {producer_stage!r} records no provenance digest; run it "
            f"again to record one")
    if recorded != digest:
        raise ConfigError(
            f"stage {producer_stage!r} ran under provenance digest "
            f"{recorded}, this run's is {digest}")
    hashes = []
    for path in paths:
        name = str(path.relative_to(run.base))
        expected = outputs.get(name)
        if expected is None:
            raise MissingArtifactError(
                f"stage {producer_stage!r} did not record artifact {name!r} "
                f"in {manifest_path.name}")
        if not path.exists():
            raise MissingArtifactError(f"artifact missing on disk: {path}")
        actual = sha256_file(path)
        if actual != expected:
            raise ChecksumError(
                f"artifact {name!r} changed since {producer_stage!r} ran "
                f"({actual[:12]} != {expected[:12]})")
        run.verified[name] = actual
        hashes.append(actual)
    return tuple(hashes)


def _load_once(run: RunPaths, cfg: PipelineConfig, producer_stage: str,
               paths: list[Path], load: Callable[[], object]):
    """`load()` after `require_artifacts(run, cfg, producer_stage, paths)`, or
    the value it returned before on `run` while those files had the same sha256
    values: a changed file is never served from memory. Callers share the
    value and must not change it."""
    hashes = require_artifacts(run, cfg, producer_stage, paths)
    entry = run.loaded.get(tuple(paths))
    if entry is None or entry[0] != hashes:
        entry = run.loaded[tuple(paths)] = (hashes, load())
    return entry[1]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_gen_world(run: RunPaths, cfg: PipelineConfig) -> None:
    run.verified.clear()
    try:
        run.base.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"run directory is not a directory: {exc}") from exc
    _write_json(run.config, cfg.to_dict())
    train_store = WorldStore()
    for i in range(cfg.train_scenes):
        train_store.add(generate_world(_scene_seed(cfg, "train", i), cfg.world))
    eval_store = WorldStore()
    for i in range(cfg.eval_scenes):
        eval_store.add(generate_world(_scene_seed(cfg, "eval", i), cfg.world))
    train_store.save_jsonl(run.worlds_train)
    eval_store.save_jsonl(run.worlds_eval)
    write_stage_manifest(run, "gen-world", cfg,
                         [run.config, run.worlds_train, run.worlds_eval])


def load_world_stores(run: RunPaths, cfg: PipelineConfig
                      ) -> tuple[WorldStore, WorldStore, WorldStore]:
    """(train, eval, combined) stores, after checking the gen-world
    checksums; scene ids are globally unique. The files are parsed once per
    `run` while they are unchanged, so every stage shares the same stores."""
    def load():
        train_store = WorldStore.load_jsonl(run.worlds_train)
        eval_store = WorldStore.load_jsonl(run.worlds_eval)
        combined = WorldStore()
        combined.scenes.update(train_store.scenes)
        combined.scenes.update(eval_store.scenes)
        return train_store, eval_store, combined
    return _load_once(run, cfg, "gen-world",
                      [run.worlds_train, run.worlds_eval], load)


def read_split(run: RunPaths, cfg: PipelineConfig, name: str) -> list[QAPair]:
    """The questions of one split, after checking the build-dataset
    checksum: a fresh list over the QAPairs parsed once per `run`."""
    path = run.split_file(name)
    def load():
        return tuple(qa_from_record(r) for r in read_jsonl(path))
    return list(_load_once(run, cfg, "build-dataset", [path], load))


def read_traces(run: RunPaths, cfg: PipelineConfig, split: str,
                registry_name: str) -> Iterator[ExecutionTrace]:
    """The traces run-programs stored for one split and registry, after
    checking their checksum; streamed one record at a time."""
    path = run.traces_file(split, registry_name)
    require_artifacts(run, cfg, f"run-programs:{split}:{registry_name}", [path])
    return (trace_from_record(r) for r in iter_jsonl(path))


def stage_gen_qa(run: RunPaths, cfg: PipelineConfig) -> None:
    run.verified.clear()
    train_store, eval_store, _ = load_world_stores(run, cfg)
    for store, path in ((train_store, run.qa_train), (eval_store, run.qa_eval)):
        # Pointer-less questions on ambiguous patches are unanswerable even by
        # the oracle and must survive generation for the pointer comparison
        # to mean anything, so only pointer runs are verified.
        verifier = consistency_verifier(store, cfg.world) if cfg.visual_pointer else None
        write_jsonl(path, (qa_to_record(qa) for scene_id in store.ids()
                           for qa in generate_qa(
                               store.get(scene_id), cfg.world, cfg.seed,
                               cfg.questions_per_scene,
                               visual_pointer=cfg.visual_pointer,
                               coarse=cfg.framework == "coarse",
                               fault_rate=cfg.fault_rate, verifier=verifier)))
    write_stage_manifest(run, "gen-qa", cfg, [run.qa_train, run.qa_eval])


def stage_build_dataset(run: RunPaths, cfg: PipelineConfig) -> dict:
    run.verified.clear()
    require_artifacts(run, cfg, "gen-qa", [run.qa_train, run.qa_eval])
    train_pool, eval_pool = ([qa_from_record(r) for r in iter_jsonl(path)]
                             for path in (run.qa_train, run.qa_eval))
    result = make_splits(train_pool, eval_pool, cfg.seed, cfg.per_type_cap,
                         cfg.val_scene_share)
    for name, qas in result.splits.items():
        write_jsonl(run.split_file(name), (qa_to_record(qa) for qa in qas))
    manifest = result.manifest()
    manifest["stats"] = {name: stats(qas) for name, qas in
                         sorted(result.splits.items())}
    _write_json(run.split_manifest, manifest)
    write_stage_manifest(run, "build-dataset", cfg, [
        run.split_manifest, *map(run.split_file, result.splits)])
    return manifest


def _load_students(run: RunPaths, cfg: PipelineConfig,
                  store: WorldStore) -> dict[str, TableStudent]:
    """The students the distill stage saved, after checking their checksums."""
    paths = {kind: run.student_file(kind) for kind in DISTILLABLE_KINDS}
    require_artifacts(run, cfg, "distill", list(paths.values()))
    return {kind: TableStudent.load(path, store, cfg.world)
            for kind, path in paths.items()}


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
    run.verified.clear()
    qapairs = read_split(run, cfg, split)
    _, _, store = load_world_stores(run, cfg)

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
                         [path])


def stage_harvest(run: RunPaths, cfg: PipelineConfig) -> int:
    run.verified.clear()
    traces = read_traces(run, cfg, "train", "baseline")
    _, _, store = load_world_stores(run, cfg)
    qapairs = read_split(run, cfg, "train")
    question_types = {qa.question_id: qa.question_type for qa in qapairs}
    teacher = OracleBackend(store, cfg.world)
    audit: list[dict] = []
    triples = harvest(traces, teacher, cfg.world, question_types=question_types,
                      audit=audit)
    save_triples(run.triples, triples)
    audit_path = run.base / "adapter_audit.jsonl"
    write_jsonl(audit_path, audit)
    write_stage_manifest(run, "harvest", cfg, [run.triples, audit_path])
    return len(triples)


def stage_distill(run: RunPaths, cfg: PipelineConfig) -> dict:
    run.verified.clear()
    require_artifacts(run, cfg, "harvest", [run.triples])
    _, _, store = load_world_stores(run, cfg)
    triples = load_triples(run.triples)
    students = fresh_students(store, cfg.world, cfg.profile, tau=cfg.tau,
                              alpha=cfg.alpha)
    _, report = train(students, triples, store, epochs=cfg.epochs,
                      seed=cfg.seed)
    for kind, student in students.items():
        student.save(run.student_file(kind))
    _write_json(run.training_report, report.to_dict())
    write_stage_manifest(run, "distill", cfg, [
        run.training_report, *map(run.student_file, students)])
    return report.to_dict()


def _write_csv(path: Path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def stage_evaluate(run: RunPaths, cfg: PipelineConfig,
                   registry_name: str) -> EvalReport:
    """Accounting over traces stored by run-programs for the test split."""
    run.verified.clear()
    traces = read_traces(run, cfg, "test", registry_name)
    _, _, store = load_world_stores(run, cfg)
    qapairs = read_split(run, cfg, "test")
    by_id = {t.question_id: t for t in traces}
    missing = [qa.question_id for qa in qapairs if qa.question_id not in by_id]
    if missing:
        raise MissingArtifactError(
            f"traces missing for {len(missing)} question(s); re-run run-programs")
    report = score(qapairs, [by_id[qa.question_id] for qa in qapairs],
                   metadata={"registry": registry_name, "split": "test",
                             "config_digest": cfg.digest(), "seed": cfg.seed},
                   store=store, world=cfg.world)
    outputs = [run.eval_file(registry_name, suffix)
               for suffix in ("json", "csv", "txt")]
    json_path, csv_path, txt_path = outputs
    _write_json(json_path, report.to_dict())
    _write_csv(csv_path, report.to_csv_rows())
    txt_path.write_text(report.to_text(), encoding="utf-8")
    write_stage_manifest(run, f"evaluate:{registry_name}", cfg, outputs)
    return report


def stage_ablate(run: RunPaths, cfg: PipelineConfig, axis: str) -> dict:
    run.verified.clear()
    if axis not in ABLATION_AXES:
        raise ConfigError(f"unknown ablation axis {axis!r}")
    if axis == "visual-pointer":
        # The probe makes its own scenes, but like every ablation it runs
        # over a built dataset.
        require_artifacts(run, cfg, "build-dataset", [run.split_file("test")])
    else:
        _, eval_store, store = load_world_stores(run, cfg)
        test_set = read_split(run, cfg, "test")
        base = build_registry("baseline", run, cfg, store)
    outputs = [run.ablation_file(axis)]

    if axis == "distilled-count":
        result = ablate_distilled_count(base, _load_students(run, cfg, store),
                                        test_set, store)
    elif axis == "trainset-size":
        # Nested subsets, each smaller one inside every larger one: one
        # distillation and one evaluation per ratio.
        require_artifacts(run, cfg, "harvest", [run.triples])
        triples = load_triples(run.triples)
        n, hi = len(triples), max(cfg.trainset_ratios)
        order = list(range(n))
        random.Random(f"subset:{cfg.seed}").shuffle(order)
        result = {"curve": []}
        for r in sorted(cfg.trainset_ratios):
            size = min(max(1, n * r // hi), n)
            students = fresh_students(store, cfg.world, cfg.profile,
                                      tau=cfg.tau, alpha=cfg.alpha)
            train(students, [triples[i] for i in order[:size]], store,
                  epochs=cfg.epochs, seed=cfg.seed)
            report = evaluate(distilled_registry(base, students), test_set, store)
            result["curve"].append({"size": size, "acc_all": report.acc_all,
                                    "acc_no_nan": report.acc_no_nan})
        _write_csv(run.curve_csv, [["size", "acc_all", "acc_no_nan"]] + [
            [point["size"], f"{point['acc_all']:.6f}",
             f"{point['acc_no_nan']:.6f}"] for point in result["curve"]])
        outputs.append(run.curve_csv)
    elif axis == "cross-framework":
        # The distilled simple_query student as saved (not retrained),
        # transplanted into the baseline under the coarse framework.
        path = run.student_file("simple_query")
        require_artifacts(run, cfg, "distill", [path])
        coarse_test = _coarse_counterparts(cfg, eval_store, test_set)
        registries = {"baseline": base, "transplanted": distilled_registry(
            base, {"simple_query": TableStudent.load(path, store, cfg.world)})}
        result = {name: evaluate(
            registry, coarse_test, store, coarse=True, world=cfg.world,
            metadata={"mode": f"coarse_{name}",
                      "visual_pointer": cfg.visual_pointer}).to_dict()
            for name, registry in registries.items()}
    else:
        probe_world = replace(cfg.world,
                              ambiguity_rate=cfg.vp_probe_ambiguity)
        probe_store = WorldStore()
        for i in range(cfg.vp_probe_scenes):
            probe_store.add(generate_world(_scene_seed(cfg, "probe", i),
                                           probe_world))
        result = visual_pointer_effect(probe_store, probe_world, cfg.profile,
                                       cfg.questions_per_scene, cfg.seed,
                                       miss_rate=cfg.miss_rate,
                                       detector_seed=cfg.detector_seed)

    _write_json(run.ablation_file(axis), result)
    write_stage_manifest(run, f"ablate:{axis}", cfg, outputs)
    return result


def _coarse_counterparts(cfg: PipelineConfig, eval_store: WorldStore,
                         test_set) -> list:
    """Regenerate the test questions under the coarse framework; question ids
    pair with the fine-framework set by construction, and the ground truth
    is shared with the fine counterpart, so nothing is verified."""
    wanted = {qa.question_id for qa in test_set}
    scenes = {qa.scene_id for qa in test_set}
    return [qa for scene_id in eval_store.ids() if scene_id in scenes
            for qa in generate_qa(eval_store.get(scene_id), cfg.world, cfg.seed,
                                  cfg.questions_per_scene,
                                  visual_pointer=cfg.visual_pointer,
                                  coarse=True, fault_rate=cfg.fault_rate)
            if qa.question_id in wanted]


def stage_ground_eval(run: RunPaths, cfg: PipelineConfig,
                      registries: tuple[str, ...] = ("baseline", "distilled")) -> dict:
    run.verified.clear()
    _, eval_store, store = load_world_stores(run, cfg)
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
    _write_json(path, result)
    write_stage_manifest(run, "ground-eval", cfg, [path])
    return result


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _fmt_pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def _stored_json(run: RunPaths, cfg: PipelineConfig, stage: str, path: Path):
    """The JSON artifact `path` of `stage` after checking its checksum, or
    None when `stage` has not run: it left no manifest. A `path` there that
    no manifest records is read, and refused (exit 3), not skipped."""
    if not (run.manifest_file(stage).exists() or path.exists()):
        return None
    require_artifacts(run, cfg, stage, [path])
    return json.loads(path.read_text(encoding="utf-8"))


def stage_report(run: RunPaths, cfg: PipelineConfig) -> str:
    """Render stored eval/ablation artifacts into one deterministic report."""
    run.verified.clear()
    sections: list[str] = [
        "# Run report",
        "",
        f"- config digest: `{cfg.digest()}`",
        f"- seed: {cfg.seed}",
        "",
    ]
    csv_rows: list[list] = [["table", "row", "acc_all", "acc_no_nan"]]

    def ablation(axis: str):
        return _stored_json(run, cfg, f"ablate:{axis}", run.ablation_file(axis))

    evals = {name: _stored_json(run, cfg, f"evaluate:{name}",
                                run.eval_file(name))
             for name in REGISTRY_NAMES}
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

    data = _stored_json(run, cfg, "ground-eval", run.grounding_file())
    if data is not None:
        sections.append("## Grounding (mean IoU)")
        sections.append("")
        for name in sorted(k for k in data if k != "cases"):
            sections.append(f"- {name}: {_fmt_pct(data[name]['mean_iou'])}%")
            csv_rows.append(["grounding", name,
                             f"{data[name]['mean_iou']:.6f}", ""])
        sections.append("")

    case_docs = _example_case_reports(run, cfg) if all(
        evals[name] is not None for name in ("baseline", "distilled")) else []
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
    write_stage_manifest(run, "report", cfg, [run.report_md, run.report_csv])
    return text


def _example_case_reports(run: RunPaths, cfg: PipelineConfig,
                          limit: int = 2) -> list[str]:
    """Render the stored baseline and distilled test traces, which both
    `evaluate` runs scored, of the first questions, in split order, that the
    baseline gets wrong and the distilled framework gets right. Traces are
    streamed; only the baseline's wrong ones and the distilled framework's
    fixes of them are kept."""
    names = ("baseline", "distilled")
    baseline, distilled = [read_traces(run, cfg, "test", name) for name in names]
    for name in names:
        # Only the file that `evaluate` scored; one rewritten since exits 4.
        path = str(run.traces_file("test", name).relative_to(run.base))
        scored = json.loads(run.manifest_file(f"evaluate:{name}").read_text(
            encoding="utf-8")).get("inputs")
        if (not isinstance(scored, dict)
                or scored.get(path) != run.verified[path]):
            raise ChecksumError(f"artifact {path!r} is not the file that "
                                f"'evaluate:{name}' scored; run it again")
    qapairs = read_split(run, cfg, "test")
    by_id = {qa.question_id: qa for qa in qapairs}
    base_wrong = {t.question_id: t for t in baseline if t.question_id in by_id
                  and not question_correct(by_id[t.question_id], t)[0]}
    fixed = {t.question_id: t for t in distilled if t.question_id in base_wrong
             and question_correct(by_id[t.question_id], t)[0]}
    chosen = [qa for qa in qapairs if qa.question_id in fixed][:limit]
    return [case_report(qa, {"baseline": base_wrong[qa.question_id],
                             "distilled": fixed[qa.question_id]})
            for qa in chosen]


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
