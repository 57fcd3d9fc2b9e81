import argparse
import ast
import json
import shutil
import subprocess
import sys
import threading
from dataclasses import fields, replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from progdistill.cli import (EXIT_CHECKSUM, EXIT_CONFIG,
                             EXIT_MISSING_ARTIFACT, EXIT_OK, EXIT_SERVICE,
                             build_parser, main)
from progdistill.evaluation import score
from progdistill.dsl import parse
from progdistill.interpreter import execute, trace_to_record
from progdistill.pipeline import (_READERS, ChecksumError, ConfigError,
                                  MissingArtifactError, PipelineConfig,
                                  RunPaths, load_config, load_world_stores,
                                  read_split, stage_ablate,
                                  stage_build_dataset, stage_gen_qa,
                                  stage_gen_world, stage_ground_eval,
                                  require_artifacts, stage_report,
                                  stage_run_programs, write_stage_manifest)
from progdistill.questions import QAPair, qa_to_record
from progdistill.service import ENDPOINT_ENV_VAR
from progdistill.util import read_jsonl, sha256_file, write_jsonl
from progdistill.worlds import SceneGraph, SceneObject, WorldConfig, WorldStore


@pytest.fixture(scope="module")
def tiny_config_file(tmp_path_factory):
    """Small but complete pipeline configuration for CLI round trips."""
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "seed": 0,
        "scenes": {"train": 40, "eval": 20},
        "questions": {"per_scene": [6, 8]},
        "dataset": {"per_type_cap": 40},
    }))
    return str(path)


@pytest.fixture(scope="module")
def short_timeout_config_file(tmp_path_factory, tiny_config_file):
    """The tiny configuration with a 0.3 s program-service timeout."""
    data = json.loads(Path(tiny_config_file).read_text())
    data["service"] = {"timeout": 0.3}
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def _run(args):
    return main(args)


# The smallest valid `world` section.
TINY_WORLD = {"nouns": ["dog"], "attribute_families": {"color": ["red"]},
              "relations": ["near"]}


FULL_SEQUENCE = [
    ["gen-world"],
    ["gen-qa"],
    ["build-dataset"],
    ["run-programs", "--split", "train", "--registry", "baseline"],
    ["harvest"],
    ["distill"],
    ["run-programs", "--split", "test", "--registry", "baseline"],
    ["evaluate", "--registry", "baseline"],
    ["run-programs", "--split", "test", "--registry", "distilled"],
    ["evaluate", "--registry", "distilled"],
    ["ablate", "--axis", "distilled-count"],
    ["ablate", "--axis", "trainset-size"],
    ["ground-eval"],
    ["report"],
]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, tiny_config_file):
    """A run directory after every step of FULL_SEQUENCE; tests that change
    files work on a copy (`_copy_run`)."""
    out = tmp_path_factory.mktemp("full") / "run"
    for step in FULL_SEQUENCE:
        code = _run(step + ["--config", tiny_config_file, "--out-dir", str(out)])
        assert code == EXIT_OK, step
    return out


def _copy_run(full_run: Path, tmp_path: Path) -> Path:
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    return out


def _append_newline(path: Path) -> None:
    path.write_text(path.read_text() + "\n")


def _with_outputs(text: str, edit) -> str:
    """The manifest `text` with its `outputs` replaced by `edit(outputs)`."""
    manifest = json.loads(text)
    return json.dumps({**manifest, "outputs": edit(manifest["outputs"])})


def _key_based(outputs: dict) -> dict:
    """`outputs` in the shape of run directories written before outputs
    were keyed by path: an artifact name -> {path, sha256}."""
    return {path.partition(".")[0].replace("/", "_"):
            {"path": path, "sha256": digest}
            for path, digest in outputs.items()}


class _Answers:
    """A registry whose every module call returns one fixed answer."""

    def __init__(self, answer):
        self.answer = answer

    def dispatch(self, kind, receiver, args):
        return self.answer


# Every dotted key of the file, its sections, and a few unknown keys.
_DEFAULTS = PipelineConfig().to_dict()
_KNOWN_PATHS = sorted(
    [f"{name}.{leaf}" for name, section in _DEFAULTS.items()
     if isinstance(section, dict) for leaf in section]
    + [name for name, value in _DEFAULTS.items() if not isinstance(value, dict)])
_CONFIG_PATHS = st.one_of(
    st.sampled_from(_KNOWN_PATHS),
    st.sampled_from(sorted(_DEFAULTS)),
    st.sampled_from(["bogus", "scenes.trian", "world.canvs", "world.nouns.x",
                     "seed.x", "a.b.c"]))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)


class TestConfig:
    def test_missing_config_file(self):
        assert _run(["gen-world", "--config", "/nope/missing.json",
                     "--out-dir", "/tmp/never"]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert _run(["gen-world", "--config", str(bad),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG

    @pytest.mark.parametrize("payload", [
        {"questions": {"fault_rate": 3.0}},
        {"questions": {"framework": "medium"}},
        {"questions": {"per_scene": [0, 4]}},
        {"scenes": {"train": 0}},
        {"corruption": {"rho": -0.1}},
        {"detector": {"miss_rate": 1.5}},
        {"students": {"tau": 0}},
        {"dataset": {"val_scene_share": 2.0}},
        {"world": {"nouns": [], "attribute_families": {"color": ["red"]},
                   "relations": ["near"]}},
        {"questions": {"per_scene": [1, 2, 3]}},
        [{"seed": 1}],
        {"world": {"nouns": ["dog"], "attribute_families": {"color": ["red"]},
                   "relations": ["near"], "canvas": [10, 10]}},
        {"ablation": {"trainset_ratios": []}},
        {"grounding": {"per_scene": [3, 1]}},
        {"students": {"alpha": -1}},
        {"service": {"timeout": -1}},
        {"ablation": {"trainset_ratios": ["a"]}},
        {"questions": {"per_scene": [1, "a"]}},
        {"scenes": None},
        {"detector": []},
        {"questions": {"visual_pointer": "false"}},
        {"questions": {"per_scene": "12"}},
        {"vp_probe": {"ambiguity_rate": 2.0}},
        {"world": {"nouns": "dog", "attribute_families": {"color": ["red"]},
                   "relations": ["near"]}},
        {"world": {"nouns": ["dog"], "attribute_families": {"color": "red"},
                   "relations": ["near"]}},
        {"world": {"nouns": ["dog"], "attribute_families": {"color": ["red"]},
                   "relations": "near"}},
        {"scenes": {"train": 3.7}},
        {"students": {"tau": 2.9}},
        {"scenes": {"train": True}},
        {"scenes": {"train": "5"}},
        {"ablation": {"trainset_ratios": [1.5, 2]}},
        {"questions": {"fault_rate": True}},
        {"corruption": {"rho": "0.5"}},
        {"service": {"timeout": True}},
        {"students": {"alpha": "2"}},
        {"world": {**TINY_WORLD, "ambiguity_rate": True}},
        {"world": {**TINY_WORLD, "ambiguity_rate": "0.5"}},
        {"world": {**TINY_WORLD, "objects_per_scene": [2.5, 4]}},
        {"world": {**TINY_WORLD, "canvas": [50.5, 60]}},
        {"distill": {"epochs": -1}},
        {"scenes": {"trian": 5}},
        {"bogus": 1},
        {"world": {**TINY_WORLD, "canvs": [60, 60]}},
        {"vp_probe": {"scenes": 0}},
        {"vp_probe": {"scenes": -5}},
        {"world": 5},
    ])
    def test_invalid_values(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert _run(["gen-world", "--config", str(bad),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG

    @pytest.mark.parametrize("payload, key", [
        ({"scenes": {"trian": 5}}, "scenes.trian"),
        ({"bogus": 1, "seed": 2}, "bogus"),
        ({"world": {**TINY_WORLD, "canvs": [60, 60]}}, "world.canvs"),
    ])
    def test_unknown_key_is_named(self, payload, key):
        with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
            PipelineConfig.from_dict(payload)

    @pytest.mark.parametrize("payload, message", [
        ({"world": 5},
         "bad config value for 'world': expected a JSON object, got 5"),
        ({"world": {**TINY_WORLD, "nouns": []}},
         "bad config value for 'world': noun vocabulary is empty"),
        ({"scenes": None}, "config key 'scenes' must be a JSON object"),
        ({"scenes": {"train": 0}},
         "config key 'scenes.train' must be >= 1 and <= 500,000, got 0"),
        ({"questions": {"per_scene": "12"}},
         "bad config value for 'questions.per_scene': expected a JSON array, "
         "got '12'"),
        ({"questions": {"framework": "medium"}},
         "config key 'questions.framework' must be 'fine' or 'coarse', "
         "got 'medium'"),
        ([{"seed": 1}], "config must be a JSON object"),
    ])
    def test_bad_value_messages(self, payload, message):
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_dict(payload)
        assert str(err.value) == message

    @pytest.mark.parametrize("key, bound", [("scenes.train", 500_000),
                                            ("scenes.eval", 400_000),
                                            ("vp_probe.scenes", 100_000)])
    def test_scene_counts_keep_the_seed_pools_apart(self, tmp_path, key, bound):
        # Eval scene seeds start 500,000 after the train ones, and the
        # probe's 400,000 after those: a larger pool runs into the next one.
        # Only the config is read; no stage runs at these sizes.
        section, leaf = key.split(".")
        cfg = PipelineConfig.from_dict({section: {leaf: bound}})
        assert cfg.to_dict()[section][leaf] == bound
        for value in (bound + 1, 10**400):
            with pytest.raises(ConfigError, match=f"'{key}' must be"):
                PipelineConfig.from_dict({section: {leaf: value}})
            path = tmp_path / "config.json"
            path.write_text(json.dumps({section: {leaf: value}}))
            with pytest.raises(ConfigError, match=f"'{key}' must be") as err:
                load_config(path)
            assert err.value.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("key, bound, over", [
        ("questions.per_scene", [1, 100], [[1, 101], [1, 10**9]]),
        ("grounding.per_scene", [0, 100], [[0, 101], [0, 10**9]]),
        ("distill.epochs", 1_000, [1_001, 10**9]),
        ("ablation.trainset_ratios", [1] * 100, [[1] * 101, [1] * 5_000]),
        ("world.objects_per_scene", [1, 100], [[1, 101], [1, 10**9]]),
    ])
    def test_keys_that_size_a_loop_are_bounded(self, tmp_path, key, bound,
                                               over):
        # Each value sizes a loop of some stage (question attempts, grounding
        # cases, epochs, trainset-size runs, objects placed), so an unbounded
        # one runs for hours. Only the config is read; no stage runs.
        section, leaf = key.split(".")
        extra = TINY_WORLD if section == "world" else {}
        cfg = PipelineConfig.from_dict({section: {**extra, leaf: bound}})
        assert cfg.to_dict()[section][leaf] == bound
        for value in over:
            data = {section: {**extra, leaf: value}}
            with pytest.raises(ConfigError, match=leaf):
                PipelineConfig.from_dict(data)
            path = tmp_path / "config.json"
            path.write_text(json.dumps(data))
            with pytest.raises(ConfigError, match=leaf) as err:
                load_config(path)
            assert err.value.exit_code == EXIT_CONFIG

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.booleans(), st.lists(st.tuples(_CONFIG_PATHS, _JSON_VALUES),
                                   max_size=6))
    def test_any_json_at_any_key_reads_or_is_a_config_error(self, complete,
                                                            assignments):
        # Random JSON values put at known and unknown dotted keys, over an
        # empty file or a complete one, read to a config that survives its
        # own round trip, or to a ConfigError; never to another exception.
        data = PipelineConfig().to_dict() if complete else {}
        for path, value in assignments:
            *sections, leaf = path.split(".")
            target = data
            for name in sections:
                target = target.setdefault(name, {})
                if not isinstance(target, dict):
                    break
            else:
                target[leaf] = value
        try:
            cfg = PipelineConfig.from_dict(data)
        except ConfigError:
            return
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 1000 + b"]" * 1000,
        b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["not-utf-8", "depth-1000", "depth-100000"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys,
                                                      content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert _run(["gen-world", "--config", str(bad),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on int-str conversion")
    def test_an_integer_literal_past_the_digit_limit_is_a_config_error(
            self, tmp_path, capsys):
        # json.loads converts the literal with int(), which refuses more
        # digits than the interpreter's limit with a plain ValueError.
        bad = tmp_path / "bad.json"
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        bad.write_text(f'{{"detector": {{"seed": {digits}}}}}')
        with pytest.raises(ConfigError) as err:
            load_config(bad)
        assert str(bad) in str(err.value)
        assert _run(["gen-world", "--config", str(bad),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [10**12 + 1, -10**12 - 1,
                                      10**4_295, -10**4_299],
                             ids=["over", "under", "4296-digits",
                                  "minus-4300-digits"])
    def test_seed_out_of_range_is_a_config_error(self, tmp_path, seed):
        # Scene seeds are seed * 1,000,000 plus an offset; at 4,296 digits
        # gen-world crashed rendering the scene id. The file's seed and the
        # --seed flag go through one check. No stage runs at these sizes.
        with pytest.raises(ConfigError, match="'seed' must be"):
            PipelineConfig.from_dict({"seed": seed})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": seed}))
        for config, flag in ((path, None), (None, seed)):
            with pytest.raises(ConfigError, match="'seed' must be") as err:
                load_config(config, seed=flag)
            assert err.value.exit_code == EXIT_CONFIG
        assert _run(["gen-world", "--config", str(path),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
        assert _run(["gen-world", "--seed", str(seed),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seed", [0, -3, 10**12, -10**12])
    def test_seed_in_range_reads(self, tiny_config_file, seed):
        assert PipelineConfig.from_dict({"seed": seed}).seed == seed
        assert load_config(None, seed=seed).seed == seed
        assert load_config(tiny_config_file, seed=seed).seed == seed

    def test_config_path_naming_a_directory_is_a_config_error(self, tmp_path,
                                                              capsys):
        assert _run(["gen-world", "--config", str(tmp_path),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["gen-world"], ["recipe"]])
    @pytest.mark.parametrize("below", ["", "run"])
    def test_out_dir_naming_a_file_is_a_config_error(
            self, tmp_path, tiny_config_file, capsys, command, below):
        taken = tmp_path / "taken"
        taken.write_text("not a run directory")
        out = taken / below
        assert _run(command + ["--config", tiny_config_file,
                               "--out-dir", str(out)]) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err
        assert taken.read_text() == "not a run directory"

    @pytest.mark.parametrize("number", [
        "1e400", "1" + "0" * 400, "Infinity", "-Infinity", "NaN"],
        ids=["1e400", "10**400", "Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("key", ["students.alpha", "service.timeout"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, key,
                                                 number):
        # JSON 1e400 reads as infinity, and 10**400 as an integer too large
        # for a float; Python's reader also accepts the Infinity and NaN
        # tokens. A socket timeout of infinity overflows.
        section, leaf = key.split(".")
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"{section}": {{"{leaf}": {number}}}}}')
        assert _run(["gen-world", "--config", str(bad),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err

    def test_integral_float_reads_as_int(self):
        cfg = PipelineConfig.from_dict({"scenes": {"train": 3.0}})
        assert cfg.train_scenes == 3 and isinstance(cfg.train_scenes, int)
        assert cfg.digest() == PipelineConfig.from_dict(
            {"scenes": {"train": 3}}).digest()

    def test_integer_reads_as_float(self):
        cfg = PipelineConfig.from_dict({"students": {"alpha": 2}})
        assert cfg.alpha == 2.0 and isinstance(cfg.alpha, float)
        assert cfg.digest() == PipelineConfig.from_dict(
            {"students": {"alpha": 2.0}}).digest()

    def test_seed_flag_overrides_config(self, tmp_path, tiny_config_file):
        cfg = load_config(tiny_config_file, seed=42)
        assert cfg.seed == 42


class TestStageOrderingAndChecksums:
    def test_evaluate_without_run_programs_is_missing_artifact(self, tmp_path,
                                                               tiny_config_file):
        out = str(tmp_path / "run")
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", out]) == EXIT_OK
        assert _run(["evaluate", "--config", tiny_config_file,
                     "--out-dir", out, "--registry", "baseline"]) == \
            EXIT_MISSING_ARTIFACT

    def test_gen_qa_before_gen_world_is_missing_artifact(self, tmp_path,
                                                         tiny_config_file):
        out = str(tmp_path / "run")
        assert _run(["gen-qa", "--config", tiny_config_file,
                     "--out-dir", out]) == EXIT_MISSING_ARTIFACT

    @pytest.mark.parametrize("axis", ["distilled-count", "trainset-size",
                                      "cross-framework", "visual-pointer"])
    def test_ablate_on_empty_dir_is_missing_artifact(self, tmp_path,
                                                     tiny_config_file, axis):
        assert _run(["ablate", "--axis", axis, "--config", tiny_config_file,
                     "--out-dir", str(tmp_path / "run")]) == \
            EXIT_MISSING_ARTIFACT

    def test_report_before_evaluate_is_missing_artifact(self, tmp_path,
                                                        tiny_config_file):
        out = str(tmp_path / "run")
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", out]) == EXIT_OK
        assert _run(["report", "--config", tiny_config_file,
                     "--out-dir", out]) == EXIT_MISSING_ARTIFACT

    def test_removed_world_file_is_missing_artifact(self, full_run, tmp_path,
                                                    tiny_config_file, capsys):
        out = _copy_run(full_run, tmp_path)
        (out / "worlds_eval.jsonl").unlink()
        assert _run(["run-programs", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_MISSING_ARTIFACT
        assert "artifact missing on disk" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: _with_outputs(text, lambda outputs: {}),
         "did not record artifact 'worlds_train.jsonl' in gen_world.json"),
        (lambda text: _with_outputs(text, lambda outputs: {
            path.partition(".")[0]: path for path in outputs}),
         "did not record artifact 'worlds_train.jsonl' in gen_world.json"),
        (lambda text: text[:len(text) // 2],
         "unreadable manifest gen_world.json; run it again"),
        (lambda text: "[]", "unreadable manifest gen_world.json; run it again"),
        (lambda text: _with_outputs(text, lambda outputs: []),
         "unreadable manifest gen_world.json; run it again"),
        (lambda text: _with_outputs(text, lambda outputs: {
            path: None for path in outputs}),
         "unreadable manifest gen_world.json; run it again"),
        (lambda text: _with_outputs(text, _key_based),
         "unreadable manifest gen_world.json; run it again"),
    ], ids=["output-not-recorded", "keyed-by-name", "truncated",
            "not-an-object", "outputs-a-list", "digest-not-a-string",
            "key-based"])
    def test_bad_producer_manifest_is_missing_artifact(
            self, tmp_path, tiny_config_file, capsys, edit, message):
        out = tmp_path / "run"
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_OK
        manifest = out / "manifests" / "gen_world.json"
        manifest.write_text(edit(manifest.read_text()))
        capsys.readouterr()
        assert _run(["gen-qa", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_MISSING_ARTIFACT
        assert message in capsys.readouterr().err

    def test_artifacts_of_another_seed_are_a_config_error(self, tmp_path,
                                                          tiny_config_file,
                                                          capsys):
        out = str(tmp_path / "run")
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", out, "--seed", "0"]) == EXIT_OK
        assert _run(["gen-qa", "--config", tiny_config_file,
                     "--out-dir", out, "--seed", "7"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed 0" in err and "seed 7" in err, err
        assert not (tmp_path / "run" / "qa_train.jsonl").exists()
        assert _run(["gen-qa", "--config", tiny_config_file,
                     "--out-dir", out, "--seed", "0"]) == EXIT_OK

    def test_artifacts_of_another_config_are_a_config_error(
            self, tmp_path, tiny_config_file, short_timeout_config_file,
            capsys):
        out = str(tmp_path / "run")
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", out]) == EXIT_OK
        capsys.readouterr()
        assert _run(["gen-qa", "--out-dir", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        for cfg in (load_config(tiny_config_file), PipelineConfig()):
            assert cfg.provenance_digest() in err, err
        assert not (tmp_path / "run" / "qa_train.jsonl").exists()
        # The service timeout shapes no artifact, nor do the world's
        # relations: scenes carry none.
        assert _run(["gen-qa", "--config", short_timeout_config_file,
                     "--out-dir", out]) == EXIT_OK
        data = load_config(tiny_config_file).to_dict()
        data["world"]["relations"] = ["near"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert _run(["gen-qa", "--config", str(config),
                     "--out-dir", out]) == EXIT_OK

    def test_a_producer_without_a_provenance_digest_is_a_config_error(
            self, tmp_path, tiny_config_file, capsys):
        out = tmp_path / "run"
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_OK
        manifest = out / "manifests" / "gen_world.json"
        data = json.loads(manifest.read_text())
        del data["provenance_digest"]
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        assert _run(["gen-qa", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_CONFIG
        assert "records no provenance digest" in capsys.readouterr().err

    def test_reading_a_run_under_another_config_is_a_config_error(
            self, full_run, tmp_path, tiny_config_file):
        out = _copy_run(full_run, tmp_path)
        data = json.loads(Path(tiny_config_file).read_text())
        data["students"] = {"tau": 5}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        before = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        assert _run(["evaluate", "--config", str(config),
                     "--out-dir", str(out)]) == EXIT_CONFIG
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == before

    def test_provenance_digest_leaves_out_the_timeout_and_relations(
            self, tiny_config_file, short_timeout_config_file):
        tiny = load_config(tiny_config_file)
        short = load_config(short_timeout_config_file)
        few = replace(tiny, world=replace(tiny.world, relations=("near",)))
        nouns = replace(tiny, world=replace(tiny.world, nouns=("dog", "cat")))
        for other in (short, few, nouns):
            assert other.digest() != tiny.digest()
        assert short.provenance_digest() == tiny.provenance_digest()
        assert few.provenance_digest() == tiny.provenance_digest()
        assert nouns.provenance_digest() != tiny.provenance_digest()

    @pytest.mark.parametrize("command", [
        ["report"], ["evaluate"], ["ablate", "--axis", "visual-pointer"]])
    def test_reading_a_run_under_another_seed_is_a_config_error(
            self, full_run, tmp_path, tiny_config_file, command):
        out = _copy_run(full_run, tmp_path)
        before = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        assert _run(command + ["--config", tiny_config_file, "--seed", "3",
                               "--out-dir", str(out)]) == EXIT_CONFIG
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == before

    def test_tampered_artifact_fails_checksum(self, tmp_path, tiny_config_file):
        out = tmp_path / "run"
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_OK
        worlds = out / "worlds_train.jsonl"
        worlds.write_text(worlds.read_text() + "\n")
        assert _run(["gen-qa", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_CHECKSUM

    @pytest.mark.parametrize("command", [
        ["harvest"], ["distill"], ["evaluate"], ["ground-eval"]])
    def test_changed_worlds_fail_checksum_downstream(self, full_run, tmp_path,
                                                     tiny_config_file,
                                                     command):
        out = _copy_run(full_run, tmp_path)
        _append_newline(out / "worlds_train.jsonl")
        assert _run(command + ["--config", tiny_config_file,
                               "--out-dir", str(out)]) == EXIT_CHECKSUM

    @pytest.mark.parametrize("path, edit", [
        ("eval_distilled.json", None),
        ("grounding.json", None),
        ("ablate_trainset_size.json", None),
        ("traces_test_distilled.jsonl", None),
        # the file is still there, but no manifest records it
        ("manifests/evaluate_distilled.json", None),
        ("manifests/ground_eval.json", None),
        ("manifests/evaluate_baseline.json",
         lambda text: _with_outputs(text, lambda outputs: [])),
        ("manifests/ablate_distilled_count.json",
         lambda text: _with_outputs(text, _key_based)),
    ], ids=["eval-deleted", "grounding-deleted", "ablation-deleted",
            "traces-deleted", "eval-unrecorded", "grounding-unrecorded",
            "outputs-a-list", "key-based"])
    def test_report_over_an_incomplete_run_is_missing_artifact(
            self, full_run, tmp_path, tiny_config_file, path, edit):
        # The manifests say which sections a report has; an artifact they
        # record that is gone, or one they do not record, is an error.
        out = _copy_run(full_run, tmp_path)
        if edit is None:
            (out / path).unlink()
        else:
            (out / path).write_text(edit((out / path).read_text()))
        before = (out / "report.md").read_bytes()
        assert _run(["report", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_MISSING_ARTIFACT
        assert (out / "report.md").read_bytes() == before

    @pytest.mark.parametrize("changed, command", [
        ("split_test.jsonl", ["evaluate"]),
        ("eval_baseline.json", ["report"]),
        ("traces_test_distilled.jsonl", ["report"]),
    ])
    def test_changed_input_fails_checksum(self, full_run, tmp_path,
                                          tiny_config_file, changed, command):
        out = _copy_run(full_run, tmp_path)
        _append_newline(out / changed)
        assert _run(command + ["--config", tiny_config_file,
                               "--out-dir", str(out)]) == EXIT_CHECKSUM


class TestArtifactCache:
    """Within one RunPaths, world files and splits are parsed once while
    their checksums hold."""

    @pytest.fixture()
    def load_calls(self, monkeypatch):
        calls = []
        original = WorldStore.load_jsonl

        def counted(cls, path, *args, **kwargs):
            calls.append(Path(path).name)
            return original(path, *args, **kwargs)
        monkeypatch.setattr(WorldStore, "load_jsonl", classmethod(counted))
        return calls

    def test_second_load_returns_the_same_objects(self, full_run, load_calls,
                                                  tiny_config_file):
        run, cfg = RunPaths(full_run), load_config(tiny_config_file)
        first = load_world_stores(run, cfg)
        second = load_world_stores(run, cfg)
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert sorted(load_calls) == ["worlds_eval.jsonl", "worlds_train.jsonl"]
        # Every read is still checked and recorded for the manifest.
        assert set(run.verified) == {"worlds_train.jsonl", "worlds_eval.jsonl"}
        split = read_split(run, cfg, "test")
        again = read_split(run, cfg, "test")
        assert again is not split
        assert all(a is b for a, b in zip(split, again, strict=True))

    def test_questions_of_a_split_share_their_vocabulary(self, full_run,
                                                         tiny_config_file):
        run, cfg = RunPaths(full_run), load_config(tiny_config_file)
        split = read_split(run, cfg, "train")
        lines = run.split_file("train").read_text(encoding="utf-8").splitlines()
        assert [json.dumps(qa_to_record(qa), ensure_ascii=False)
                for qa in split] == lines
        for field in ("question_type", "scene_id", "ground_truth"):
            values = [getattr(qa, field) for qa in split]
            assert len({id(v) for v in values}) == len(set(values)), field

    def test_changed_world_file_after_caching_fails_checksum(
            self, full_run, tmp_path, tiny_config_file):
        out = _copy_run(full_run, tmp_path)
        run, cfg = RunPaths(out), load_config(tiny_config_file)
        load_world_stores(run, cfg)
        _append_newline(out / "worlds_train.jsonl")
        with pytest.raises(ChecksumError):
            stage_ground_eval(run, cfg)

    def test_regenerated_worlds_are_parsed_again(self, full_run, tmp_path,
                                                 tiny_config_file, load_calls):
        run = RunPaths(_copy_run(full_run, tmp_path))
        first, _, _ = load_world_stores(run, load_config(tiny_config_file))
        cfg = load_config(tiny_config_file, seed=1)
        stage_gen_world(run, cfg)
        second, _, _ = load_world_stores(run, cfg)
        assert len(load_calls) == 4
        assert sorted(second.scenes) != sorted(first.scenes)


def test_cli_import_loads_no_network_stack_or_logging():
    # A CLI process pays for what it imports; only `--program-source service`
    # needs urllib.request, and logging is loaded only to warn.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import progdistill.cli; print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                            capture_output=True, text=True).stdout.split()
    roots = {name.partition(".")[0] for name in loaded}
    assert "progdistill" in roots
    unwanted = {"urllib.request", "http", "ssl", "socket", "email", "logging"}
    assert sorted(unwanted & (roots | set(loaded))) == []


def test_the_package_imports_only_the_standard_library():
    # Every import statement of the package, those inside functions too,
    # names a standard-library module or one of the package's own.
    package = Path(__file__).resolve().parents[1] / "src" / "progdistill"
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


class TestManifests:
    STUDENTS = {f"students/{kind}.json" for kind in
                ("best_text_match", "simple_query", "verify_property")}
    WORLDS = {"worlds_train.jsonl", "worlds_eval.jsonl"}

    @pytest.mark.parametrize("stage, expected", [
        ("ablate:distilled-count", WORLDS | STUDENTS | {"split_test.jsonl"}),
        ("ablate:trainset-size", WORLDS | {"split_test.jsonl",
                                           "triples.jsonl"}),
        ("ground-eval", WORLDS | STUDENTS),
        # the report renders stored artifacts only: no worlds, no students
        ("report", {"split_test.jsonl", "eval_baseline.json",
                    "eval_distilled.json", "ablate_distilled_count.json",
                    "ablate_trainset_size.json", "grounding.json",
                    "traces_test_baseline.jsonl",
                    "traces_test_distilled.jsonl"}),
        ("evaluate:baseline", WORLDS | {"split_test.jsonl",
                                        "traces_test_baseline.jsonl"}),
    ])
    def test_inputs_are_the_verified_artifacts(self, full_run, stage,
                                               expected):
        run = RunPaths(full_run)
        inputs = json.loads(run.manifest_file(stage).read_text())["inputs"]
        assert set(inputs) == expected
        for path, digest in inputs.items():
            assert digest == sha256_file(full_run / path), path

    @pytest.mark.parametrize("stage, expected", [
        ("evaluate:baseline", {"eval_baseline.json", "eval_baseline.csv",
                               "eval_baseline.txt"}),
        ("ablate:trainset-size", {"ablate_trainset_size.json",
                                  "trainset_curve.csv"}),
    ])
    def test_outputs_are_every_written_file(self, full_run, stage, expected):
        run = RunPaths(full_run)
        outputs = json.loads(run.manifest_file(stage).read_text())["outputs"]
        assert set(outputs) == expected
        for path, digest in outputs.items():
            assert digest == sha256_file(full_run / path), path

    def test_every_file_is_the_output_of_one_manifest(self, full_run):
        manifests = [json.loads(path.read_text()) for path in
                     sorted((full_run / "manifests").iterdir())]
        outputs = sorted(path for m in manifests for path in m["outputs"])
        files = sorted(str(path.relative_to(full_run))
                       for path in full_run.rglob("*") if path.is_file()
                       and path.relative_to(full_run).parts[0] != "manifests")
        assert outputs == files
        assert {path for m in manifests for path in m["inputs"]} <= set(files)

    def test_a_failed_stage_leaves_no_inputs_behind(self, tmp_path,
                                                    tiny_config_file):
        # The trainset-size ablation verifies the worlds and the test split
        # before it finds no harvest; run-programs then reads neither the
        # test split nor anything else the failed stage verified.
        run, cfg = RunPaths(tmp_path / "run"), load_config(tiny_config_file)
        stage_gen_world(run, cfg)
        stage_gen_qa(run, cfg)
        stage_build_dataset(run, cfg)
        with pytest.raises(MissingArtifactError):
            stage_ablate(run, cfg, "trainset-size")
        stage_run_programs(run, cfg, "train", "baseline")
        manifest = run.manifest_file("run-programs:train:baseline")
        assert set(json.loads(manifest.read_text())["inputs"]) == \
            self.WORLDS | {"split_train.jsonl"}


class TestEndToEnd:
    def test_stage_sequence_produces_all_artifacts(self, full_run):
        run = RunPaths(full_run)
        for path in (run.worlds_train, run.qa_train, run.split_file("test"),
                     run.triples, run.student_file("simple_query"),
                     run.eval_file("baseline"), run.eval_file("distilled"),
                     run.ablation_file("distilled-count"),
                     run.grounding_file(), run.report_md, run.report_csv):
            assert path.exists(), path
        # Table-4-shaped output: four rows, counts 0..3
        data = json.loads(run.ablation_file("distilled-count").read_text())
        assert [row["distilled_count"] for row in data["rows"]] == [0, 1, 2, 3]
        # split manifest proves disjointness on every build
        manifest = json.loads(run.split_manifest.read_text())
        assert manifest["disjointness"]["shared_scene_ids"] == 0
        assert manifest["disjointness"]["shared_question_ids"] == 0
        # manifests exist for each stage
        assert run.manifest_file("gen-world").exists()
        assert run.manifest_file("run-programs:test:baseline").exists()

    def test_partial_report_is_pinned(self, full_run):
        """A report without cross-framework or visual-pointer sections; any
        change to the table or CSV rendering shows here."""
        run = RunPaths(full_run)
        assert sha256_file(run.report_md) == (
            "83e2147514f4946067409efb9333cc1dca00628cb7b18ad9c84f0055624b0b16")
        assert sha256_file(run.report_csv) == (
            "62125d1bc73764837488baeed00c0ef42f3ad1d3bfa608ccd683b26fb5ce8925")

    @pytest.mark.parametrize("path, digest", [
        ("students/best_text_match.json",
         "2977a5659a46ae58fefa474ac8558309c4e87fd75c2dab0644da6c339a3bcd72"),
        ("students/simple_query.json",
         "d1459a6ec043466635220d0a4be8ae221fc7554be7eb0a8c97e11dd1bf2286cc"),
        ("students/verify_property.json",
         "6eb6a551d902fe22e600bd31931d73d890821eab8613852861a705f8ddcba334"),
        ("triples.jsonl",
         "a028346d221a3668478ed0da3713bc8ab4aaa527e330a89488af366e890e50fe"),
        ("eval_baseline.json",
         "d4b665a16d9e0e9154f140ed21d356f53d70563b174dbf5a6c87252e3d2d2e4f"),
        ("eval_distilled.json",
         "b9fe1e8d93de938bc6ec651fdda77c4962ca363afae5614b4d3c55bdcad0a9be"),
        ("ablate_trainset_size.json",
         "d596f048a47dd7b0cc3243071df6cc198e7f21763b9f93904dc3e7db1b954de2"),
        ("trainset_curve.csv",
         "c1d8ce3af5428cb338c593be6abe455399332c09ae72295a91e82c4b9ffcd6ed"),
    ])
    def test_distillation_artifacts_are_pinned(self, full_run, path, digest):
        """Every student key, teacher label, answer and error-taxonomy count
        of the tiny run; a drift in any of them shows here."""
        assert sha256_file(full_run / path) == digest

    def test_deleting_downstream_artifacts_leaves_upstream_intact(
            self, tmp_path, tiny_config_file):
        out = tmp_path / "run"
        for step in (["gen-world"], ["gen-qa"], ["build-dataset"],
                     ["run-programs", "--split", "test"], ["evaluate"]):
            assert _run(step + ["--config", tiny_config_file,
                                "--out-dir", str(out)]) == EXIT_OK
        run = RunPaths(out)
        worlds_before = run.worlds_train.read_bytes()
        run.eval_file("baseline").unlink()
        run.traces_file("test", "baseline").unlink()
        # upstream artifacts untouched; the downstream stages just re-run
        assert run.worlds_train.read_bytes() == worlds_before
        assert _run(["run-programs", "--split", "test", "--config",
                     tiny_config_file, "--out-dir", str(out)]) == EXIT_OK
        assert _run(["evaluate", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_OK
        assert run.worlds_train.read_bytes() == worlds_before

    def test_cross_framework_records_the_pointer_setting(self, tmp_path,
                                                         tiny_config_file):
        data = json.loads(Path(tiny_config_file).read_text())
        data["questions"]["visual_pointer"] = False
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = str(tmp_path / "run")
        for step in FULL_SEQUENCE[:6] + [["ablate", "--axis",
                                          "cross-framework"]]:
            assert _run(step + ["--config", str(config),
                                "--out-dir", out]) == EXIT_OK, step
        result = json.loads(RunPaths(out).ablation_file(
            "cross-framework").read_text())
        assert [result[name]["metadata"]["visual_pointer"]
                for name in ("baseline", "transplanted")] == [False, False]

    def test_cross_framework_result_is_pinned(self, full_run, tmp_path,
                                              tiny_config_file):
        """Both coarse-framework reports of the tiny run, the transplanted
        student's answers and the error taxonomy included."""
        out = _copy_run(full_run, tmp_path)
        assert _run(["ablate", "--axis", "cross-framework", "--config",
                     tiny_config_file, "--out-dir", str(out)]) == EXIT_OK
        assert sha256_file(RunPaths(out).ablation_file("cross-framework")) == (
            "26ad742823e7d738c596c5ece4e295bf05a6a7dd1d74cbef4411fd86b1a241b8")

    def test_trainset_curve_uses_the_configured_epochs(self, tmp_path,
                                                        tiny_config_file):
        data = json.loads(Path(tiny_config_file).read_text())
        data["distill"] = {"epochs": 3}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = str(tmp_path / "run")
        for step in FULL_SEQUENCE[:6] + [
                ["run-programs", "--split", "test", "--registry", "distilled"],
                ["evaluate", "--registry", "distilled"],
                ["ablate", "--axis", "trainset-size"]]:
            assert _run(step + ["--config", str(config),
                                "--out-dir", out]) == EXIT_OK, step
        run = RunPaths(out)
        curve = json.loads(run.ablation_file("trainset-size").read_text())
        evaluated = json.loads(run.eval_file("distilled").read_text())
        # The full-size point trains on every triple, as distill did.
        assert curve["curve"][-1]["acc_all"] == evaluated["acc_all"]

    def test_report_cases_are_the_stored_traces(self, tmp_path):
        """The trace diff shows what run-programs stored, also when it ran a
        program other than the split's (one from the program service, say);
        the report reads no worlds and runs nothing."""
        run = RunPaths(tmp_path / "run")
        run.base.mkdir()
        cfg = PipelineConfig()
        qa = QAPair(question_id="s0:q000",
                    question="What color is the flower?", ground_truth="red",
                    program=('ps = image.find("flower")\n'
                             'return ps[0].simple_query('
                             '"What color is this flower?")\n'),
                    question_type="attr_query", scene_id="s0")
        write_jsonl(run.split_file("test"), [qa_to_record(qa)])
        write_stage_manifest(run, "build-dataset", cfg,
                             [run.split_file("test")])
        scene = SceneGraph("s0", (100, 100), (SceneObject(
            "o00", "flower", frozenset({"red"}), (5, 5, 14, 14)),), seed=-1)
        program = parse('return image.simple_query("What color is the flower?")\n')
        for name, answer in (("baseline", "blue"), ("distilled", "red")):
            trace = execute(program, scene, _Answers(answer), qa.question_id)
            write_jsonl(run.traces_file("test", name), [trace_to_record(trace)])
            write_stage_manifest(run, f"run-programs:test:{name}", cfg,
                                 [run.traces_file("test", name)])
            # evaluate records the traces it scored among its inputs.
            run.verified.clear()
            require_artifacts(run, cfg, f"run-programs:test:{name}",
                              [run.traces_file("test", name)])
            run.eval_file(name).write_text(
                json.dumps(score([qa], [trace]).to_dict()))
            write_stage_manifest(run, f"evaluate:{name}", cfg,
                                 [run.eval_file(name)])
        text = stage_report(run, cfg)
        assert text.split("```\n")[1] == (
            "question s0:q000 [attr_query]\n"
            "  text:         What color is the flower?\n"
            "  ground truth: red\n"
            "  program:\n"
            '    return image.simple_query("What color is the flower?")\n'
            "\n"
            "  [baseline ] status=ok branches=[] answer='blue'\n"
            "      step 0: simple_query('What color is the flower?') -> 'blue'\n"
            "  [distilled] status=ok branches=[] answer='red'\n"
            "      step 0: simple_query('What color is the flower?') -> 'red'\n"
            "  verdict: baseline: wrong; distilled: correct\n"
            "\n")

    def test_report_refuses_traces_that_evaluate_did_not_score(
            self, full_run, tmp_path, tiny_config_file, capsys):
        # run-programs rewrote the distilled test traces (here, in reverse
        # order) after `evaluate` scored them: their own manifest agrees with
        # the new file, evaluate's does not.
        out = _copy_run(full_run, tmp_path)
        run = RunPaths(out)
        traces = run.traces_file("test", "distilled")
        write_jsonl(traces, read_jsonl(traces)[::-1])
        manifest = run.manifest_file("run-programs:test:distilled")
        manifest.write_text(_with_outputs(manifest.read_text(), lambda outputs: {
            **outputs, traces.name: sha256_file(traces)}))
        report = run.report_md.read_bytes()
        assert _run(["report", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_CHECKSUM
        assert "traces_test_distilled.jsonl" in capsys.readouterr().err
        assert run.report_md.read_bytes() == report

    def test_distilled_run_requires_students(self, tmp_path, tiny_config_file):
        out = str(tmp_path / "run")
        for step in (["gen-world"], ["gen-qa"], ["build-dataset"]):
            assert _run(step + ["--config", tiny_config_file,
                                "--out-dir", out]) == EXIT_OK
        assert _run(["run-programs", "--split", "test", "--registry",
                     "distilled", "--config", tiny_config_file,
                     "--out-dir", out]) == EXIT_MISSING_ARTIFACT


CANNED = 'return image.simple_query("What is this?")\n'


class _ServiceHandler(BaseHTTPRequestHandler):
    program = CANNED

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        body = json.dumps({"program_text": self.program}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _run_programs_from_service(out, config_file, handler):
    """Build a dataset, then run the test split's programs as `handler`
    serves them; returns the exit code and the stored traces."""
    for step in (["gen-world"], ["gen-qa"], ["build-dataset"]):
        assert _run(step + ["--config", config_file, "--out-dir", out]) == EXIT_OK
    server = HTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/gen"
        code = _run(["run-programs", "--split", "test",
                     "--registry", "baseline",
                     "--program-source", "service",
                     "--service-endpoint", endpoint,
                     "--config", config_file, "--out-dir", out])
    finally:
        server.shutdown()
    return code, read_jsonl(RunPaths(out).traces_file("test", "baseline"))


class TestProgramService:
    def test_run_programs_from_service(self, tmp_path, tiny_config_file):
        code, traces = _run_programs_from_service(
            str(tmp_path / "run"), tiny_config_file, _ServiceHandler)
        assert code == EXIT_OK
        assert traces
        assert all(t["source"] == CANNED for t in traces)

    def test_too_deeply_nested_program_falls_back(self, tmp_path,
                                                  tiny_config_file):
        class DeepHandler(_ServiceHandler):
            program = "return " + "(" * 300 + "True" + ")" * 300 + "\n"

        code, traces = _run_programs_from_service(
            str(tmp_path / "run"), tiny_config_file, DeepHandler)
        assert code == EXIT_OK
        assert traces
        assert all(t["fallback"] for t in traces)

    def test_service_error_can_fall_back_to_templates(self, tmp_path,
                                                      short_timeout_config_file):
        out = str(tmp_path / "run")
        for step in (["gen-world"], ["gen-qa"], ["build-dataset"]):
            assert _run(step + ["--config", short_timeout_config_file,
                                "--out-dir", out]) == EXIT_OK
        code = _run(["run-programs", "--split", "test",
                     "--registry", "baseline",
                     "--program-source", "service",
                     "--service-endpoint", "http://127.0.0.1:1/gone",
                     "--on-service-error", "templates",
                     "--config", short_timeout_config_file, "--out-dir", out])
        assert code == EXIT_OK
        run = RunPaths(out)
        traces = read_jsonl(run.traces_file("test", "baseline"))
        assert traces  # stored template programs ran instead

    def test_service_error_without_fallback_fails(self, tmp_path,
                                                  short_timeout_config_file):
        from progdistill.cli import EXIT_SERVICE
        out = str(tmp_path / "run")
        for step in (["gen-world"], ["gen-qa"], ["build-dataset"]):
            assert _run(step + ["--config", short_timeout_config_file,
                                "--out-dir", out]) == EXIT_OK
        code = _run(["run-programs", "--split", "test",
                     "--registry", "baseline",
                     "--program-source", "service",
                     "--service-endpoint", "http://127.0.0.1:1/gone",
                     "--config", short_timeout_config_file, "--out-dir", out])
        assert code == EXIT_SERVICE

    def test_service_source_without_endpoint_is_config_error(self, tmp_path,
                                                             tiny_config_file,
                                                             monkeypatch):
        from progdistill.service import ENDPOINT_ENV_VAR
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        out = str(tmp_path / "run")
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", out]) == EXIT_OK
        code = _run(["run-programs", "--program-source", "service",
                     "--config", tiny_config_file, "--out-dir", out])
        assert code == EXIT_CONFIG


REGISTRIES = ("baseline", "distilled", "teacher-replacement", "all-oracle")
# (flag, choices, default, required, type) of every subcommand, as the CLI
# has them; --config, --seed and --out-dir come first on each.
COMMON_FLAGS = [("--config", None, None, False, None),
                ("--seed", None, None, False, int),
                ("--out-dir", None, "run", False, None)]
CLI_FLAGS = [
    ("gen-world", []), ("gen-qa", []), ("build-dataset", []), ("harvest", []),
    ("distill", []), ("report", []),
    ("run-programs", [
        ("--split", ("train", "val", "test"), "test", False, None),
        ("--registry", REGISTRIES, "baseline", False, None),
        ("--program-source", ("templates", "service"), "templates", False,
         None),
        ("--service-endpoint", None, None, False, None),
        ("--on-service-error", ("fail", "templates"), "fail", False, None)]),
    ("evaluate", [("--registry", REGISTRIES, "baseline", False, None)]),
    ("ablate", [("--axis", ("distilled-count", "trainset-size",
                            "cross-framework", "visual-pointer"), None, True,
                 None)]),
    ("ground-eval", [("--registries", None, "baseline,distilled", False,
                      None)]),
    ("recipe", []),
]


def test_parser_matches_the_cli():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    shape = [(name, [(a.option_strings[0], a.choices and tuple(a.choices),
                      a.default, a.required, a.type)
                     for a in parser._actions if a.dest != "help"])
             for name, parser in sub.choices.items()]
    assert shape == [(name, COMMON_FLAGS + flags) for name, flags in CLI_FLAGS]


# A config smaller than the tiny one, so that a random example runs a dozen
# commands in well under a second.
SMALL_CONFIG = {"seed": 0, "scenes": {"train": 8, "eval": 6},
                "questions": {"per_scene": [3, 4]},
                "dataset": {"per_type_cap": 8}, "vp_probe": {"scenes": 4}}


def _flag_values(flag, choices, default, required, kind):
    """Command-line words for one flag: left out (unless required) or given
    one of its choices. --registries takes one or two registry names; a
    flag without choices is left out."""
    if choices is not None:
        values = st.sampled_from(choices)
    elif flag == "--registries":
        values = st.lists(st.sampled_from(REGISTRIES), min_size=1,
                          max_size=2).map(",".join)
    else:
        return st.just([])
    given_flag = values.map(lambda value: [flag, value])
    return given_flag if required else st.just([]) | given_flag


_COMMAND_LINES = st.one_of([
    st.tuples(st.just([name]), st.sampled_from([[], ["--seed", "1"]]),
              *(_flag_values(*flag) for flag in flags)).map(
        lambda parts: [word for part in parts for word in part])
    for name, flags in CLI_FLAGS])


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, len(FULL_SEQUENCE)),
       st.lists(_COMMAND_LINES, min_size=1, max_size=4))
def test_random_stage_orders_end_in_an_exit_code(tmp_path_factory, monkeypatch,
                                                 prefix, lines):
    # The first `prefix` steps of FULL_SEQUENCE, then random commands with
    # random flags, over one run directory: every command ends in one of the
    # documented exit codes, never in an uncaught exception.
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    base = tmp_path_factory.mktemp("random")
    config = base / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    for line in FULL_SEQUENCE[:prefix] + lines:
        code = _run(line + ["--config", str(config),
                            "--out-dir", str(base / "run")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MISSING_ARTIFACT,
                        EXIT_CHECKSUM, EXIT_SERVICE), line


class TestDefaults:
    def test_default_config_round_trips(self):
        cfg = PipelineConfig()
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.digest() == cfg.digest()

    def test_every_key_is_unique(self):
        keys = [f.metadata["key"] for f in fields(PipelineConfig)]
        assert len(set(keys)) == len(keys)

    def test_every_field_has_a_reader(self):
        for f in fields(PipelineConfig) + fields(WorldConfig):
            assert f.type in _READERS, f.name

    def test_non_default_config_round_trips(self):
        """Every key off its default: a mistyped key path leaves its field at
        the default, so the file would not come back unchanged."""
        data = {
            "seed": 7,
            "world": {"nouns": ["dog", "cat"],
                      "attribute_families": {"color": ["red", "blue"]},
                      "relations": ["near"], "objects_per_scene": [2, 5],
                      "ambiguity_rate": 0.5, "canvas": [60, 80]},
            "scenes": {"train": 9, "eval": 8},
            "questions": {"per_scene": [3, 4], "fault_rate": 0.1,
                          "visual_pointer": False, "framework": "coarse"},
            "detector": {"miss_rate": 0.2, "seed": 12},
            "corruption": {"seed": 13, "rho": 0.4},
            "students": {"tau": 5, "alpha": 0.5},
            "distill": {"epochs": 2},
            "dataset": {"per_type_cap": 17, "val_scene_share": 0.3},
            "grounding": {"per_scene": [0, 3]},
            "vp_probe": {"scenes": 19, "ambiguity_rate": 0.6},
            "ablation": {"trainset_ratios": [2, 3]},
            "service": {"timeout": 0.7},
        }
        cfg = PipelineConfig.from_dict(data)
        defaults = PipelineConfig()
        assert [f.name for f in fields(PipelineConfig)
                if getattr(cfg, f.name) == getattr(defaults, f.name)] == []
        assert cfg.to_dict() == data
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_default_digest_is_stable(self):
        # Every eval_*.json embeds this digest; a changed key path or
        # serialization of any field shows here.
        assert PipelineConfig().digest() == "a9e4cdb08abddeb7"

    def test_digest_tracks_changes(self):
        cfg = PipelineConfig()
        other = PipelineConfig()
        other.rho = 0.5
        assert cfg.digest() != other.digest()
