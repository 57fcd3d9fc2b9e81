import argparse
import json
import shutil
import threading
from dataclasses import fields
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from progdistill.cli import (EXIT_CHECKSUM, EXIT_CONFIG,
                             EXIT_MISSING_ARTIFACT, EXIT_OK, build_parser,
                             main)
from progdistill.pipeline import (CONFIG_SCHEMA, ConfigError, PipelineConfig,
                                  RunPaths, load_config)
from progdistill.util import read_jsonl, sha256_file


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

    def test_tampered_artifact_fails_checksum(self, tmp_path, tiny_config_file):
        out = tmp_path / "run"
        assert _run(["gen-world", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_OK
        worlds = out / "worlds_train.jsonl"
        worlds.write_text(worlds.read_text() + "\n")
        assert _run(["gen-qa", "--config", tiny_config_file,
                     "--out-dir", str(out)]) == EXIT_CHECKSUM

    @pytest.mark.parametrize("command", [
        ["harvest"], ["distill"], ["evaluate"], ["ground-eval"], ["report"]])
    def test_changed_worlds_fail_checksum_downstream(self, full_run, tmp_path,
                                                     tiny_config_file,
                                                     command):
        out = _copy_run(full_run, tmp_path)
        _append_newline(out / "worlds_train.jsonl")
        assert _run(command + ["--config", tiny_config_file,
                               "--out-dir", str(out)]) == EXIT_CHECKSUM

    @pytest.mark.parametrize("changed, command", [
        ("split_test.jsonl", ["evaluate"]),
        ("eval_baseline.json", ["report"]),
    ])
    def test_changed_input_fails_checksum(self, full_run, tmp_path,
                                          tiny_config_file, changed, command):
        out = _copy_run(full_run, tmp_path)
        _append_newline(out / changed)
        assert _run(command + ["--config", tiny_config_file,
                               "--out-dir", str(out)]) == EXIT_CHECKSUM


class TestManifests:
    STUDENTS = {f"students/{kind}.json" for kind in
                ("best_text_match", "simple_query", "verify_property")}
    WORLDS = {"worlds_train.jsonl", "worlds_eval.jsonl"}

    @pytest.mark.parametrize("stage, expected", [
        ("ablate:distilled-count", WORLDS | STUDENTS | {"split_test.jsonl"}),
        ("ablate:trainset-size", WORLDS | {"split_test.jsonl",
                                           "triples.jsonl"}),
        ("ground-eval", WORLDS | STUDENTS),
        # no baseline-wrong, distilled-right question at this scale, so the
        # report builds no registry and reads no students
        ("report", WORLDS | {"split_test.jsonl", "eval_baseline.json",
                             "eval_distilled.json",
                             "ablate_distilled_count.json",
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
        assert {entry["path"] for entry in outputs.values()} == expected


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
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        body = json.dumps({"program_text": CANNED}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestProgramService:
    def test_run_programs_from_service(self, tmp_path, tiny_config_file):
        out = str(tmp_path / "run")
        for step in (["gen-world"], ["gen-qa"], ["build-dataset"]):
            assert _run(step + ["--config", tiny_config_file,
                                "--out-dir", out]) == EXIT_OK
        server = HTTPServer(("127.0.0.1", 0), _ServiceHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            endpoint = f"http://127.0.0.1:{server.server_port}/gen"
            code = _run(["run-programs", "--split", "test",
                         "--registry", "baseline",
                         "--program-source", "service",
                         "--service-endpoint", endpoint,
                         "--config", tiny_config_file, "--out-dir", out])
            assert code == EXIT_OK
        finally:
            server.shutdown()
        run = RunPaths(out)
        traces = read_jsonl(run.traces_file("test", "baseline"))
        assert traces
        assert all(t["source"] == CANNED for t in traces)

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


class TestDefaults:
    def test_default_config_round_trips(self):
        cfg = PipelineConfig()
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.digest() == cfg.digest()

    def test_every_field_has_exactly_one_schema_entry(self):
        names = [entry.field for entry in CONFIG_SCHEMA]
        assert sorted(names) == sorted(f.name for f in fields(PipelineConfig))
        assert len(set(entry.key for entry in CONFIG_SCHEMA)) == len(names)

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
