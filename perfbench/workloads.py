"""The three benchmark workloads and the checks on their outputs.

Every workload runs the pipeline through its public entry points:
`run_full_recipe` and the `pipeline.stage_*` functions, or the
`progdistill.cli` commands as child processes. One call of `Workload.iterate`
is one timed run of the workload in a fresh run directory; `run.py` makes
each such run in a fresh interpreter (`child.py run`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import DISPATCH_KINDS, STAGES

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

# The wide-vocab world: 40 nouns that pluralize with a plain "s" and three
# attribute families with 17 values, none of them a noun.
WIDE_NOUNS = (
    "flower", "table", "dog", "car", "chair", "book", "cup", "lamp", "tree",
    "bird", "cat", "horse", "boat", "plane", "train", "truck", "bike", "kite",
    "ball", "bottle", "clock", "phone", "laptop", "pillow", "window", "door",
    "fence", "bench", "sign", "bowl", "plate", "spoon", "fork", "umbrella",
    "apple", "banana", "candle", "vase", "mirror", "guitar",
)
WIDE_ATTRIBUTES = {
    "color": ("red", "blue", "green", "yellow", "white", "black", "purple"),
    "size": ("small", "large", "tiny", "huge"),
    "material": ("wooden", "metal", "plastic", "leather", "paper", "stone"),
}

REGISTRIES = ("baseline", "distilled", "teacher-replacement", "all-oracle")
ABLATION_AXES = ("distilled-count", "trainset-size", "cross-framework",
                 "visual-pointer")
DIGEST_PATTERNS = ("report.md", "report_tables.csv", "eval_*.json",
                   "ablate_*.json", "grounding.json", "split_manifest.json",
                   "triples.jsonl", "students/*.json")

# Stage -> end-to-end stage group.
GROUPS = {
    "generate_s": ("gen-world", "gen-qa", "build-dataset"),
    "distill_s": ("run-programs.train", "harvest", "distill"),
    "evaluate_s": ("run-programs.test", "evaluate", "ground-eval", "report"),
    "ablate_s": tuple(f"ablate.{axis}" for axis in ABLATION_AXES),
}

# Input sizes, applied over the default config. "bench", what the benchmark
# measures, is a fifth of the default scale: scenes and per_type_cap both
# scaled down, so the caps still bind and a run takes a few seconds. "tiny"
# is for the smoke run; every stage still runs.
SCALES = {
    "bench": {"scenes": {"train": 140, "eval": 60}, "vp_probe": {"scenes": 40},
              "dataset": {"per_type_cap": 40}},
    "tiny": {"scenes": {"train": 60, "eval": 40}, "vp_probe": {"scenes": 20}},
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log_path: Path,
              timeout: float = 120.0) -> tuple[int, float, float]:
    """Run one child process to completion; (exit code, wall s, peak RSS MB).

    The child's own peak RSS comes from wait4, so it is not mixed with any
    other child of this process. A child still running after `timeout`
    seconds is killed and reads as a failed exit."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def file_digests(run_dir: Path) -> dict[str, str]:
    out = {}
    for pattern in DIGEST_PATTERNS:
        for path in sorted(run_dir.glob(pattern)):
            out[str(path.relative_to(run_dir))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def eval_identity_failures(run_dir: Path, registries) -> list[str]:
    """All/No-NaN accounting identities of each eval_*.json."""
    failures = []
    for name in registries:
        path = run_dir / f"eval_{name.replace('-', '_')}.json"
        if not path.exists():
            failures.append(f"{path.name} missing")
            continue
        rep = json.loads(path.read_text(encoding="utf-8"))
        total, correct, nan = rep["total"], rep["correct"], rep["nan_count"]
        wrong = sum(rep["error_taxonomy"].values()) - nan
        per_type = rep["per_question_type"].values()
        checks = {
            "correct + wrong + nan == total":
                wrong >= 0 and correct + wrong + nan == total,
            "per-type totals add up":
                sum(e["total"] for e in per_type) == total
                and sum(e["correct"] for e in per_type) == correct,
            "acc_all == correct / total":
                total > 0 and math.isclose(rep["acc_all"], correct / total),
            "acc_no_nan == correct / (total - nan)":
                total > nan and math.isclose(rep["acc_no_nan"],
                                             correct / (total - nan)),
            "acc_no_nan >= acc_all": rep["acc_no_nan"] >= rep["acc_all"],
        }
        failures += [f"{path.name}: {name_}" for name_, ok in checks.items()
                     if not ok]
    return failures


@dataclass
class Iteration:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def group(self, name: str) -> float:
        return sum(self.stages.get(stage, 0.0) for stage in GROUPS[name])


class Workload:
    """One workload: `prepare` before the timed region, then `iterate`."""

    name = ""
    registries: tuple[str, ...] = REGISTRIES
    required: tuple[str, ...] = ()
    stages_run: tuple[str, ...] = STAGES
    dispatch_kinds: tuple[str, ...] = DISPATCH_KINDS

    def __init__(self, seed: int, scale: str, work_dir: Path):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        # Set for the traced run of CLI workloads: each command then runs
        # under child.py and writes its spans there; cli_walls maps span
        # file -> command wall time.
        self.traced_spans: Path | None = None
        self.cli_walls: dict[Path, float] = {}
        self.config_dict = self.make_config()
        self.config_path = work_dir / "config.json"

    def make_config(self) -> dict:
        from progdistill.pipeline import PipelineConfig
        data = PipelineConfig(seed=self.seed).to_dict()
        for key, value in SCALES[self.scale].items():
            data[key].update(value)
        return data

    def config(self):
        from progdistill.pipeline import PipelineConfig
        return PipelineConfig.from_dict(self.config_dict)

    def prepare(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config_dict, indent=2),
                                    encoding="utf-8")

    def attach(self) -> None:
        """Take up, in another process, the inputs `prepare` made."""

    def fresh_run_dir(self, index: int) -> Path:
        run_dir = self.work_dir / f"run{index}"
        shutil.rmtree(run_dir, ignore_errors=True)
        return run_dir

    def execute(self, run_dir: Path, it: Iteration) -> None:
        raise NotImplementedError

    def iterate(self, index: int, tracer, start: float) -> Iteration:
        """One timed run, timed from `start` (the interpreter's start, before
        the package import) to the end of the last stage. `tracer` is
        installed by the caller; its spans of `pipeline.stage_*` give the
        stage times of in-process workloads."""
        run_dir = self.fresh_run_dir(index)
        it = Iteration()
        first_span = len(tracer.span_name)
        self.execute(run_dir, it)
        it.wall_s = time.perf_counter() - start
        it.peak_rss_mb = self.peak_rss_mb()
        self.collect_stages(tracer, first_span, it)
        self.check(run_dir, it)
        return it

    @staticmethod
    def collect_stages(tracer, first_span: int, it: Iteration) -> None:
        for i in range(first_span, len(tracer.span_name)):
            stage = tracer.names[tracer.span_name[i]].removeprefix("pipeline.")
            if stage in STAGES:
                it.stages[stage] = it.stages.get(stage, 0.0) + (
                    tracer.span_end[i] - tracer.span_start[i])

    def stage(self, it: Iteration, fn, *args, **kwargs) -> bool:
        """Run one in-process stage; a raised exception is a failed op."""
        it.attempted += 1
        try:
            fn(*args, **kwargs)
        except Exception as exc:  # the benchmark counts, reports and goes on
            it.failures.append(f"{getattr(fn, '__name__', fn)}: "
                               f"{type(exc).__name__}: {exc}")
            return False
        return True

    def check(self, run_dir: Path, it: Iteration) -> None:
        if it.failures:
            return
        for name in self.required:
            it.attempted += 1
            if not (run_dir / name).exists():
                it.failures.append(f"{name} missing")
        it.attempted += len(self.registries)
        it.failures += eval_identity_failures(run_dir, self.registries)
        it.digests = file_digests(run_dir)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that ran the stages: this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def discard(self, index: int) -> None:
        shutil.rmtree(self.work_dir / f"run{index}", ignore_errors=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class Recipe(Workload):
    name = "recipe"
    required = ("report.md", "report_tables.csv", "grounding.json") + tuple(
        f"ablate_{axis.replace('-', '_')}.json" for axis in ABLATION_AXES)

    def execute(self, run_dir, it):
        from progdistill import pipeline
        self.stage(it, pipeline.run_full_recipe, run_dir, self.config())


class WideVocab(Workload):
    name = "wide-vocab"
    registries = ("baseline", "distilled")
    stages_run = ("gen-world", "gen-qa", "build-dataset", "run-programs.train",
                  "harvest", "distill", "run-programs.test", "evaluate")
    required = ("triples.jsonl", "split_manifest.json")

    def make_config(self) -> dict:
        data = super().make_config()
        data["world"]["nouns"] = list(WIDE_NOUNS)
        data["world"]["attribute_families"] = {
            k: list(v) for k, v in WIDE_ATTRIBUTES.items()}
        data["dataset"]["per_type_cap"] = 1000
        return data

    def execute(self, run_dir, it):
        from progdistill import pipeline
        from progdistill.pipeline import RunPaths
        run, cfg = RunPaths(run_dir), self.config()
        steps = [(pipeline.stage_gen_world, ()), (pipeline.stage_gen_qa, ()),
                 (pipeline.stage_build_dataset, ()),
                 (pipeline.stage_run_programs, ("train", "baseline")),
                 (pipeline.stage_harvest, ()), (pipeline.stage_distill, ())]
        for registry in self.registries:
            steps += [(pipeline.stage_run_programs, ("test", registry)),
                      (pipeline.stage_evaluate, (registry,))]
        for fn, args in steps:
            if not self.stage(it, fn, run, cfg, *args):
                return


class Replay(Workload):
    """Read-side CLI commands over one recipe directory built in `prepare`."""

    name = "replay"
    required = ("report.md", "report_tables.csv", "grounding.json",
                "triples.jsonl")
    commands = ([("evaluate", ["--registry", r]) for r in REGISTRIES]
                + [("harvest", []), ("ground-eval", []), ("report", [])])
    stages_run = ("evaluate", "harvest", "ground-eval", "report")
    # Grounding programs always call find; other kinds run here only in the
    # two case reports, whose programs depend on the seed.
    dispatch_kinds = ("find",)
    child_peak = 0.0

    @property
    def base_dir(self) -> Path:
        return self.work_dir / "base"

    def prepare(self) -> None:
        """Build the recipe directory the commands read, in a child process
        (`child.py build`). Not part of set-up time. Building it here would
        raise this process's peak RSS, and on Linux a child's peak RSS starts
        at its parent's (it is kept across exec), so every later process
        would then read as large as the build."""
        super().prepare()
        log = self.work_dir / "build.log"
        code, _, _ = run_child(
            [sys.executable, str(BENCH_DIR / "child.py"), "build",
             "--workload", self.name, "--seed", str(self.seed),
             "--scale", self.scale, "--work-dir", str(self.work_dir)], log)
        if code != 0:
            raise RuntimeError(f"building the replay directory exited {code}; "
                               f"see {log}")
        self.attach()

    def build(self) -> None:
        """All stages up to the report, without the four ablations."""
        from progdistill import pipeline
        from progdistill.pipeline import RunPaths
        shutil.rmtree(self.base_dir, ignore_errors=True)
        run, cfg = RunPaths(self.base_dir), self.config()
        pipeline.stage_gen_world(run, cfg)
        pipeline.stage_gen_qa(run, cfg)
        pipeline.stage_build_dataset(run, cfg)
        pipeline.stage_run_programs(run, cfg, "train", "baseline")
        pipeline.stage_harvest(run, cfg)
        pipeline.stage_distill(run, cfg)
        for registry in REGISTRIES:
            pipeline.stage_run_programs(run, cfg, "test", registry)
            pipeline.stage_evaluate(run, cfg, registry)
        pipeline.stage_ground_eval(run, cfg)
        pipeline.stage_report(run, cfg)

    def attach(self) -> None:
        self.base_digests = file_digests(self.base_dir)

    def fresh_run_dir(self, index: int) -> Path:
        return self.base_dir

    def discard(self, index: int) -> None:
        pass

    def execute(self, run_dir, it):
        log = self.work_dir / "cli.log"
        for index, (command, extra) in enumerate(self.commands):
            argv = [command, "--config", str(self.config_path),
                    "--out-dir", str(run_dir)] + extra
            spans = None
            if self.traced_spans is None:
                argv = [sys.executable, "-m", "progdistill.cli"] + argv
            else:
                spans = self.traced_spans / f"cli-{index:02d}-{command}.spans"
                argv = [sys.executable, str(BENCH_DIR / "child.py"), "cli",
                        "--spans", str(spans), "--"] + argv
            it.attempted += 1
            code, wall, peak = run_child(argv, log)
            self.child_peak = max(self.child_peak, peak)
            if spans is not None:
                self.cli_walls[spans] = wall
            it.stages[command] = it.stages.get(command, 0.0) + wall
            if code != 0:
                it.failures.append(f"cli {command} {' '.join(extra)} exited "
                                   f"{code}; see {log}")
                return

    def iterate(self, index, tracer, start):
        it = super().iterate(index, tracer, start)
        # The commands rewrite what the recipe wrote: same bytes expected.
        if it.digests:
            it.attempted += 1
            if it.digests != self.base_digests:
                it.failures.append("replayed outputs differ from the recipe's")
        return it

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest CLI command."""
        return self.child_peak


WORKLOADS = {cls.name: cls for cls in (Recipe, WideVocab, Replay)}
