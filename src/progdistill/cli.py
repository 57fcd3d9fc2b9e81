"""Command-line pipeline driver.

Every command reads a JSON config file (see README for the schema) plus flag
overrides, writes its artifacts into --out-dir, and records a manifest with
input/output checksums. Exit codes: 0 ok, 2 invalid config, 3 missing
upstream artifact, 4 checksum mismatch, 5 program-service error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .pipeline import (ABLATION_AXES, ChecksumError, ConfigError,
                       MissingArtifactError, PipelineConfig, PipelineError,
                       REGISTRY_NAMES, RunPaths, load_config, run_full_recipe,
                       stage_ablate, stage_build_dataset, stage_distill,
                       stage_evaluate, stage_gen_qa, stage_gen_world,
                       stage_ground_eval, stage_harvest, stage_report,
                       stage_run_programs)
from .service import ENDPOINT_ENV_VAR, ProgramServiceClient, ServiceError

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_MISSING_ARTIFACT = MissingArtifactError.exit_code
EXIT_CHECKSUM = ChecksumError.exit_code
EXIT_SERVICE = ServiceError.exit_code

Action = Callable[[argparse.Namespace, RunPaths, PipelineConfig], str]


class Command(NamedTuple):
    """One subcommand: its flags besides --config/--seed/--out-dir, and the
    action that runs it and returns what it prints."""
    name: str
    help: str
    flags: tuple[tuple[tuple[str, ...], dict], ...]
    action: Action


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


def _json_line(value) -> str:
    return json.dumps(value, sort_keys=True) + "\n"


def _quiet(stage: Callable, *flag_names: str) -> Action:
    """Run `stage` with the values of the named flags; print nothing."""
    def action(args, run, cfg) -> str:
        stage(run, cfg, *(getattr(args, name) for name in flag_names))
        return ""
    return action


def _run_programs(args, run, cfg) -> str:
    client = None
    if args.program_source == "service":
        endpoint = args.service_endpoint or os.environ.get(ENDPOINT_ENV_VAR, "")
        if not endpoint:
            raise ConfigError(f"--program-source service needs "
                              f"--service-endpoint or ${ENDPOINT_ENV_VAR}")
        client = ProgramServiceClient(endpoint, timeout=cfg.service_timeout)
    stage_run_programs(run, cfg, args.split, args.registry,
                       program_source=args.program_source,
                       service_client=client,
                       on_service_error=args.on_service_error)
    return ""


def _ground_eval(args, run, cfg) -> str:
    result = stage_ground_eval(run, cfg, tuple(args.registries.split(",")))
    return _json_line({k: v for k, v in result.items() if k != "cases"})


_REGISTRY = _flag("--registry", choices=REGISTRY_NAMES, default="baseline")

# In the order `--help` lists them.
COMMANDS: tuple[Command, ...] = (
    Command("gen-world", "generate the train/eval scene stores", (),
            _quiet(stage_gen_world)),
    Command("gen-qa", "generate question/program pools over the scenes", (),
            _quiet(stage_gen_qa)),
    Command("build-dataset", "balance pools into train/val/test splits", (),
            lambda a, run, cfg: _json_line(
                stage_build_dataset(run, cfg)["disjointness"])),
    Command("harvest", "harvest teacher pseudo-labels from stored traces", (),
            lambda a, run, cfg: f"harvested {stage_harvest(run, cfg)} triples\n"),
    Command("distill", "train table students on harvested triples", (),
            lambda a, run, cfg: _json_line(
                stage_distill(run, cfg)["keys_at_threshold"])),
    Command("report", "render stored results into report.md / CSV tables", (),
            lambda a, run, cfg: stage_report(run, cfg)),
    Command("run-programs", "execute programs over a split", (
        _flag("--split", choices=("train", "val", "test"), default="test"),
        _REGISTRY,
        _flag("--program-source", choices=("templates", "service"),
              default="templates"),
        _flag("--service-endpoint", default=None,
              help=f"program service URL (default: ${ENDPOINT_ENV_VAR})"),
        _flag("--on-service-error", choices=("fail", "templates"),
              default="fail",
              help="fall back to stored template programs on service errors"),
    ), _run_programs),
    Command("evaluate", "score stored traces for the test split", (_REGISTRY,),
            lambda a, run, cfg: stage_evaluate(run, cfg, a.registry).to_text()),
    Command("ablate", "run an ablation or transfer experiment",
            (_flag("--axis", choices=ABLATION_AXES, required=True),),
            _quiet(stage_ablate, "axis")),
    Command("ground-eval", "referring-expression IoU evaluation",
            (_flag("--registries", default="baseline,distilled",
                   help="comma-separated registry names"),),
            _ground_eval),
    Command("recipe", "run every stage end to end", (),
            lambda a, run, cfg: "recipe complete; see "
            f"{run_full_recipe(run.base, cfg).report_md}\n"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progdistill",
        description="step-wise distillation pipeline over synthetic scene worlds")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out-dir", default="run", help="run directory")
        for names, kwargs in command.flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(action=command.action)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        print(args.action(args, RunPaths(args.out_dir), cfg), end="")
    except (PipelineError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
