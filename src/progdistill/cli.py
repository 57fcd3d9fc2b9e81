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

from .pipeline import (ABLATION_AXES, ChecksumError, ConfigError,
                       MissingArtifactError, PipelineError, REGISTRY_NAMES,
                       RunPaths, load_config, run_full_recipe, stage_ablate,
                       stage_build_dataset, stage_distill, stage_evaluate,
                       stage_gen_qa, stage_gen_world, stage_ground_eval,
                       stage_harvest, stage_report, stage_run_programs)
from .service import ENDPOINT_ENV_VAR, ProgramServiceClient, ServiceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_CHECKSUM = 4
EXIT_SERVICE = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out-dir", default="run", help="run directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progdistill",
        description="step-wise distillation pipeline over synthetic scene worlds")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("gen-world", "generate the train/eval scene stores"),
        ("gen-qa", "generate question/program pools over the scenes"),
        ("build-dataset", "balance pools into train/val/test splits"),
        ("harvest", "harvest teacher pseudo-labels from stored traces"),
        ("distill", "train table students on harvested triples"),
        ("report", "render stored results into report.md / CSV tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("run-programs", help="execute programs over a split")
    _add_common(p)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--registry", choices=REGISTRY_NAMES, default="baseline")
    p.add_argument("--program-source", choices=("templates", "service"),
                   default="templates")
    p.add_argument("--service-endpoint", default=None,
                   help=f"program service URL (default: ${ENDPOINT_ENV_VAR})")
    p.add_argument("--on-service-error", choices=("fail", "templates"),
                   default="fail",
                   help="fall back to stored template programs on service errors")

    p = sub.add_parser("evaluate", help="score stored traces for the test split")
    _add_common(p)
    p.add_argument("--registry", choices=REGISTRY_NAMES, default="baseline")

    p = sub.add_parser("ablate", help="run an ablation or transfer experiment")
    _add_common(p)
    p.add_argument("--axis", choices=ABLATION_AXES, required=True)

    p = sub.add_parser("ground-eval", help="referring-expression IoU evaluation")
    _add_common(p)
    p.add_argument("--registries", default="baseline,distilled",
                   help="comma-separated registry names")

    p = sub.add_parser("recipe", help="run every stage end to end")
    _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        run = RunPaths(args.out_dir)
        command = args.command
        if command == "gen-world":
            stage_gen_world(run, cfg)
        elif command == "gen-qa":
            stage_gen_qa(run, cfg)
        elif command == "build-dataset":
            manifest = stage_build_dataset(run, cfg)
            print(json.dumps(manifest["disjointness"], sort_keys=True))
        elif command == "run-programs":
            client = None
            if args.program_source == "service":
                endpoint = args.service_endpoint or os.environ.get(
                    ENDPOINT_ENV_VAR, "")
                if not endpoint:
                    raise ConfigError(
                        f"--program-source service needs --service-endpoint "
                        f"or ${ENDPOINT_ENV_VAR}")
                client = ProgramServiceClient(endpoint,
                                              timeout=cfg.service_timeout)
            stage_run_programs(run, cfg, args.split, args.registry,
                               program_source=args.program_source,
                               service_client=client,
                               on_service_error=args.on_service_error)
        elif command == "harvest":
            count = stage_harvest(run, cfg)
            print(f"harvested {count} triples")
        elif command == "distill":
            report = stage_distill(run, cfg)
            print(json.dumps(report["keys_at_threshold"], sort_keys=True))
        elif command == "evaluate":
            report = stage_evaluate(run, cfg, args.registry)
            print(report.to_text(), end="")
        elif command == "ablate":
            stage_ablate(run, cfg, args.axis)
        elif command == "ground-eval":
            result = stage_ground_eval(
                run, cfg, tuple(args.registries.split(",")))
            print(json.dumps({k: v for k, v in result.items() if k != "cases"},
                             sort_keys=True))
        elif command == "report":
            print(stage_report(run, cfg), end="")
        elif command == "recipe":
            run_full_recipe(args.out_dir, cfg)
            print(f"recipe complete; see {run.report_md}")
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except ChecksumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
