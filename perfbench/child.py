"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup --config CONFIG
        Import the package and resolve the workload config, then exit; the
        parent times the whole process as one set-up sample.

    python3 perfbench/child.py build --workload replay --seed N --scale S
            --work-dir DIR
        Build the run directory that `replay` reads, under DIR.

    python3 perfbench/child.py run --workload W --seed N --scale S
            --index I --work-dir DIR --out FILE [--trace-dir DIR]
        Make run I of a workload that `run.py` has prepared in DIR, in this
        fresh interpreter, and write its outcome to FILE as JSON. Its wall
        time runs from this interpreter's start, before the package import,
        to the end of the last stage. With --trace-dir, the span tracer is
        installed and the spans of this process (and of its CLI children)
        go to that directory.

    python3 perfbench/child.py cli --spans FILE -- <progdistill CLI args>
        Run one `progdistill.cli` command with the span tracer installed and
        write its spans to FILE; exits with the command's exit code.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (START comes first)
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    for mode in ("build", "run"):
        p = sub.add_parser(mode)
        for flag in ("--workload", "--scale", "--work-dir"):
            p.add_argument(flag, required=True)
        p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-dir", default=None)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    if args.mode == "setup":
        import progdistill.cli  # noqa: F401  (imports every module)
        from progdistill.pipeline import load_config
        load_config(args.config).world.validate()
        return 0

    if args.mode == "build":
        make_workload(args).build()
        return 0
    if args.mode == "run":
        return one_run(args)

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
    from progdistill import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(Path(args.spans))


def make_workload(args):
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](args.seed, args.scale, Path(args.work_dir))


def one_run(args) -> int:
    """One run; untraced, the tracer wraps only the `pipeline.stage_*`
    functions, for the stage times."""
    from tracer import Tracer
    workload = make_workload(args)
    workload.attach()
    tracer = Tracer()
    if args.trace_dir:
        workload.traced_spans = Path(args.trace_dir)
        tracer.install()
    else:
        tracer.install(layers=())
    tracer.run_id = args.index
    try:
        it = workload.iterate(args.index, tracer, START)
    finally:
        tracer.uninstall()
    workload.discard(args.index)
    if args.trace_dir:
        tracer.write(Path(args.trace_dir) / "main.spans")
    out = dataclasses.asdict(it)
    out["cli_walls"] = {str(path): wall
                        for path, wall in workload.cli_walls.items()}
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
