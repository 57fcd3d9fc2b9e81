"""progdistill benchmark: one workload, one run.

    python3 perfbench/run.py --workload recipe --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The package is imported from `src/` of that
checkout. The workload's inputs are prepared before the timed region. Then
its runs go back to back, one at a time (a closed loop with one client), each
in a fresh interpreter (`child.py run`), so no module-level state carries over
from one run to the next: at least once, and again while one more run, as
long as the mean run so far, would end within `--seconds`. Before each run,
two set-up probes time a fresh interpreter that imports the package and
resolves the config. Every run's outputs are checked. The last line of stdout
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics: run times as the mean over the
runs (their total over their count), the set-up time as the median of the
probes. `--trace 1` adds one traced run after the untraced ones and reports
its per-layer metrics plus the tracing overhead against the untraced mean. The
full result, with provenance, output digests and every stage time, is
written under `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
# Set-up probes made before each run, and the fewest made in one invocation
# (the rest follow the last run).
PROBES_PER_RUN = 2
SETUP_PROBES = 12

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Stage groups and the error rate: in the result file and the suite summary,
# and (stage groups, from the untraced runs) among the per-layer metrics. Not
# gated: some workloads lack some stages and would read 0.
EXTRA_END_TO_END = [("generate_s", "s"), ("distill_s", "s"),
                    ("evaluate_s", "s"), ("ablate_s", "s"),
                    ("error_rate", "ratio")]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the traced run's metrics, in report order."""
    from tracer import DISPATCH_KINDS, STAGES, reported_spans
    from workloads import GROUPS
    out = [(f"pipeline.{group}", "s") for group in GROUPS]
    out += [(f"pipeline.{stage}.s", "s") for stage in STAGES]
    for name in reported_spans():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [("dsl.parse.errors", "count"), ("dsl.parse.distinct_ratio", "ratio"),
            ("interpreter.run_with_fallback.nan", "count"),
            ("interpreter.run_with_fallback.fallback", "count")]
    out += [(f"backends.dispatch.{kind}.errors", "count")
            for kind in DISPATCH_KINDS]
    out += [("backends.dispatch.distinct_ratio", "ratio"),
            ("backends.verify.accept_ratio", "ratio"),
            ("worlds.full_patch.distinct_ratio", "ratio"),
            ("questions.parser.parse.distinct_ratio", "ratio"),
            ("adapter.adapt_step.errors", "count"),
            ("util.read_jsonl.records", "count"),
            ("util.write_jsonl.records", "count"),
            ("util.sha256_file.bytes", "bytes"),
            ("cli.process_s", "s"), ("trace.base_wall_s", "s"),
            ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
            ("trace.spans", "count")]
    return out


def provenance(args, runs: int) -> dict:
    files = sorted((SRC / "progdistill").glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    revision, dirty = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"], check=True, capture_output=True,
                text=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_revision": revision,
            "git_dirty": dirty, "src_sha256": h.hexdigest(),
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace, "runs": runs}


def measure_setup(workload, probes: int) -> list[float]:
    """Wall times of `probes` fresh interpreters that import the package and
    resolve the workload's config file: what a user waits for before the
    first stage starts."""
    from workloads import run_child
    samples = []
    log = workload.work_dir / "setup.log"
    for _ in range(probes):
        code, wall, _ = run_child(
            [sys.executable, str(BENCH_DIR / "child.py"), "setup",
             "--config", str(workload.config_path)], log)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {log}")
        samples.append(wall)
    return samples


def check_digests(args, iterations) -> list[str]:
    """Seed-commit digests for the reference seed and scale; otherwise every
    run of this invocation must reproduce the first run's bytes."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref = reference.get(args.workload, {})
    failures = []
    for index, it in enumerate(iterations):
        if not it.digests:
            continue
        if (args.scale, args.seed) == (ref.get("scale"), ref.get("seed")):
            expected, source = ref["digests"], "seed-commit reference"
        elif index > 0 and iterations[0].digests:
            expected, source = iterations[0].digests, "first run"
        else:
            continue
        it.attempted += 1
        diff = sorted(k for k in expected.keys() | it.digests.keys()
                      if expected.get(k) != it.digests.get(k))
        if diff:
            failures.append(f"run {index}: outputs differ from the {source}: "
                            f"{', '.join(diff)}")
    return failures


def one_run(args, workload, index: int, trace_dir: Path | None = None):
    """Run `index` of the workload in a fresh interpreter (`child.py run`).
    With `trace_dir`, the run is traced and its spans land there; a missing
    wrapped function stops the benchmark."""
    from workloads import Iteration, run_child
    out = workload.work_dir / f"run{index}.json"
    log = workload.work_dir / "run.log"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "run",
            "--workload", args.workload, "--seed", str(args.seed),
            "--scale", args.scale, "--index", str(index),
            "--work-dir", str(workload.work_dir), "--out", str(out)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    code, _, _ = run_child(argv, log)
    if code != 0:
        raise RuntimeError(f"run {index} exited {code}:\n"
                           f"{log.read_text(encoding='utf-8')[-3000:]}")
    data = json.loads(out.read_text(encoding="utf-8"))
    workload.cli_walls = {Path(p): wall for p, wall in data.pop("cli_walls").items()}
    return Iteration(**data)


def layer_metrics(workload, agg: dict, untraced: list,
                  traced) -> tuple[dict, list[str]]:
    """Per-layer values of the traced run `traced`; stage groups and the
    overhead base are means over the `untraced` runs before it."""
    from tracer import LAYERS, MAY_BE_UNCALLED
    from workloads import GROUPS
    stats, counters, distinct = agg["stats"], agg["counters"], agg["distinct"]

    def calls(name):
        return stats.get(name, [0])[0]

    values: dict[str, float] = {
        f"pipeline.{group}": statistics.fmean(it.group(group) for it in untraced)
        for group in GROUPS}
    for name, _unit in per_layer_metrics():
        base_name, _, field = name.rpartition(".")
        if name in values:
            continue
        if name.startswith("pipeline.") and field == "s":
            values[name] = stats.get(base_name, [0, 0.0])[1]
        elif field == "calls":
            values[name] = calls(base_name)
        elif field == "self_s":
            values[name] = stats.get(base_name, [0, 0.0, 0.0])[2]
        elif field == "errors":
            values[name] = stats.get(base_name, [0, 0.0, 0.0, 0])[3]
        elif field == "distinct_ratio":
            total = (sum(calls(n) for n in stats if n.startswith(base_name + "."))
                     if base_name == "backends.dispatch" else calls(base_name))
            values[name] = distinct.get(base_name, 0) / total if total else 0.0
        elif name == "backends.verify.accept_ratio":
            total = calls("backends.verify")
            values[name] = counters.get("backends.verify.accept", 0) / total \
                if total else 0.0
        elif name in ("interpreter.run_with_fallback.nan",
                      "interpreter.run_with_fallback.fallback",
                      "util.read_jsonl.records", "util.write_jsonl.records",
                      "util.sha256_file.bytes"):
            values[name] = counters.get(name, 0)
    values["cli.process_s"] = agg["cli_process_s"]
    base_wall = statistics.fmean(it.wall_s for it in untraced)
    values["trace.base_wall_s"] = base_wall
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - base_wall
    values["trace.spans"] = agg["spans"]

    # Coverage: every layer and stage this workload runs must show calls.
    spans = [name for _, _, name, _ in LAYERS] + ["backends.verify"]
    spans = [name for name in spans
             if name not in MAY_BE_UNCALLED[workload.name]]
    if "backends.dispatch" in spans:
        spans.remove("backends.dispatch")
        spans += [f"backends.dispatch.{k}" for k in workload.dispatch_kinds]
    spans += [f"pipeline.{stage}" for stage in workload.stages_run]
    failures = [f"coverage: {name} recorded no calls" for name in spans
                if calls(name) == 0]
    return values, failures


def run(args) -> dict:
    if not (SRC / "progdistill" / "__init__.py").exists():
        raise SystemExit(f"error: no package at {SRC / 'progdistill'}; run "
                         f"from the root of a progdistill checkout")
    sys.path.insert(0, str(SRC))
    import progdistill
    if Path(progdistill.__file__).resolve().parent != (SRC / "progdistill").resolve():
        raise SystemExit(f"error: imported progdistill from {progdistill.__file__}")
    from tracer import aggregate, read_spans
    from workloads import GROUPS, WORKLOADS

    work_dir = STATE / "work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, work_dir)
    workload.prepare()

    # Probes and runs interleave, so that a slow spell of a shared host
    # skews a few of each rather than all of one.
    setup_samples: list[float] = []
    iterations = []
    started = time.perf_counter()
    while True:
        setup_samples += measure_setup(workload, PROBES_PER_RUN)
        it = one_run(args, workload, len(iterations))
        iterations.append(it)
        elapsed = time.perf_counter() - started
        # One more run only if, as long as the mean so far, it would end
        # within --seconds.
        if it.failures or elapsed * (1 + 1 / len(iterations)) > args.seconds:
            break
    setup_samples += measure_setup(
        workload, max(0, SETUP_PROBES - len(setup_samples)))

    metrics: dict[str, dict] = {}
    if args.trace:
        trace_dir = STATE / "trace" / args.workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        traced = one_run(args, workload, len(iterations), trace_dir)
        files = [read_spans(p) for p in sorted(trace_dir.glob("*.spans"))]
        agg = aggregate(files)
        agg["cli_process_s"] = sum(
            wall - _main_seconds(read_spans(path))
            for path, wall in workload.cli_walls.items())
        values, coverage = layer_metrics(workload, agg, iterations, traced)
        traced.failures += coverage
        traced.attempted += 1
        for name, unit in per_layer_metrics():
            metrics[name] = {"value": values[name], "unit": unit}
    timed = list(iterations)
    if args.trace:
        iterations.append(traced)
    failures = check_digests(args, iterations)
    for it in iterations:
        failures += it.failures
    attempted = sum(it.attempted for it in iterations)

    e2e = {
        # The mean, not the median: the host alternates between a fast and a
        # slow state, and a median jumps between them (see README, Noise).
        "wall_s": statistics.fmean(it.wall_s for it in timed),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(it.peak_rss_mb for it in timed),
        "error_rate": len(failures) / attempted,
    }
    for group in GROUPS:
        e2e[group] = statistics.fmean(it.group(group) for it in timed)
    if not args.trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": unit}

    result = {"provenance": provenance(args, len(timed))}
    result["end_to_end"] = {
        name: {"value": e2e[name], "unit": unit, "runs": len(timed)}
        for name, unit in END_TO_END + EXTRA_END_TO_END}
    result["setup_samples"] = setup_samples
    result["runs"] = [{"wall_s": it.wall_s, "stages": it.stages,
                       "digests": it.digests, "failures": it.failures}
                      for it in iterations]
    result["failures"] = failures
    result["summary"] = {"correct": not failures, "attempted": attempted,
                         "failed": len(failures), "metrics": metrics}
    workload.cleanup()
    return result


def _main_seconds(data: dict) -> float:
    """In-`main` time of one traced CLI child: its cli.main span."""
    names = data["names"]
    name_ids, _, _, _, starts, ends = data["arrays"]
    return sum(e - s for nid, s, e in zip(name_ids, starts, ends)
               if names[nid] == "cli.main")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="tiny: a few dozen scenes, for the smoke run")
    args = parser.parse_args(argv)
    result = run(args)

    out = STATE / "results" / (f"{args.workload}-seed{args.seed}-{args.scale}"
                               f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} runs={result['provenance']['runs']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    shown = result["summary"]["metrics"] if args.trace else result["end_to_end"]
    for name, entry in shown.items():
        print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
