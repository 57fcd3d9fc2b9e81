"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/suite.py                      # seed 0, all workloads
    python3 perfbench/suite.py --seeds 1-10 --trace --out FILE
    python3 perfbench/suite.py --smoke              # tiny scale, trace 0 and 1

Every workload of BENCHMARK.json runs for its `run_seconds` (the smoke run:
one second). Each run is `perfbench/run.py` in its own process. With several
seeds, each end-to-end metric is reported as median and quartiles over the
seeds, with its spread (interquartile range over median) against the bound
fixed in BENCHMARK.json; a spread above a third of its bound is flagged.
With --trace, the tracing overhead per workload is reported too. Exits
non-zero if any run's outputs fail their checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SMOKE_SECONDS = 1.0


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int,
            scale: str) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace",
            str(trace), "--scale", scale]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    result_file = STATE / "results" / (f"{workload}-seed{seed}-{scale}"
                                       f"-trace{trace}.json")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    return {"summary": summary, "result": result, "stderr": proc.stderr}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 1,4")
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one second, traced and untraced")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scale, seconds = "bench", bench["run_seconds"]
    if args.smoke:
        scale, seconds, args.trace = "tiny", SMOKE_SECONDS, True
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}

    problems: list[str] = []
    out: dict = {"seeds": seeds, "seconds": seconds, "scale": scale,
                 "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            one = run_one(workload, seed, seconds, 0, scale)
            runs.append(one)
            if set(one["summary"]["metrics"]) != set(e2e):
                problems.append(f"{workload} seed {seed}: end-to-end metric "
                                f"names differ from BENCHMARK.json")
            if not one["summary"]["correct"]:
                problems.append(f"{workload} seed {seed}: "
                                f"{one['result']['failures']}")
        entry: dict = {"provenance": runs[0]["result"]["provenance"],
                       "metrics": {}}
        print(f"\n== {workload}: {len(runs)} run(s), seeds {args.seeds}, "
              f"{seconds:g} s each")
        for name, meta in runs[0]["result"]["end_to_end"].items():
            values = [r["result"]["end_to_end"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = e2e.get(name, {}).get("bound")
            entry["metrics"][name] = {
                "unit": meta["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
                "runs_per_seed": [r["result"]["end_to_end"][name]["runs"]
                                  for r in runs]}
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <- spread above a third of the bound"
            gate = f"bound {bound:.2f}" if bound is not None else "not gated"
            print(f"  {name:<14} median {med:10.4f} {meta['unit']:<6} "
                  f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f} "
                  f"({gate}){flag}")
        if args.trace:
            traced = run_one(workload, seeds[0], seconds, 1, scale)
            metrics = traced["summary"]["metrics"]
            if set(metrics) != layer_names:
                problems.append(f"{workload}: per-layer metric names differ "
                                f"from BENCHMARK.json")
            if not traced["summary"]["correct"]:
                problems.append(f"{workload} traced: "
                                f"{traced['result']['failures']}")
            base = metrics["trace.base_wall_s"]["value"]
            over = metrics["trace.overhead_s"]["value"]
            entry["trace"] = {name: m["value"] for name, m in metrics.items()}
            print(f"  tracing overhead {over:.3f} s on an untraced wall of "
                  f"{base:.3f} s ({100 * over / base:.1f}%), "
                  f"{metrics['trace.spans']['value']} spans")
        out["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
