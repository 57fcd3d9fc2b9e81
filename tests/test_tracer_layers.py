"""The benchmark's tracer (`perfbench/tracer.py`) wraps `progdistill`
functions by name. A rename under `src/` must fail here, in the unit tests,
and not only in the benchmark's smoke run."""

import importlib
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# The benchmark's modules import each other by bare name.
sys.path.insert(0, str(BENCH_DIR))
try:
    import run as bench
    import tracer
    import workloads
finally:
    sys.path.remove(str(BENCH_DIR))

TRACED = ([(module, path) for module, path, _, _ in tracer.LAYERS]
          + [("pipeline", func) for func in tracer.STAGE_FUNCS])


@pytest.mark.parametrize("module_name, path", TRACED,
                         ids=[f"{m}.{p}" for m, p in TRACED])
def test_traced_function_resolves(module_name, path):
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    _, _, raw = tracer._resolve(module, path)
    assert callable(raw) or isinstance(raw, classmethod)


# The sizes of the tests' tiny recipe, over the workload's own config.
TINY = {"scenes": {"train": 20, "eval": 10}, "questions": {"per_scene": [4, 6]},
        "vp_probe": {"scenes": 5}}


@pytest.mark.parametrize("name", ["recipe", "wide-vocab"])
def test_tiny_workload_passes_the_traced_benchmarks_checks(name, tmp_path):
    # The traced benchmark run fails when a hook meets a return value it
    # cannot read, or when a layer, dispatch kind or stage that the workload
    # runs records no calls. Both must fail here first.
    workload = workloads.WORKLOADS[name](0, "tiny", tmp_path)
    for section, values in TINY.items():
        workload.config_dict[section].update(values)
    if name == "recipe":
        workload.config_dict["dataset"]["per_type_cap"] = 20
    workload.prepare()
    t = tracer.Tracer()
    t.install()
    try:
        it = workload.iterate(0, t, time.perf_counter())
    finally:
        t.uninstall()
    assert it.failures == []
    agg = tracer.aggregate([{
        "names": t.names, "counters": t.counters, "distinct": t.distinct,
        "arrays": [t.span_name, t.span_parent, t.span_run, t.span_err,
                   t.span_start, t.span_end]}])
    agg["cli_process_s"] = 0.0
    _, coverage = bench.layer_metrics(workload, agg, [it], it)
    assert coverage == []


@pytest.mark.parametrize("name", ["recipe", "wide-vocab"])
def test_workload_config_passes_the_benchmarks_setup_probe(name, tmp_path):
    # Before each run the benchmark times a fresh interpreter that loads the
    # workload's config and calls what `child.py setup` calls; a probe that
    # exits non-zero stops the benchmark before its first run. (replay loads
    # recipe's config.)
    workload = workloads.WORKLOADS[name](0, "bench", tmp_path)
    workloads.Workload.prepare(workload)
    assert len(bench.measure_setup(workload, 1)) == 1
