"""The benchmark's tracer (`perfbench/tracer.py`) wraps `progdistill`
functions by name. A rename under `src/` must fail here, in the unit tests,
and not only in the benchmark's smoke run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TRACED = ([(module, path) for module, path, _, _ in tracer.LAYERS]
          + [("pipeline", func) for func in tracer.STAGE_FUNCS])


@pytest.mark.parametrize("module_name, path", TRACED,
                         ids=[f"{m}.{p}" for m, p in TRACED])
def test_traced_function_resolves(module_name, path):
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    _, _, raw = tracer._resolve(module, path)
    assert callable(raw) or isinstance(raw, classmethod)


# The traced benchmark fails when a layer it wraps records no calls. A cache
# that skipped one of these on `recipe` must fail here first.
RECIPE_MUST_CALL = ("worlds.load_jsonl", "util.read_jsonl",
                    "interpreter.trace_from_record")


def test_tiny_recipe_calls_the_layers_the_traced_benchmark_expects(tmp_path):
    from progdistill.pipeline import PipelineConfig, run_full_recipe
    cfg = PipelineConfig.from_dict({
        "scenes": {"train": 20, "eval": 10}, "questions": {"per_scene": [4, 6]},
        "dataset": {"per_type_cap": 20}, "vp_probe": {"scenes": 5}})
    t = tracer.Tracer()
    t.install([layer for layer in tracer.LAYERS
               if layer[2] in RECIPE_MUST_CALL])
    try:
        run_full_recipe(tmp_path / "run", cfg)
    finally:
        t.uninstall()
    called = {t.names[i] for i in t.span_name}
    assert sorted(set(RECIPE_MUST_CALL) - called) == []
