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
