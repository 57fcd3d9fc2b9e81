"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the `progdistill` modules from the
outside; nothing under `src/` is edited. Each call through a wrapper records
one span (name, start, end, parent span, run id) in flat in-memory arrays,
plus optional counters measured at the same boundary (distinct inputs, records,
bytes, NaN traces, ...). Spans are written out once, at the end, one file per
process; traced CLI children write their own files.

Names imported by value (`from .dsl import parse`) are rebound in every
`progdistill` module that holds the original object, so calls through them
are seen too. A wrapped function that no longer exists raises
`CoverageError`: a rename must never report a layer as free.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from functools import partial
from pathlib import Path

PACKAGE = "progdistill"

STAGES = ("gen-world", "gen-qa", "build-dataset", "run-programs.train",
          "harvest", "distill", "run-programs.test", "evaluate",
          "ablate.distilled-count", "ablate.trainset-size",
          "ablate.cross-framework", "ablate.visual-pointer", "ground-eval",
          "report")

STAGE_FUNCS = {
    "stage_gen_world": "gen-world", "stage_gen_qa": "gen-qa",
    "stage_build_dataset": "build-dataset", "stage_harvest": "harvest",
    "stage_distill": "distill", "stage_evaluate": "evaluate",
    "stage_ground_eval": "ground-eval", "stage_report": "report",
    "stage_run_programs": "run-programs", "stage_ablate": "ablate",
}

DISPATCH_KINDS = ("find", "exists", "verify_property", "best_text_match",
                  "simple_query")


class CoverageError(RuntimeError):
    """A wrapped function is missing, or a layer recorded no calls."""


def stage_span_name(func_name: str, args: tuple, kwargs: dict) -> str:
    """Span name of one `pipeline.stage_*` call: run-programs is split by its
    `split` argument and ablate by its `axis`."""
    base = STAGE_FUNCS[func_name]
    if base == "run-programs":
        base += "." + kwargs.get("split", args[2] if len(args) > 2 else "")
    elif base == "ablate":
        base += "." + kwargs.get("axis", args[2] if len(args) > 2 else "")
    return "pipeline." + base


# ---------------------------------------------------------------------------
# Layer table: (module, attribute path, span name, hooks)
#
# Hooks: "key" maps (args, kwargs) to a hashable input for distinct_ratio;
# "out" maps (args, kwargs, result) to {counter: increment}; "name" picks the
# span name per call; "returns" wraps the returned callable as another span.
# ---------------------------------------------------------------------------

def _status_counts(args, kwargs, trace):
    return {"nan": trace.status == "runtime_nan", "fallback": bool(trace.fallback)}


LAYERS = [
    ("pipeline", "load_world_stores", "pipeline.load_world_stores", {}),
    ("pipeline", "require_artifacts", "pipeline.require_artifacts", {}),
    ("dsl", "parse", "dsl.parse", {"key": lambda a, k: a[0]}),
    ("interpreter", "execute", "interpreter.execute", {}),
    ("interpreter", "run_with_fallback", "interpreter.run_with_fallback",
     {"out": _status_counts}),
    ("interpreter", "trace_to_record", "interpreter.trace_to_record", {}),
    ("interpreter", "trace_from_record", "interpreter.trace_from_record", {}),
    ("backends", "ModuleRegistry.dispatch", "backends.dispatch",
     {"name": lambda a, k: f"backends.dispatch.{a[1]}",
      "key": lambda a, k: hash((a[1], a[2], a[3]))}),
    ("backends", "DetectorBackend.predict", "backends.predict.detector", {}),
    ("backends", "OracleBackend.predict", "backends.predict.oracle", {}),
    ("backends", "CorruptedBackend.predict", "backends.predict.corrupted", {}),
    ("backends", "TableStudent.predict", "backends.predict.table-student", {}),
    ("backends", "CorruptedBackend.student_key", "backends.student_key", {}),
    ("backends", "resolve_query", "backends.resolve_query", {}),
    ("backends", "consistency_verifier", "backends.consistency_verifier",
     {"returns": ("backends.verify",
                  lambda a, k, accepted: {"accept": bool(accepted)})}),
    ("backends", "TableStudent.label_probability", "backends.label_probability", {}),
    ("worlds", "crop", "worlds.crop", {}),
    ("worlds", "full_patch", "worlds.full_patch",
     {"key": lambda a, k: a[0].scene_id}),
    ("worlds", "SceneGraph.object_by_id", "worlds.object_by_id", {}),
    ("worlds", "generate_world", "worlds.generate_world", {}),
    ("worlds", "WorldStore.load_jsonl", "worlds.load_jsonl", {}),
    ("questions", "generate_qa", "questions.generate_qa", {}),
    ("questions", "QuestionParser.parse", "questions.parser.parse",
     {"key": lambda a, k: a[1]}),
    ("questions", "generate_grounding", "questions.generate_grounding", {}),
    ("adapter", "adapt_step", "adapter.adapt_step", {}),
    ("distill", "harvest", "distill.harvest", {}),
    ("distill", "train", "distill.train", {}),
    ("distill", "triple_input", "distill.triple_input", {}),
    ("datasets", "make_splits", "datasets.make_splits", {}),
    ("evaluation", "run_programs", "evaluation.run_programs", {}),
    ("evaluation", "score", "evaluation.score", {}),
    ("evaluation", "error_taxonomy", "evaluation.error_taxonomy", {}),
    ("evaluation", "case_report", "evaluation.case_report", {}),
    ("util", "read_jsonl", "util.read_jsonl",
     {"out": lambda a, k, r: {"records": len(r)}}),
    ("util", "write_jsonl", "util.write_jsonl",
     {"out": lambda a, k, r: {"records": r}}),
    ("util", "sha256_file", "util.sha256_file",
     {"out": lambda a, k, r: {"bytes": os.path.getsize(a[0])}}),
    ("util", "stable_hash", "util.stable_hash", {}),
    ("cli", "main", "cli.main", {}),
]

# Spans a workload may leave uncalled: those of stages it does not run, and
# case_report, which runs only when distillation fixes some test question.
# Every other span in LAYERS must record calls (see the coverage check).
MAY_BE_UNCALLED = {
    "recipe": {"cli.main", "evaluation.case_report"},
    "wide-vocab": {"cli.main", "questions.generate_grounding",
                   "evaluation.case_report"},
    "replay": {"worlds.generate_world", "questions.generate_qa",
               "datasets.make_splits", "backends.consistency_verifier",
               "backends.verify", "distill.train", "distill.triple_input",
               "backends.label_probability", "evaluation.run_programs",
               "interpreter.trace_to_record", "evaluation.case_report"},
}


def reported_spans() -> list[str]:
    """Span names that get `.calls` and `.self_s` metrics: LAYERS in order,
    with dispatch split by kind, the verifier factory replaced by the verify
    calls it returns, and cli.main left to `cli.process_s`."""
    out = []
    for _, _, name, _ in LAYERS:
        if name == "backends.dispatch":
            out += [f"backends.dispatch.{kind}" for kind in DISPATCH_KINDS]
        elif name == "backends.consistency_verifier":
            out.append("backends.verify")
        elif name != "cli.main":
            out.append(name)
    return out


def _resolve(module, path: str):
    """(owner, attribute, raw attribute value) for 'func' or 'Class.method'."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise CoverageError(f"{module.__name__}.{path}: {part} not found")
    attr = parts[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        raise CoverageError(f"{module.__name__}.{path} not found; the layer "
                            f"table in perfbench/tracer.py must follow the rename")
    return owner, attr, raw


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_run = array("H")
        self.span_err = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.run_id = 0
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, hooks: dict | None = None):
        hooks = hooks or {}
        nid = self.name_id(name)
        name_of = hooks.get("name")
        key_of = hooks.get("key")
        out_of = hooks.get("out")
        returns = hooks.get("returns")
        names_arr, parents, runs = self.span_name, self.span_parent, self.span_run
        errs, starts, ends = self.span_err, self.span_start, self.span_end
        stack, counters = self.stack, self.counters
        keys = self.distinct.setdefault(name, set()) if key_of else None
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_label = name
            sid = nid
            if name_of is not None:
                span_label = name_of(args, kwargs)
                sid = tracer.name_id(span_label)
            if key_of is not None:
                keys.add(hash(key_of(args, kwargs)))
            i = len(names_arr)
            names_arr.append(sid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            errs.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errs[i] = 1
                raise
            finally:
                ends[i] = perf()
                stack.pop()
            if out_of is not None:
                for counter, inc in out_of(args, kwargs, result).items():
                    key = f"{span_label}.{counter}"
                    counters[key] = counters.get(key, 0) + int(inc)
            if returns is not None:
                inner_name, inner_out = returns
                result = tracer.wrap(result, inner_name, {"out": inner_out})
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Wrap every entry of `layers`, plus each `pipeline.stage_*`."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in
                   {layer[0] for layer in layers} | {"pipeline"}}
        entries = list(layers) + [
            ("pipeline", func, f"pipeline.{func}",
             {"name": partial(stage_span_name, func)}) for func in STAGE_FUNCS]
        for module_name, path, name, hooks in entries:
            owner, attr, raw = _resolve(modules[module_name], path)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, hooks))
            else:
                wrapped = self.wrap(raw, name, hooks)
            self._patch(owner, attr, wrapped)
            if not isinstance(owner, type):
                self._rebind_imports(raw, wrapped)

    def _patch(self, owner, attr, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _rebind_imports(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        header = {"pid": os.getpid(), "names": self.names,
                  "spans": len(self.span_name), "counters": self.counters,
                  "distinct": {k: sorted(v) for k, v in self.distinct.items()}}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_run,
                        self.span_err, self.span_start, self.span_end):
                arr.tofile(f)


def read_spans(path: Path) -> dict:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "i", "H", "b", "d", "d"):
            arr = array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    header["arrays"] = arrays
    return header


def aggregate(files: list[dict]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, errors; plus the
    summed counters and distinct-input counts of every process.

    Self time is a span's duration minus the durations of its direct children
    in the same process. Distinct inputs are counted per process (each has
    its own hash seed), so the distinct counts of separate CLI processes are
    added, not merged."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    distinct_counts: dict[str, int] = {}
    for data in files:
        names = data["names"]
        name_ids, parents, _runs, errs, starts, ends = data["arrays"]
        n = len(name_ids)
        durs = [e - s for s, e in zip(starts, ends)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += durs[i]
        per_id: dict[int, list] = {}
        for i in range(n):
            entry = per_id.get(name_ids[i])
            if entry is None:
                entry = per_id[name_ids[i]] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += durs[i]
            entry[2] += durs[i] - child[i]
            entry[3] += errs[i]
        for nid, (calls, incl, self_s, err) in per_id.items():
            total = stats.setdefault(names[nid], [0, 0.0, 0.0, 0])
            total[0] += calls
            total[1] += incl
            total[2] += self_s
            total[3] += err
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, values in data["distinct"].items():
            distinct_counts[key] = distinct_counts.get(key, 0) + len(values)
    return {"stats": stats, "counters": counters, "distinct": distinct_counts,
            "spans": sum(len(d["arrays"][0]) for d in files)}
