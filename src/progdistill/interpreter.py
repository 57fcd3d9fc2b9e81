"""Executor for parsed visual programs.

Every module call appends exactly one StepRecord; branch decisions are kept so
traces can be diffed. execute() never raises: runtime failures (bad index,
type mismatch at a call site, unknown module, backend exception) end the run
with a NaN-status trace. Parse failures are not handled here — callers route
them through run_with_fallback(), which substitutes the fixed one-call
fallback program.

The interpreter is single-threaded per program; traces have one writer each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import dsl
from .dsl import (Assign, BoolOp, Call, Compare, If, ImageRef, Index, Len,
                  Literal, NotOp, ParseError, Program, Return, Var, parse)
from .worlds import PatchList, SceneGraph, ScenePatch, full_patch

STATUS_OK = "ok"
STATUS_FALLBACK = "parse_error_fallback"
STATUS_NAN = "runtime_nan"


class NaNValue:
    """Singleton marker for a failed prediction."""

    _instance: "NaNValue | None" = None

    def __new__(cls) -> "NaNValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NaN"


NAN = NaNValue()


@dataclass(frozen=True, slots=True)
class StepRecord:
    step_index: int
    module_kind: str
    receiver: ScenePatch | PatchList
    args: tuple
    output: object


@dataclass(frozen=True, slots=True)
class ExecutionTrace:
    question_id: str
    source: str
    steps: tuple[StepRecord, ...]
    answer: object
    status: str
    branch_decisions: tuple[bool, ...] = ()
    fallback: bool = False


class _RuntimeFailure(Exception):
    pass


class _Executor:
    def __init__(self, scene: SceneGraph, registry):
        self.scene = scene
        self.registry = registry
        self.env: dict[str, object] = {}
        self.steps: list[StepRecord] = []
        self.branches: list[bool] = []
        self.root = full_patch(scene)

    def run(self, program: Program) -> object:
        self.literals = program.literals
        result = self._run_block(program.code)
        if result is _NO_RETURN:
            # Unreachable for parsed programs; guards hand-built ASTs.
            raise _RuntimeFailure("program ended without return")
        return result

    def _run_block(self, statements) -> object:
        for stmt in statements:
            if isinstance(stmt, Assign):
                self.env[stmt.var] = self._eval(stmt.expr)
            elif isinstance(stmt, Return):
                return self._eval(stmt.expr)
            elif isinstance(stmt, If):
                cond = self._eval(stmt.cond)
                if not isinstance(cond, bool):
                    raise _RuntimeFailure(f"condition is not a bool: {cond!r}")
                self.branches.append(cond)
                body = stmt.then_body if cond else stmt.else_body
                result = self._run_block(body)
                if result is not _NO_RETURN:
                    return result
            else:
                raise _RuntimeFailure(f"unknown statement {stmt!r}")
        return _NO_RETURN

    def _eval(self, expr) -> object:
        if isinstance(expr, dsl.Slot):
            return self.literals[expr.index]
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ImageRef):
            return self.root
        if isinstance(expr, Var):
            if expr.name not in self.env:
                raise _RuntimeFailure(f"variable {expr.name!r} unbound")
            return self.env[expr.name]
        if isinstance(expr, Len):
            target = self._eval(expr.target)
            if isinstance(target, (PatchList, tuple, str)):
                return len(target)
            raise _RuntimeFailure(f"len() on {type(target).__name__}")
        if isinstance(expr, Index):
            target = self._eval(expr.target)
            if not isinstance(target, (PatchList, tuple)):
                raise _RuntimeFailure(f"indexing into {type(target).__name__}")
            if not 0 <= expr.index < len(target):
                raise _RuntimeFailure(
                    f"index {expr.index} out of range (len {len(target)})")
            return target[expr.index]
        if isinstance(expr, Compare):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            equal = left == right
            return equal if expr.op == "==" else not equal
        if isinstance(expr, NotOp):
            value = self._eval(expr.operand)
            if not isinstance(value, bool):
                raise _RuntimeFailure("'not' on a non-bool")
            return not value
        if isinstance(expr, BoolOp):
            left = self._eval(expr.left)
            if not isinstance(left, bool):
                raise _RuntimeFailure(f"'{expr.op}' on a non-bool")
            # Short-circuit: the right side's calls only run when evaluated.
            if expr.op == "and" and not left:
                return False
            if expr.op == "or" and left:
                return True
            right = self._eval(expr.right)
            if not isinstance(right, bool):
                raise _RuntimeFailure(f"'{expr.op}' on a non-bool")
            return right
        if isinstance(expr, Call):
            return self._call(expr)
        raise _RuntimeFailure(f"unknown expression {expr!r}")

    def _call(self, expr: Call) -> object:
        receiver = self._eval(expr.receiver)
        args = tuple(self._eval(a) for a in expr.args)
        try:
            output = self.registry.dispatch(expr.module_kind, receiver, args)
        except _RuntimeFailure:
            raise
        except Exception as exc:
            raise _RuntimeFailure(f"{expr.module_kind} failed: {exc}") from exc
        self.steps.append(StepRecord(
            step_index=len(self.steps),
            module_kind=expr.module_kind,
            receiver=receiver,
            args=args,
            output=output,
        ))
        return output


_NO_RETURN = object()


def execute(program: Program, scene: SceneGraph, registry,
            question_id: str = "") -> ExecutionTrace:
    """Run a parsed program; failures become NaN-status traces, never raises."""
    executor = _Executor(scene, registry)
    try:
        answer = executor.run(program)
        status = STATUS_OK
    except (_RuntimeFailure, RecursionError):  # nested beyond Python's stack
        answer = NAN
        status = STATUS_NAN
    return ExecutionTrace(
        question_id=question_id,
        source=program.source_text,
        steps=tuple(executor.steps),
        answer=answer,
        status=status,
        branch_decisions=tuple(executor.branches),
    )


def answer_to_text(value: object) -> str | None:
    """Render a final answer for exact-match comparison; None means NaN."""
    if isinstance(value, NaNValue):
        return None
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, ScenePatch):
        return "[patch]"
    if isinstance(value, PatchList):
        return "[patches]"
    if isinstance(value, tuple):
        return "[list]"
    return repr(value)


def fallback_program(question: str) -> Program:
    """The fixed program used when parsing fails: one simple_query on the full
    image with the original question as its argument."""
    source = f"return image.simple_query({dsl.escape_string(question)})\n"
    return parse(source)


def run_with_fallback(source: str, question: str, scene: SceneGraph, registry,
                      question_id: str = "") -> ExecutionTrace:
    """Parse and execute; on ParseError substitute fallback_program(question).

    A fallback run that itself fails at runtime is reported as runtime_nan
    (NaN accounting wins); the `fallback` flag survives for error accounting.
    """
    try:
        program = parse(source)
    except ParseError:
        program = fallback_program(question)
        trace = execute(program, scene, registry, question_id)
        status = STATUS_FALLBACK if trace.status == STATUS_OK else STATUS_NAN
        return replace(trace, status=status, fallback=True)
    return execute(program, scene, registry, question_id)


# ---------------------------------------------------------------------------
# Trace serialization (one trace per JSONL line, stable field order)
# ---------------------------------------------------------------------------

def _value_to_json(value: object) -> dict:
    if isinstance(value, NaNValue):
        return {"t": "nan"}
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "num", "v": value}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if isinstance(value, ScenePatch):
        return {"t": "patch", "v": _patch_to_json(value)}
    if isinstance(value, PatchList):
        return {"t": "patches", "label": value.origin_label,
                "v": [_patch_to_json(p) for p in value.patches]}
    if isinstance(value, tuple):
        return {"t": "list", "v": [_value_to_json(v) for v in value]}
    raise TypeError(f"cannot serialize value {value!r}")


def _patch_to_json(patch: ScenePatch) -> dict:
    return {"scene_id": patch.scene_id, "region": list(patch.region),
            "origin_label": patch.origin_label,
            "visible": list(patch.visible_objects)}


def _patch_from_json(d: dict) -> ScenePatch:
    return ScenePatch(scene_id=d["scene_id"], region=tuple(d["region"]),
                      origin_label=d["origin_label"],
                      visible_objects=tuple(d["visible"]))


def _value_from_json(d: dict) -> object:
    t = d["t"]
    if t == "nan":
        return NAN
    if t in ("bool", "num", "str"):
        return d["v"]
    if t == "patch":
        return _patch_from_json(d["v"])
    if t == "patches":
        return PatchList(tuple(_patch_from_json(p) for p in d["v"]),
                         origin_label=d["label"])
    if t == "list":
        return tuple(_value_from_json(v) for v in d["v"])
    raise TypeError(f"cannot deserialize value {d!r}")


def trace_to_record(trace: ExecutionTrace) -> dict:
    return {
        "question_id": trace.question_id,
        "source": trace.source,
        "status": trace.status,
        "fallback": trace.fallback,
        "answer": _value_to_json(trace.answer),
        "branch_decisions": list(trace.branch_decisions),
        "steps": [
            {
                "step_index": s.step_index,
                "module_kind": s.module_kind,
                "receiver": _value_to_json(s.receiver),
                "args": [_value_to_json(a) for a in s.args],
                "output": _value_to_json(s.output),
            }
            for s in trace.steps
        ],
    }


def trace_from_record(record: dict) -> ExecutionTrace:
    steps = tuple(
        StepRecord(
            step_index=sd["step_index"],
            module_kind=sd["module_kind"],
            receiver=_value_from_json(sd["receiver"]),
            args=tuple(_value_from_json(a) for a in sd["args"]),
            output=_value_from_json(sd["output"]),
        )
        for sd in record["steps"]
    )
    return ExecutionTrace(
        question_id=record["question_id"],
        source=record["source"],
        steps=steps,
        answer=_value_from_json(record["answer"]),
        status=record["status"],
        branch_decisions=tuple(record["branch_decisions"]),
        fallback=record.get("fallback", False),
    )
