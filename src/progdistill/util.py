"""Deterministic hashing and JSONL helpers, and the config-field helpers of
`pipeline` and `worlds`: `config_key` and the checks it takes."""

from __future__ import annotations

import hashlib
import json
from dataclasses import field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

_SEP = "\x1f"


# Records hold few distinct small sets (the module kinds of a program, the
# attributes of an object), each thousands of times, so equal sets are shared:
# 200-odd bytes each. The bound keeps open-ended sets from growing it.
shared_set = lru_cache(maxsize=1024)(frozenset)


def stable_hash(*parts: object) -> int:
    """64-bit hash of the stringified parts, stable across processes and runs.

    Python's builtin hash() is salted per process; everything that must be
    reproducible (corruption draws, detector misses, seed derivation) goes
    through here instead.
    """
    text = _SEP.join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stable_unit(*parts: object) -> float:
    """Deterministic pseudo-uniform draw in [0, 1) keyed by the parts."""
    return stable_hash(*parts) / 2.0**64


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean summed left to right, as the builtin sum() did through
    Python 3.11 (3.12 compensates), so reports are the same bytes on every
    supported Python."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(obj: object) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# json.dumps(rec, ensure_ascii=False) builds a new encoder on every call.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write one JSON object per line. Returns the record count."""
    count = 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    encode = _JSONL_ENCODER.encode
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(encode(rec) + "\n")
            count += 1
    return count


def iter_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one decoded object per non-blank line, reading as it goes."""
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_jsonl(path: str | Path) -> list[dict]:
    return list(iter_jsonl(path))


def config_key(key: str, default, check: tuple[Callable, str] | None = None):
    """A dataclass field read from the config file at the dotted `key` and,
    with a `check` (test, what the value must be), range-checked. A callable
    `default` is a factory; `dataclasses.MISSING` makes the key required."""
    kind = "default_factory" if callable(default) else "default"
    return field(metadata={"key": key, "check": check}, **{kind: default})


def in_range(lo: int, hi: int) -> tuple:
    return (lambda v: lo <= v <= hi, f">= {lo:,} and <= {hi:,}")


def ordered_pair(lo: int, hi: int) -> tuple:
    return (lambda v: len(v) == 2 and lo <= v[0] <= v[1] <= hi,
            f"a [lo, hi] pair with {lo} <= lo <= hi <= {hi:,}")


UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
POSITIVE = (lambda v: v > 0.0, "> 0")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
