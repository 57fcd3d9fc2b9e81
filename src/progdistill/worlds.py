"""Synthetic scene worlds: the ground-truth stand-in for an image plus its
scene graph.

A scene is a set of named, attributed boxes on an abstract canvas. Patches are
views into a scene (never pixels) whose visible-object set is recomputed from
geometry. The oracle answers structured queries exactly from the ground truth,
which is what makes it usable as a teacher.

All types are immutable after construction; generation and the oracle are pure
functions, so scenes and patches can be shared freely.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import MISSING, dataclass, field
from functools import cached_property
from pathlib import Path

from .util import (UNIT, config_key, ordered_pair, read_jsonl, shared_set,
                   write_jsonl)

Rect = tuple[int, int, int, int]  # (x, y, w, h)

# An object counts as visible in a patch iff this fraction of its own box
# area lies inside the patch region.
VISIBILITY_THRESHOLD = 0.5

UNKNOWN = "unknown"


class CropError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def rect_area(r: Rect) -> int:
    return max(0, r[2]) * max(0, r[3])


def rect_intersection(a: Rect, b: Rect) -> Rect:
    x = max(a[0], b[0])
    y = max(a[1], b[1])
    x2 = min(a[0] + a[2], b[0] + b[2])
    y2 = min(a[1] + a[3], b[1] + b[3])
    return (x, y, max(0, x2 - x), max(0, y2 - y))


def overlap_ratio(obj_bbox: Rect, region: Rect) -> float:
    """Fraction of the object's own area covered by the region."""
    area = rect_area(obj_bbox)
    if area == 0:
        return 0.0
    return rect_area(rect_intersection(obj_bbox, region)) / area


def rect_iou(a: Rect, b: Rect) -> float:
    inter = rect_area(rect_intersection(a, b))
    union = rect_area(a) + rect_area(b) - inter
    if union == 0:
        return 0.0
    return inter / union


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SceneObject:
    id: str
    name: str
    attributes: frozenset[str]
    bbox: Rect


@dataclass(frozen=True)
class SceneGraph:
    scene_id: str
    canvas: tuple[int, int]
    objects: tuple[SceneObject, ...]
    seed: int

    def object_by_id(self, object_id: str) -> SceneObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)

    def objects_named(self, name: str) -> list[SceneObject]:
        return [o for o in self.objects if o.name == name]

    @property
    def names(self) -> set[str]:
        return {o.name for o in self.objects}

    @cached_property
    def root_patch(self) -> ScenePatch:
        """The full-canvas patch, computed on first use and kept on the scene,
        so it lives exactly as long as the scene does."""
        return crop(self, (0, 0, self.canvas[0], self.canvas[1]))


@dataclass(frozen=True, slots=True)
class ScenePatch:
    """A view of a scene restricted to a region.

    `visible_objects` is always derived via crop(); patches are never stored
    with a stale visibility set. `origin_label` records which find() query
    produced the patch, when any did.
    """
    scene_id: str
    region: Rect
    origin_label: str | None = None
    visible_objects: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class PatchList:
    """An ordered group of patches carrying the provenance of the find() that
    produced them (kept even when the list is empty)."""
    patches: tuple[ScenePatch, ...]
    origin_label: str | None = None

    def __len__(self) -> int:
        return len(self.patches)

    def __getitem__(self, index: int) -> ScenePatch:
        return self.patches[index]

    def __iter__(self):
        return iter(self.patches)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

# Irregular plurals. A plural form used as a noun is its own plural; the
# adapter renders a center word (the noun a find() matched) as plural only if
# it is one. QuestionParser reads plurals back through pluralize.
_PLURALS = {"man": "men", "woman": "women", "child": "children",
            "person": "people", "foot": "feet", "tooth": "teeth",
            "goose": "geese", "mouse": "mice", "leaf": "leaves",
            "knife": "knives", "sheep": "sheep", "scissors": "scissors",
            "glasses": "glasses", "pants": "pants"}
PLURAL_IRREGULAR = frozenset(_PLURALS.values())


def pluralize(word: str) -> str:
    """The English plural: irregular ones from the table, "-es" after s, x,
    z, ch or sh, "-ies" for a consonant and y, "-s" otherwise."""
    if word in _PLURALS or word in PLURAL_IRREGULAR:
        return _PLURALS.get(word, word)
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    if len(word) > 1 and word[-1] == "y" and word[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


# QuestionParser reads a noun, attribute value or family name back from a
# sub-question only as one lowercase word that is not one of the words the
# sub-question is built from: the articles and the option separator.
_READABLE = "lowercase words, none of them 'a', 'an' or 'or'"


def _readable(words) -> bool:
    return all(re.fullmatch(r"\w+", w) and w == w.casefold()
               and w not in ("a", "an", "or") for w in words)


def _nouns_readable(nouns: tuple[str, ...]) -> bool:
    return len(nouns) > 0 and _readable(nouns) and all(
        pluralize(n) == n or pluralize(n) not in nouns for n in nouns)


def _families_readable(families: dict[str, tuple[str, ...]]) -> bool:
    values = [a for family in families.values() for a in set(family)]
    return (len(families) > 0 and all(families.values()) and
            _readable(families) and _readable(values)
            and len(values) == len(set(values)))


@dataclass
class WorldConfig:
    """The config's `world` section; checked where it is read from a file."""
    nouns: tuple[str, ...] = config_key("world.nouns", MISSING, (
        _nouns_readable,
        f"a non-empty list of {_READABLE}, and none the plural of another"))
    attribute_families: dict[str, tuple[str, ...]] = config_key(
        "world.attribute_families", MISSING, (
            _families_readable,
            f"a non-empty object of non-empty lists of {_READABLE}, keyed "
            "by family names of the same kind, with no value in two families"))
    # Kept in the config and its digest; scenes carry no relations.
    relations: tuple[str, ...] = config_key("world.relations", MISSING)
    objects_per_scene: tuple[int, int] = config_key(
        "world.objects_per_scene", (3, 8), ordered_pair(1, 100))
    ambiguity_rate: float = config_key("world.ambiguity_rate", 0.25, UNIT)
    # generate_world places boxes up to 20 units on a side.
    canvas: tuple[int, int] = config_key("world.canvas", (100, 100), (
        lambda v: len(v) == 2 and min(v) >= 20, "two sides of at least 20"))

    def validate(self) -> None:
        """The check that spans two keys, once each key has passed its own."""
        if set(self.nouns) & self.all_attributes():
            raise ValueError("noun and attribute vocabularies overlap")

    def all_attributes(self) -> set[str]:
        out: set[str] = set()
        for values in self.attribute_families.values():
            out |= set(values)
        return out

    def family_of(self, attribute: str) -> str | None:
        for family, values in self.attribute_families.items():
            if attribute in values:
                return family
        return None


def default_world_config() -> WorldConfig:
    # Vocabulary sized so question-form/signature keys recur across scenes at
    # desk scale; count students need repeated evidence per key.
    return WorldConfig(
        nouns=("flower", "table", "dog", "car", "chair", "book",
               "cup", "lamp", "tree", "bird"),
        attribute_families={
            "color": ("red", "blue", "green"),
            "size": ("small", "large"),
        },
        relations=("near", "above", "below"),
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate_world(seed: int, config: WorldConfig) -> SceneGraph:
    """Deterministically generate one scene: same (seed, config) -> same scene.

    With probability `ambiguity_rate`, an object is nested inside an earlier
    object's box, so that the host's find()-patch shows two objects.
    """
    rng = random.Random(f"world:{seed}")
    width, height = config.canvas
    lo, hi = config.objects_per_scene
    count = rng.randint(lo, hi)

    placed: list[tuple[str, frozenset[str], Rect]] = []
    for idx in range(count):
        name = rng.choice(config.nouns)
        attrs = frozenset(rng.choice(values)
                          for values in config.attribute_families.values())
        hosts = [p for p in placed if p[2][2] >= 12 and p[2][3] >= 12]
        if hosts and rng.random() < config.ambiguity_rate:
            host = rng.choice(hosts)
            hx, hy, hw, hh = host[2]
            w = rng.randint(3, min(7, hw - 4))
            h = rng.randint(3, min(7, hh - 4))
            x = rng.randint(hx + 1, hx + hw - w - 1)
            y = rng.randint(hy + 1, hy + hh - h - 1)
            bbox = (x, y, w, h)
        else:
            bbox = (0, 0, 12, 12)
            for _ in range(40):
                w = rng.randint(12, 20)
                h = rng.randint(12, 20)
                x = rng.randint(0, width - w)
                y = rng.randint(0, height - h)
                bbox = (x, y, w, h)
                clean = all(overlap_ratio(bbox, other[2]) < VISIBILITY_THRESHOLD
                            and overlap_ratio(other[2], bbox) < VISIBILITY_THRESHOLD
                            for other in placed)
                if clean:
                    break
        placed.append((name, attrs, bbox))

    # Ids are arbitrary labels: shuffling them decouples the oracle's
    # smallest-id tie-break from placement order (hosts are placed before the
    # objects nested inside them).
    ids = [f"o{idx:02d}" for idx in range(count)]
    rng.shuffle(ids)
    objects = tuple(SceneObject(id=oid, name=name, attributes=attrs, bbox=bbox)
                    for oid, (name, attrs, bbox) in zip(ids, placed))
    return SceneGraph(scene_id=f"s{seed:07d}", canvas=config.canvas,
                      objects=objects, seed=seed)


def crop(scene: SceneGraph, region: Rect,
         origin_label: str | None = None) -> ScenePatch:
    """View of `scene` restricted to `region`; visibility recomputed here."""
    canvas_rect = (0, 0, scene.canvas[0], scene.canvas[1])
    if rect_area(rect_intersection(region, canvas_rect)) == 0:
        raise CropError(f"region {region} does not intersect canvas")
    visible = tuple(o.id for o in scene.objects
                    if overlap_ratio(o.bbox, region) >= VISIBILITY_THRESHOLD)
    return ScenePatch(scene_id=scene.scene_id, region=region,
                      origin_label=origin_label, visible_objects=visible)


def full_patch(scene: SceneGraph) -> ScenePatch:
    return scene.root_patch


# ---------------------------------------------------------------------------
# Query forms and the oracle. Each form states its `key()`, which corruption
# and student tables key on; its answer vocabulary `support(world)`; and its
# exact `answer(scene, patch, world)` from the ground truth seen in the patch,
# which is what the oracle teacher says.
# ---------------------------------------------------------------------------

YES_NO = ("no", "yes")


def attribute_value(obj: SceneObject, family: str, world: WorldConfig) -> str:
    """The object's value in an attribute family, or UNKNOWN if it has none."""
    values = world.attribute_families.get(family, ())
    for attr in sorted(obj.attributes):
        if attr in values:
            return attr
    return UNKNOWN


def _visible(scene: SceneGraph, patch: ScenePatch) -> list[SceneObject]:
    return [scene.object_by_id(oid) for oid in patch.visible_objects]


@dataclass(frozen=True)
class VerifyAttribute:
    name: str
    attribute: str

    def key(self) -> str:
        return f"verify|{self.name}|{self.attribute}"

    def support(self, world: WorldConfig) -> tuple[str, ...]:
        return YES_NO

    def answer(self, scene: SceneGraph, patch: ScenePatch,
               world: WorldConfig) -> str:
        target = resolve_target(scene, patch, self.name)
        if target is None:
            return UNKNOWN
        return "yes" if self.attribute in target.attributes else "no"


@dataclass(frozen=True)
class ChooseOption:
    options: tuple[str, ...]
    center: str | None = None

    def key(self) -> str:
        return f"choose|{','.join(self.options)}|{self.center or '-'}"

    def support(self, world: WorldConfig) -> tuple[str, ...]:
        return self.options

    def answer(self, scene: SceneGraph, patch: ScenePatch,
               world: WorldConfig) -> str:
        """The first option naming the target or one of its attributes, else
        the first naming any visible object or attribute, else the first."""
        # The patch's objects are listed only if the target does not decide.
        target = resolve_target(scene, patch, self.center)
        for listed in (False, True):
            pool = (_visible(scene, patch) if listed
                    else [target] if target is not None else [])
            for option in self.options:
                if any(option == o.name or option in o.attributes for o in pool):
                    return option
        return self.options[0] if self.options else UNKNOWN


@dataclass(frozen=True)
class AskAttributeFamily:
    family: str
    center: str | None = None

    def key(self) -> str:
        return f"askfam|{self.family}|{self.center or '-'}"

    def support(self, world: WorldConfig) -> tuple[str, ...]:
        return tuple(sorted(world.attribute_families.get(self.family, ())))

    def answer(self, scene: SceneGraph, patch: ScenePatch,
               world: WorldConfig) -> str:
        target = resolve_target(scene, patch, self.center)
        if target is None:
            return UNKNOWN
        return attribute_value(target, self.family, world)


@dataclass(frozen=True)
class AskName:
    center: str | None = None

    def key(self) -> str:
        return f"askname|{self.center or '-'}"

    def support(self, world: WorldConfig) -> tuple[str, ...]:
        return tuple(sorted(world.nouns))

    def answer(self, scene: SceneGraph, patch: ScenePatch,
               world: WorldConfig) -> str:
        target = resolve_target(scene, patch, self.center)
        return target.name if target is not None else UNKNOWN


@dataclass(frozen=True)
class Exists:
    name: str

    def key(self) -> str:
        return f"exists|{self.name}"

    def support(self, world: WorldConfig) -> tuple[str, ...]:
        return YES_NO

    def answer(self, scene: SceneGraph, patch: ScenePatch,
               world: WorldConfig) -> str:
        return "yes" if any(o.name == self.name
                            for o in _visible(scene, patch)) else "no"


def resolve_target(scene: SceneGraph, patch: ScenePatch,
                   center: str | None) -> SceneObject | None:
    """The queried object among the patch's visible objects: those named
    `center` if given, else all; ties break to the smallest object id."""
    candidates = [o for o in _visible(scene, patch)
                  if center is None or o.name == center]
    return min(candidates, key=lambda o: o.id) if candidates else None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def scene_to_record(scene: SceneGraph) -> dict:
    return {
        "scene_id": scene.scene_id,
        "canvas": list(scene.canvas),
        "seed": scene.seed,
        "objects": [
            {
                "id": o.id,
                "name": o.name,
                "attributes": sorted(o.attributes),
                "bbox": list(o.bbox),
            }
            for o in scene.objects
        ],
    }


# Loaded scenes hold a closed vocabulary thousands of times, so object ids
# and names are interned and equal attribute sets are shared.
def scene_from_record(record: dict) -> SceneGraph:
    objects = tuple(
        SceneObject(
            id=sys.intern(od["id"]),
            name=sys.intern(od["name"]),
            attributes=shared_set(frozenset(od.get("attributes", ()))),
            bbox=tuple(od["bbox"]),
        )
        for od in record["objects"]
    )
    return SceneGraph(scene_id=record["scene_id"], canvas=tuple(record["canvas"]),
                      objects=objects, seed=int(record.get("seed", -1)))


@dataclass
class WorldStore:
    """In-memory scene_id -> SceneGraph map shared by backends."""
    scenes: dict[str, SceneGraph] = field(default_factory=dict)

    def add(self, scene: SceneGraph) -> None:
        self.scenes[scene.scene_id] = scene

    def get(self, scene_id: str) -> SceneGraph:
        return self.scenes[scene_id]

    def ids(self) -> list[str]:
        return sorted(self.scenes)

    def save_jsonl(self, path: str | Path) -> int:
        return write_jsonl(path, (scene_to_record(self.scenes[sid])
                                  for sid in self.ids()))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "WorldStore":
        store = cls()
        for record in read_jsonl(path):
            store.add(scene_from_record(record))
        return store
