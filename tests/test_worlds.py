import hashlib
import json
from dataclasses import fields

import pytest

from progdistill import worlds
from progdistill.worlds import (AskAttributeFamily, AskName, ChooseOption,
                                CropError, Exists, SceneGraph, SceneObject,
                                UNKNOWN, VerifyAttribute, WorldConfig,
                                WorldStore, crop,
                                default_world_config, full_patch,
                                generate_world, overlap_ratio,
                                rect_iou, scene_from_record,
                                scene_to_record)

GOLDEN_SCENE0_SHA = "7679e43d2cc279bbfe2ae7992919c8892893031b68779cb4a46f46bdb837a345"


def _scene_digest(scene):
    blob = json.dumps(scene_to_record(scene), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestGeneration:
    def test_seed0_matches_golden_hash(self, world):
        assert _scene_digest(generate_world(0, world)) == GOLDEN_SCENE0_SHA

    def test_object_count_in_configured_range(self, world):
        lo, hi = world.objects_per_scene
        for seed in range(40):
            assert lo <= len(generate_world(seed, world).objects) <= hi

    def test_deterministic_byte_identical(self, world):
        a = generate_world(3, world)
        b = generate_world(3, world)
        assert scene_to_record(a) == scene_to_record(b)

    def test_different_seeds_differ(self, world):
        digests = {_scene_digest(generate_world(seed, world)) for seed in range(30)}
        assert len(digests) >= 29  # brute-force: collisions essentially never

    def test_invariants_hold_across_scenes(self, world):
        attrs = world.all_attributes()
        for seed in range(30):
            scene = generate_world(seed, world)
            ids = [o.id for o in scene.objects]
            assert len(ids) == len(set(ids))
            width, height = scene.canvas
            for obj in scene.objects:
                x, y, w, h = obj.bbox
                assert 0 <= x and 0 <= y and x + w <= width and y + h <= height
                assert obj.name in world.nouns
                assert obj.attributes <= attrs

    def test_one_attribute_per_family(self, world):
        scene = generate_world(5, world)
        for obj in scene.objects:
            for family, values in world.attribute_families.items():
                assert len(obj.attributes & set(values)) == 1

    def test_invalid_config_rejected(self):
        # Each key's own check is declared on its field; validate() keeps
        # the one that spans two keys.
        checks = {f.name: f.metadata["check"] for f in fields(WorldConfig)}
        assert not checks["nouns"][0](())
        assert not checks["attribute_families"][0]({"color": ()})
        assert not checks["canvas"][0]((10, 100))
        with pytest.raises(ValueError, match="overlap"):
            WorldConfig(nouns=("red",), attribute_families={"color": ("red",)},
                        relations=("near",)).validate()


class TestCrop:
    def test_full_canvas_sees_everything(self, world):
        scene = generate_world(1, world)
        patch = full_patch(scene)
        assert set(patch.visible_objects) == {o.id for o in scene.objects}

    def test_exact_bbox_region_sees_object(self, flower_scene):
        obj = flower_scene.objects[0]
        patch = crop(flower_scene, obj.bbox, origin_label="flower")
        assert patch.visible_objects == (obj.id,)
        assert patch.origin_label == "flower"

    def test_two_object_overlap_computed_by_hand(self):
        # a: 10x10 at origin; region covers exactly 60 of its 100 units -> in.
        # b: 10x10 at (8, 0); region covers 20 of its 100 units -> out.
        scene = SceneGraph("s", (40, 40), (
            SceneObject("a", "cup", frozenset({"red"}), (0, 0, 10, 10)),
            SceneObject("b", "dog", frozenset({"blue"}), (8, 0, 10, 10)),
        ), seed=-1)
        assert overlap_ratio((0, 0, 10, 10), (0, 0, 6, 10)) == pytest.approx(0.6)
        assert overlap_ratio((8, 0, 10, 10), (0, 0, 10, 10)) == pytest.approx(0.2)
        patch = crop(scene, (0, 0, 10, 10))
        assert patch.visible_objects == ("a",)

    def test_empty_intersection_with_objects_is_not_an_error(self, flower_scene):
        patch = crop(flower_scene, (80, 80, 10, 10))
        assert patch.visible_objects == ()

    def test_region_outside_canvas_rejected(self, flower_scene):
        with pytest.raises(CropError):
            crop(flower_scene, (200, 200, 10, 10))

    def test_crop_idempotent_on_region(self, world):
        scene = generate_world(2, world)
        patch = crop(scene, (10, 10, 40, 40))
        again = crop(scene, patch.region)
        assert again.visible_objects == patch.visible_objects

    def test_full_patch_is_the_full_canvas_crop(self, world):
        for seed in range(10):
            scene = generate_world(seed, world)
            canvas = (0, 0, scene.canvas[0], scene.canvas[1])
            assert full_patch(scene) == crop(scene, canvas)

    def test_full_patch_computed_once_per_scene_object(self, world,
                                                       monkeypatch):
        calls = []
        real_crop = worlds.crop

        def counting_crop(scene, region, origin_label=None):
            calls.append(scene.scene_id)
            return real_crop(scene, region, origin_label)

        monkeypatch.setattr(worlds, "crop", counting_crop)
        scene = generate_world(4, world)
        first = full_patch(scene)
        assert full_patch(scene) is first
        assert len(calls) == 1
        # an equal scene is a different object with its own patch
        twin = scene_from_record(scene_to_record(scene))
        assert twin == scene
        assert full_patch(twin) == first
        assert len(calls) == 2


class TestOracle:
    def test_verify_attribute_on_red_flower(self, flower_scene, world):
        patch = crop(flower_scene, flower_scene.objects[0].bbox)
        red, blue = VerifyAttribute("flower", "red"), VerifyAttribute("flower", "blue")
        assert red.answer(flower_scene, patch, world) == "yes"
        assert blue.answer(flower_scene, patch, world) == "no"

    def test_ask_attribute_family(self, flower_scene, world):
        patch = crop(flower_scene, flower_scene.objects[0].bbox)
        color, size = AskAttributeFamily("color", "flower"), AskAttributeFamily("size", None)
        assert color.answer(flower_scene, patch, world) == "red"
        assert size.answer(flower_scene, patch, world) == "small"

    def test_choose_option_falls_back_to_any_visible_match(self, world):
        scene = SceneGraph("s", (100, 100), (
            SceneObject("o00", "bread", frozenset({"small"}), (5, 5, 14, 14)),
            SceneObject("o01", "table", frozenset({"large"}), (40, 40, 20, 20)),
        ), seed=-1)
        patch = full_patch(scene)
        query = ChooseOption(("bread", "sandwich"), center="food-class")
        assert query.answer(scene, patch, world) == "bread"

    def test_unresolved_center_answers_unknown(self, flower_scene, world):
        patch = crop(flower_scene, flower_scene.objects[0].bbox)
        q = AskAttributeFamily("color", "dog")
        assert q.answer(flower_scene, patch, world) == UNKNOWN

    def test_exists_and_askname(self, flower_scene, world):
        patch = full_patch(flower_scene)
        assert Exists("flower").answer(flower_scene, patch, world) == "yes"
        assert Exists("dog").answer(flower_scene, patch, world) == "no"
        assert AskName("table").answer(flower_scene, patch, world) == "table"

    def test_tie_break_smallest_id(self):
        scene = SceneGraph("s", (100, 100), (
            SceneObject("o07", "cup", frozenset({"red", "small"}), (0, 0, 12, 12)),
            SceneObject("o02", "cup", frozenset({"blue", "small"}), (6, 0, 12, 12)),
        ), seed=-1)
        world = WorldConfig(("cup",), {"color": ("red", "blue"),
                                       "size": ("small", "large")}, ())
        patch = crop(scene, (0, 0, 20, 12))
        assert set(patch.visible_objects) == {"o07", "o02"}
        q = AskAttributeFamily("color", "cup")
        assert q.answer(scene, patch, world) == "blue"  # o02 < o07

    def test_oracle_matches_independent_brute_force(self, world):
        # Brute-force re-implementation, kept independent of the oracle code.
        def brute(scene, patch, query):
            visible = [o for o in scene.objects if o.id in patch.visible_objects]
            if isinstance(query, Exists):
                return "yes" if [o for o in visible if o.name == query.name] else "no"
            center = getattr(query, "name", None) if isinstance(query, VerifyAttribute) \
                else getattr(query, "center", None)
            pool = [o for o in visible if o.name == center] if center else visible
            target = sorted(pool, key=lambda o: o.id)[0] if pool else None
            if isinstance(query, VerifyAttribute):
                if target is None:
                    return UNKNOWN
                return "yes" if query.attribute in target.attributes else "no"
            if isinstance(query, AskName):
                return target.name if target else UNKNOWN
            if isinstance(query, AskAttributeFamily):
                if target is None:
                    return UNKNOWN
                fam = set(world.attribute_families.get(query.family, ()))
                hits = sorted(target.attributes & fam)
                return hits[0] if hits else UNKNOWN
            raise AssertionError(query)

        for seed in range(15):
            scene = generate_world(seed, world)
            patch = full_patch(scene)
            for noun in world.nouns:
                for query in (Exists(noun), AskName(noun),
                              AskAttributeFamily("color", noun),
                              VerifyAttribute(noun, "red")):
                    assert query.answer(scene, patch, world) == \
                        brute(scene, patch, query), (scene.scene_id, query)


class TestSerialization:
    def test_record_round_trip(self, world):
        scene = generate_world(4, world)
        assert scene_from_record(scene_to_record(scene)) == scene

    def test_record_has_no_relations(self, world):
        record = scene_to_record(generate_world(4, world))
        assert all("relations" not in od for od in record["objects"])

    def test_record_with_relations_still_loads(self, world):
        scene = generate_world(4, world)
        record = scene_to_record(scene)
        for od in record["objects"]:
            od["relations"] = [["near", record["objects"][0]["id"]]]
        assert scene_from_record(record) == scene

    def test_store_jsonl_round_trip(self, world, tmp_path):
        store = WorldStore()
        for seed in range(5):
            store.add(generate_world(seed, world))
        path = tmp_path / "worlds.jsonl"
        store.save_jsonl(path)
        loaded = WorldStore.load_jsonl(path)
        assert loaded.ids() == store.ids()
        for sid in store.ids():
            assert loaded.get(sid) == store.get(sid)
        again = tmp_path / "again.jsonl"
        loaded.save_jsonl(again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_objects_share_their_vocabulary(self, world, tmp_path):
        store = WorldStore()
        for seed in range(30):
            store.add(generate_world(seed, world))
        path = tmp_path / "worlds.jsonl"
        store.save_jsonl(path)
        objects = [o for scene in WorldStore.load_jsonl(path).scenes.values()
                   for o in scene.objects]
        for field in ("id", "name", "attributes"):
            values = [getattr(o, field) for o in objects]
            assert len({id(v) for v in values}) == len(set(values)), field


def test_rect_iou_arithmetic():
    assert rect_iou((0, 0, 10, 10), (0, 0, 10, 10)) == pytest.approx(1.0)
    assert rect_iou((0, 0, 10, 10), (20, 20, 10, 10)) == 0.0
    assert rect_iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(50 / 150)
