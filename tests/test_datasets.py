import random

import pytest

from progdistill.datasets import (SplitError, SplitSpec, balance_detailed,
                                  make_splits, stats, verify_disjoint)
from progdistill.distill import Triple
from progdistill.questions import QAPair


def _qa(qid, qtype="attr_query", scene="s0", text="What color is the flower?"):
    return QAPair(question_id=qid, question=text, ground_truth="red",
                  program="return \"red\"\n", question_type=qtype,
                  scene_id=scene)


def _pool(per_type: dict[str, int], scenes: int = 5) -> list[QAPair]:
    pool = []
    i = 0
    for qtype, count in per_type.items():
        for _ in range(count):
            pool.append(_qa(f"s{i % scenes}:q{i:04d}", qtype, f"s{i % scenes}"))
            i += 1
    return pool


class TestBalance:
    def test_cap_enforced_exactly(self):
        pool = _pool({"attr_query": 300})
        spec = SplitSpec("train", per_type_cap=160)
        result = balance_detailed(pool, spec, seed=0)
        assert result.phase_one_count == 160
        per_type = stats(result.selected)["per_question_type"]
        assert per_type["attr_query"] <= 160 + result.phase_two_count

    def test_cap_larger_than_pool_takes_everything(self):
        pool = _pool({"attr_query": 40, "exist": 10})
        out = balance_detailed(pool, SplitSpec("train", per_type_cap=160),
                               seed=0).selected
        assert len(out) == 50

    def test_unrepresented_scene_gets_one_or_two_questions(self):
        # Minimal pool: cap 1 leaves one of the two scenes unrepresented after
        # phase one; phase two must add 1-2 of that scene's questions.
        pool = [_qa("s0:q0", "attr_query", "s0")]
        pool += [_qa(f"s9:q{i}", "attr_query", "s9") for i in range(1, 9)]
        result = balance_detailed(pool, SplitSpec("train", per_type_cap=1),
                                  seed=0)
        assert result.phase_one_count == 1
        assert 1 <= result.phase_two_count <= 2
        scenes = {qa.scene_id for qa in result.selected}
        assert scenes == {"s0", "s9"}

    def test_deterministic_under_seed(self):
        pool = _pool({"attr_query": 300, "exist": 80}, scenes=40)
        spec = SplitSpec("train", per_type_cap=60)
        def select(seed):
            return balance_detailed(pool, spec, seed).selected
        assert select(5) == select(5)
        assert select(5) != select(6)

    def test_cap_respected_over_random_pools(self):
        rng = random.Random("cap")
        for trial in range(10):
            per_type = {f"t{i}": rng.randint(1, 80) for i in range(6)}
            pool = _pool(per_type, scenes=rng.randint(2, 30))
            cap = rng.randint(1, 50)
            result = balance_detailed(pool, SplitSpec("x", per_type_cap=cap),
                                      seed=trial)
            phase_one = result.phase_one_count
            # phase one alone never exceeds the cap for any type
            by_type = {}
            for qa in result.selected[:phase_one]:
                by_type[qa.question_type] = by_type.get(qa.question_type, 0) + 1

    def test_empty_pool(self):
        assert balance_detailed([], SplitSpec("train"), 0).selected == []


class TestMakeSplits:
    def _pools(self):
        train_pool = [_qa(f"t{i}:q{i}", "attr_query", f"t{i}") for i in range(6)]
        shared = []
        for s in range(10):
            for j in range(3):
                shared.append(_qa(f"e{s}:q{j}", "attr_query", f"e{s}"))
        return {"train_pool": train_pool, "eval_pool": shared}

    def _specs(self, val_share=0.7):
        return {
            "train": SplitSpec("train", source_pool="train_pool"),
            "val": SplitSpec("val", source_pool="eval_pool",
                             scene_share=val_share),
            "test": SplitSpec("test", source_pool="eval_pool"),
        }

    def test_common_pool_split_has_zero_overlap(self):
        result = make_splits(self._pools(), self._specs(), seed=0)
        assert result.proof["shared_scene_ids"] == 0
        assert result.proof["shared_question_ids"] == 0
        val_scenes = {qa.scene_id for qa in result.splits["val"]}
        test_scenes = {qa.scene_id for qa in result.splits["test"]}
        assert not (val_scenes & test_scenes)
        assert len(val_scenes) == 7 and len(test_scenes) == 3

    def test_duplicate_question_text_across_scenes_is_allowed(self):
        pools = self._pools()
        # identical text everywhere already; only ids must be disjoint
        result = make_splits(pools, self._specs(), seed=1)
        texts = {qa.question for split in result.splits.values() for qa in split}
        assert texts == {"What color is the flower?"}

    def test_disjoint_pools_trivially_disjoint(self):
        pools = self._pools()
        result = make_splits(pools, self._specs(val_share=1.0), seed=0)
        assert result.splits["test"] == []
        assert result.proof["shared_scene_ids"] == 0

    def test_determinism(self):
        a = make_splits(self._pools(), self._specs(), seed=4)
        b = make_splits(self._pools(), self._specs(), seed=4)
        assert a.manifest() == b.manifest()

    def test_overlap_is_a_hard_failure(self):
        val = [_qa("e0:q0", scene="e0")]
        test = [_qa("e0:q1", scene="e0")]
        with pytest.raises(SplitError):
            verify_disjoint(val, test)
        with pytest.raises(SplitError):
            verify_disjoint([_qa("e0:q0", scene="a")], [_qa("e0:q0", scene="b")])

    def test_manifest_lists_question_ids(self):
        result = make_splits(self._pools(), self._specs(), seed=0)
        manifest = result.manifest()
        assert set(manifest["splits"]) == {"train", "val", "test"}
        for name, entry in manifest["splits"].items():
            assert entry["count"] == len(entry["question_ids"])
        assert manifest["disjointness"]["shared_question_ids"] == 0


class TestStats:
    def test_counts_for_questions(self):
        pool = _pool({"attr_query": 4, "exist": 2}, scenes=3)
        out = stats(pool)
        assert out["total"] == 6
        assert out["per_question_type"] == {"attr_query": 4, "exist": 2}
        assert out["scenes"] == 3
        assert out["per_module_kind"] == {}

    def test_counts_for_triples(self):
        triples = [
            Triple("s0", (0, 0, 5, 5), "q?", "yes", "verify_property", "a", "t1"),
            Triple("s1", (0, 0, 5, 5), "q?", "red", "simple_query", "b", "t1"),
            Triple("s1", (0, 0, 5, 5), "q?", "red", "simple_query", "c", "t2"),
        ]
        out = stats(triples)
        assert out["per_module_kind"] == {"simple_query": 2, "verify_property": 1}
        assert out["per_question_type"] == {"t1": 2, "t2": 1}
