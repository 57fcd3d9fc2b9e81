import types

from progdistill.util import iter_jsonl, mean, read_jsonl, write_jsonl


def test_iter_jsonl_skips_blank_lines_like_read_jsonl(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n   \n{"b": [2, 3]}\n\t\n{"c": "x y"}',
                    encoding="utf-8")
    records = list(iter_jsonl(path))
    assert records == [{"a": 1}, {"b": [2, 3]}, {"c": "x y"}]
    assert read_jsonl(path) == records


def test_iter_jsonl_is_lazy_and_round_trips_write_jsonl(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [{"i": i, "s": "é"} for i in range(5)]
    assert write_jsonl(path, records) == 5
    stream = iter_jsonl(path)
    assert isinstance(stream, types.GeneratorType)
    assert next(stream) == records[0]
    assert [records[0], *stream] == records
    assert read_jsonl(path) == records


def test_mean_sums_left_to_right():
    # Python 3.12's sum() compensates: it gives 1.0 here, so the mean would
    # be 1/3. Left to right, 1e16 + 1.0 rounds back to 1e16.
    assert mean([1e16, 1.0, -1e16]) == 0.0
    assert mean([0.1] * 10) == 0.09999999999999999
    assert mean([3, 4]) == 3.5
