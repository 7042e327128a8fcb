"""Manifest / checkpoint-resume tests (X5)."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from redpajama_data_ray.state.manifest import Manifest, run_partitioned


def _write_shards(tmp_path, n_shards=3, rows_per=10):
    paths = []
    for s in range(n_shards):
        t = pa.table(
            {
                "doc_id": list(range(s * rows_per, (s + 1) * rows_per)),
                "text": [f"doc {i} of shard {s}" for i in range(rows_per)],
            }
        )
        p = str(tmp_path / f"shard_{s}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    return paths


def _process(path):
    ds = ray.data.read_parquet(path)
    return ds.map_batches(
        lambda t: t.append_column(
            "n_words",
            pa.array(
                [len(x.split()) for x in t["text"].to_pylist()], pa.int64()
            ),
        ),
        batch_format="pyarrow",
    )


def test_run_partitioned_and_resume(tmp_path):
    inputs = _write_shards(tmp_path)
    out_dir = str(tmp_path / "out")

    committed = run_partitioned(inputs, out_dir, _process)
    assert set(committed) == {"shard_0", "shard_1", "shard_2"}
    assert all(rec["metrics"]["rows"] == 10 for rec in committed.values())

    # simulate a crash that lost one partition's manifest entry
    m = Manifest(out_dir)
    os.remove(os.path.join(m.manifest_dir, "shard_1.json"))
    assert m.pending(["shard_0", "shard_1", "shard_2"]) == ["shard_1"]

    # resume: only shard_1 reprocessed, other outputs untouched
    before = os.path.getmtime(m.partition_output_dir("shard_0"))
    committed = run_partitioned(inputs, out_dir, _process)
    assert set(committed) == {"shard_0", "shard_1", "shard_2"}
    assert os.path.getmtime(m.partition_output_dir("shard_0")) == before

    # all rows present across partitions
    total = sum(
        ray.data.read_parquet(m.partition_output_dir(f"shard_{s}")).count()
        for s in range(3)
    )
    assert total == 30


def test_manifest_commit_atomic(tmp_path):
    m = Manifest(str(tmp_path / "o"))
    m.commit("p1", {"rows": 5})
    rec = m.committed()["p1"]
    assert rec["metrics"]["rows"] == 5
    assert rec["committed_at"] > 0
    # no stray tmp files
    assert not [f for f in os.listdir(m.manifest_dir) if f.endswith(".tmp")]


def test_partition_quality_metrics_counts(tmp_path):
    """Counts over two files with a null keep, null and empty
    drop_reasons and null lang_pred; a file without the columns and a
    non-parquet file are skipped. A null keep counts as dropped."""
    from redpajama_data_ray.state.manifest import partition_quality_metrics

    reasons = pa.list_(pa.string())
    pq.write_table(
        pa.table(
            {
                "keep": pa.array([True, False, None], pa.bool_()),
                "drop_reasons": pa.array([[], ["a", "b"], None], reasons),
                "lang_pred": pa.array(["en", None, "en"], pa.string()),
            }
        ),
        str(tmp_path / "p0.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "keep": pa.array([True, False], pa.bool_()),
                "drop_reasons": pa.array([[], ["a"]], reasons),
                "lang_pred": pa.array([None, "fr"], pa.string()),
            }
        ),
        str(tmp_path / "p1.parquet"),
    )
    pq.write_table(pa.table({"x": [1]}), str(tmp_path / "p2.parquet"))
    (tmp_path / "notes.txt").write_text("not parquet")
    assert partition_quality_metrics(str(tmp_path)) == {
        "kept": 2,
        "dropped": 3,
        "drop_reasons": {"a": 2, "b": 1},
        "languages": {"en": 2, None: 2, "fr": 1},
    }
