"""CLI --resume: partition-per-shard processing with manifest skip."""

import json
import os

import pyarrow.parquet as pq
import pytest

from redpajama_data_ray.cli import main
from redpajama_data_ray.sources.corpus import generate_corpus_table
from redpajama_data_ray.state.manifest import Manifest


def test_cli_quality_resume(tmp_path, capsys):
    t = generate_corpus_table(40, seed=17)
    src = tmp_path / "corpus"
    src.mkdir()
    half = t.num_rows // 2
    for i in range(2):
        pq.write_table(
            t.slice(i * half, half if i < 1 else t.num_rows - half),
            str(src / f"shard_{i}.parquet"),
        )
    out = str(tmp_path / "out")

    assert main(
        ["quality", "--input", str(src), "--output", out, "--resume"]
    ) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["partitions"] == 2

    m = Manifest(out)
    assert set(m.committed()) == {"shard_0", "shard_1"}
    # lineage metrics recorded per partition (G7)
    rec = m.committed()["shard_0"]["metrics"]
    assert rec["kept"] + rec["dropped"] == rec["rows"]
    assert isinstance(rec["drop_reasons"], dict)
    assert sum(rec["languages"].values()) == rec["rows"]

    # drop one manifest entry; rerun resumes only that shard
    os.remove(os.path.join(m.manifest_dir, "shard_1.json"))
    mtime0 = os.path.getmtime(m.partition_output_dir("shard_0"))
    assert main(
        ["quality", "--input", str(src), "--output", out, "--resume"]
    ) == 0
    capsys.readouterr()
    assert set(m.committed()) == {"shard_0", "shard_1"}
    assert os.path.getmtime(m.partition_output_dir("shard_0")) == mtime0


def test_parallel_resume_four_shards_two_precommitted(tmp_path, capsys):
    """VERDICT r1 item 10: bounded-concurrency shard processing skips
    the two committed shards and processes the remaining two in
    parallel, with per-shard atomic commits."""
    t = generate_corpus_table(48, seed=23)
    src = tmp_path / "corpus"
    src.mkdir()
    q = t.num_rows // 4
    for i in range(4):
        pq.write_table(
            t.slice(i * q, q if i < 3 else t.num_rows - 3 * q),
            str(src / f"shard_{i}.parquet"),
        )
    out = str(tmp_path / "out")

    # pre-commit shards 0 and 1 by running them alone
    for i in (2, 3):
        os.rename(src / f"shard_{i}.parquet", tmp_path / f"hold_{i}")
    assert main(
        ["quality", "--input", str(src), "--output", out, "--resume"]
    ) == 0
    capsys.readouterr()
    m = Manifest(out)
    assert set(m.committed()) == {"shard_0", "shard_1"}
    stamps = {
        s: os.path.getmtime(os.path.join(m.manifest_dir, f"{s}.json"))
        for s in ("shard_0", "shard_1")
    }

    # restore all shards, rerun with 2 workers
    for i in (2, 3):
        os.rename(tmp_path / f"hold_{i}", src / f"shard_{i}.parquet")
    assert main(
        [
            "quality", "--input", str(src), "--output", out,
            "--resume", "--resume-workers", "2",
        ]
    ) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["partitions"] == 4
    m2 = Manifest(out)
    assert set(m2.committed()) == {f"shard_{i}" for i in range(4)}
    # the pre-committed shards were SKIPPED (manifest records untouched)
    for s, old in stamps.items():
        assert os.path.getmtime(
            os.path.join(m2.manifest_dir, f"{s}.json")
        ) == old
    # row totals add up across all four partitions
    total = sum(
        rec["metrics"]["rows"] for rec in m2.committed().values()
    )
    assert total == t.num_rows


def test_resume_sf_dir_partitions_the_synthesized_corpus(tmp_path, capsys):
    """A scale-factor dir names its synthesized corpus on the resume
    path as on the plain one: one partition per corpus shard, not the
    sf dir's own parquet tables (or nothing, as here)."""
    from redpajama_data_ray.sources.corpus import ensure_corpus_parquet

    sf_dir = tmp_path / "sf0.0001"
    sf_dir.mkdir()
    out = str(tmp_path / "out")
    assert main(
        ["quality", "--input", str(sf_dir), "--output", out, "--resume"]
    ) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    corpus = ensure_corpus_parquet(0.0001)
    shards = {
        os.path.splitext(f)[0]
        for f in os.listdir(corpus)
        if f.endswith(".parquet")
    }
    assert res["partitions"] == len(shards) > 1
    committed = Manifest(out).committed()
    assert set(committed) == shards
    assert sum(r["metrics"]["rows"] for r in committed.values()) == sum(
        pq.read_metadata(os.path.join(corpus, f"{s}.parquet")).num_rows
        for s in shards
    )


def test_resume_single_file_input(tmp_path, capsys):
    """A single-file --input is one resumable partition, not a silent
    fall-back to the plain write."""
    src = tmp_path / "one.parquet"
    pq.write_table(generate_corpus_table(12, seed=5), str(src))
    out = str(tmp_path / "out")
    assert main(
        ["quality", "--input", str(src), "--output", out, "--resume"]
    ) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["partitions"] == 1
    committed = Manifest(out).committed()
    assert set(committed) == {"one"}
    assert committed["one"]["metrics"]["rows"] == 12


@pytest.mark.parametrize(
    "extra, match",
    [
        (["--max-docs", "5"], "--max-docs"),
        (["--shuffle-files"], "--shuffle-files"),
        (["--input", "{missing}"], "does not exist"),
    ],
)
def test_resume_refuses_before_any_output(tmp_path, extra, match):
    """--max-docs and --shuffle-files have no per-shard meaning, and a
    missing input has no shards: the resume path refuses them, naming
    the flag or the path, before any output is written."""
    src = tmp_path / "one.parquet"
    pq.write_table(generate_corpus_table(4, seed=5), str(src))
    out = tmp_path / "out"
    extra = [a.format(missing=tmp_path / "missing.parquet") for a in extra]
    with pytest.raises(SystemExit, match=match):
        main(
            ["quality", "--input", str(src), "--output", str(out),
             "--resume", *extra]
        )
    assert not out.exists()
