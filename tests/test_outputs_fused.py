"""write_outputs writes all four sinks from one execution: every sink
must hold the rows the read-back layout derives from the annotated
output, under any blocking and stage set, and neither duplicate input
files nor a worker lost mid-task may lose or duplicate a row. The
execution is one operator per read block whose tasks run side by side,
up to ``max_actors`` of them."""

import collections
import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from redpajama_data_ray.functions.rules import RuleConfig
from redpajama_data_ray.pipelines.outputs import (
    with_narrow_sinks,
    write_outputs,
)
from redpajama_data_ray.pipelines.quality import QualityConfig, annotate
from redpajama_data_ray.sources.corpus import generate_corpus_table

SINKS = ("annotated", "signals", "minhash", "kept")


def _src(tmp_path, copies=1, n=64):
    t = generate_corpus_table(n, seed=21)
    d = tmp_path / "corpus"
    d.mkdir()
    for i in range(copies):
        pq.write_table(t, str(d / f"c{i}.parquet"))
    return str(d)


def _read(d) -> pa.Table:
    # dataset discovery skips "."- and "_"-prefixed files
    return pads.dataset(d, format="parquet").to_table()


def _rows(t: pa.Table) -> "list[str]":
    return [json.dumps(r, default=bytes.hex) for r in t.to_pylist()]


def _digest(t: pa.Table) -> str:
    return hashlib.sha256("\n".join(sorted(_rows(t))).encode()).hexdigest()


def _reread_layout(ann: pa.Table) -> dict:
    """The narrow sinks as column-pruned re-reads of the annotated
    output would write them."""
    names = ann.schema.names
    sigs = [
        f"signature_sim{s}" for s in ("1.0", "0.9", "0.8", "0.7")
        if f"signature_sim{s}" in names
    ]
    kept_cols = [
        c
        for c in ("doc_id", "id_int", "repo", "path", "commit", "lang",
                  "content", "content_scrubbed_sha256")
        if c in names
    ]
    return {
        "signals": ann.select(
            [
                c for c in names
                if c.startswith(("rps_", "pii_", "lang_", "ppl"))
                or c in ("doc_id", "id_int", "keep", "drop_reasons")
            ]
        ),
        "minhash": ann.select(["doc_id", "id_int"] + sigs),
        "kept": ann.filter(pa.compute.equal(ann["keep"], True)).select(
            kept_cols
        ),
    }


def _no_temp_files(paths: dict) -> None:
    for p in paths.values():
        if os.path.isdir(p):
            assert not [f for f in os.listdir(p) if f.startswith(".")]


@pytest.mark.parametrize(
    "blocks,extra",
    [
        (1, {}),
        (4, {}),
        (8, {}),
        (4, {"include_minhash": False}),
        (4, {"plugin": True}),
    ],
)
def test_sinks_equal_reread_layout(tmp_path, blocks, extra):
    from redpajama_data_ray.functions.registry import (
        register_signal,
        unregister_signal,
    )

    extra = dict(extra)
    plugin = extra.pop("plugin", False)
    if plugin:
        register_signal("rps_doc_plugin_len", pa.int64())(
            lambda texts: [len(t) for t in texts]
        )
    src = _src(tmp_path)
    cfg = QualityConfig(include_line_signals=False, **extra)

    def pipeline():
        ds = ray.data.read_parquet(src, override_num_blocks=blocks)
        return annotate(ds, cfg)

    try:
        paths = write_outputs(pipeline(), str(tmp_path / "out"))
        want = pa.concat_tables(ray.get(pipeline().to_arrow_refs()))
    finally:
        unregister_signal("rps_doc_plugin_len")
    ann = _read(paths["annotated"])
    assert ann.num_rows == 64
    assert _digest(ann) == _digest(want)
    for sink, t in _reread_layout(ann).items():
        got = _read(paths[sink])
        assert got.schema.names == t.schema.names, sink
        assert _digest(got) == _digest(t), sink
    assert ("rps_doc_plugin_len" in ann.schema.names) == plugin
    if not cfg.include_minhash:
        assert _read(paths["minhash"]).schema.names == ["doc_id", "id_int"]
    _no_temp_files(paths)


def test_one_fused_execution_with_max_actors(tmp_path):
    """A task cap still leaves ids -> annotate -> sinks -> write one
    operator: the cap is a CPU limit on the execution, not a pool size
    Ray's write cannot match."""
    src = _src(tmp_path)
    ds = with_narrow_sinks(
        annotate(
            ray.data.read_parquet(src, override_num_blocks=4),
            QualityConfig(max_actors=1, include_line_signals=False),
        ),
        str(tmp_path / "out"),
    )
    ds.write_parquet(str(tmp_path / "out" / "annotated"))
    ops = [
        line.split(":")[0]
        for line in ds.stats().splitlines()
        if line.startswith("Operator")
    ]
    assert ops[-1].endswith(
        "MapBatches(assign_ids)->MapBatches(CachedAnnotateStage)"
        "->MapBatches(NarrowSinks)->Write"
    ), ops
    assert ds.context.execution_options.resource_limits.cpu == 1
    # the limit stays on this dataset's context, off the global one
    default = ray.data.DataContext.get_current().execution_options
    assert default.resource_limits.cpu != 1


MARKER = "slow-block-marker"


def _timed_calls(tmp_path, **cfg_kwargs):
    """Annotate and write 4 one-file read blocks whose first holds a
    marker row. A plugin signal sleeps 1 s in the call that sees the
    marker and appends ``(pid, start, end, marker)`` of every call to a
    file; returns those calls and the execution's ``ds.stats()``."""
    from redpajama_data_ray.functions.registry import (
        register_signal,
        unregister_signal,
    )

    d = tmp_path / "corpus"
    d.mkdir()
    # a block of one annotate batch: Ray packs smaller blocks together
    n = QualityConfig().actor_batch_size
    t = generate_corpus_table(4 * n, seed=21, include_big_file=False)
    for i in range(4):
        part = t.slice(n * i, n)
        if i == 0:
            content = [MARKER] + part["content"].to_pylist()[1:]
            part = part.set_column(
                part.schema.get_field_index("content"),
                "content",
                pa.array(content, part.schema.field("content").type),
            )
        pq.write_table(part, str(d / f"c{i}.parquet"))
    log = str(tmp_path / "calls.jsonl")

    def timed(texts):
        start = time.time()
        marker = MARKER in texts
        if marker:
            time.sleep(1.0)
        with open(log, "a") as f:
            f.write(json.dumps([os.getpid(), start, time.time(), marker]))
            f.write("\n")
        return [0] * len(texts)

    register_signal("rps_doc_test_timed", pa.int64())(timed)
    ds = ray.data.read_parquet(str(d), override_num_blocks=4)
    # the object-store budget of a 512 MB store (Ray Data gives an
    # execution half the store), whatever this session's store is
    opts = ds.context.execution_options
    opts.resource_limits = opts.resource_limits.copy(
        object_store_memory=256 * 2**20
    )
    try:
        ds = with_narrow_sinks(
            annotate(
                ds, QualityConfig(include_line_signals=False, **cfg_kwargs)
            ),
            str(tmp_path / "out"),
        )
        ds.write_parquet(str(tmp_path / "out" / "annotated"))
    finally:
        unregister_signal("rps_doc_test_timed")
    with open(log) as f:
        calls = [json.loads(line) for line in f]
    assert sum(marker for *_, marker in calls) == 1
    assert _read(str(tmp_path / "out" / "annotated")).num_rows == 4 * n
    return calls, ds.stats()


def _operators(stats: str) -> "list[str]":
    return [
        line.split(":")[0].split(" ", 2)[2]
        for line in stats.splitlines()
        if line.startswith("Operator")
    ]


def test_first_block_does_not_hold_back_the_rest(tmp_path):
    """A read of whole files fuses into the annotate -> write chain
    (one operator, one task per read block), and Ray budgets no 256 MB
    guess for the chain's first output: the other blocks annotate
    while the slow first one is still running."""
    calls, stats = _timed_calls(tmp_path)
    ops = _operators(stats)
    assert len(ops) == 1, ops
    assert ops[0].startswith("ReadParquet->") and ops[0].endswith("->Write")
    (_, _, slow_end, _), = [c for c in calls if c[3]]
    assert min(start for _, start, _, m in calls if not m) < slow_end


def test_max_actors_caps_the_fused_execution(tmp_path):
    """``max_actors=1`` still runs one annotate call at a time."""
    calls, _ = _timed_calls(tmp_path, max_actors=1)
    spans = sorted((start, end) for _, start, end, _ in calls)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end, spans


def _shards(d, k: int, rows: int) -> str:
    t = generate_corpus_table(k * rows, seed=29, include_big_file=False)
    d.mkdir()
    for i in range(k):
        pq.write_table(t.slice(i * rows, rows), str(d / f"shard_{i}.parquet"))
    return str(d)


def _parquet_files(d) -> "list[str]":
    return [n for n in os.listdir(d) if n.endswith(".parquet")]


def test_auto_sized_read_keeps_its_block_count(tmp_path, capsys):
    """A read with no ``override_num_blocks`` takes its block count from
    the lineage's ``target_max_block_size``: the fused plan's target is
    finite, so a small input still gets Ray's 2 blocks per CPU (one
    fused task per file here), not its 200-block floor, and every write
    task writes one file."""
    from redpajama_data_ray.cli import main

    blocks = 2 * int(ray.cluster_resources()["CPU"])
    src = _shards(tmp_path / "corpus", blocks, 12)
    ds = annotate(
        ray.data.read_parquet(src), QualityConfig(include_line_signals=False)
    )
    target = ds.context.target_max_block_size
    assert target is not None and target <= 128 * 2**20
    ds = with_narrow_sinks(ds, str(tmp_path / "lib"))
    ds.write_parquet(str(tmp_path / "lib" / "annotated"))
    ops = _operators(ds.stats())
    assert len(ops) == 1, ops
    assert ops[0].startswith("ReadParquet->") and ops[0].endswith("->Write")
    assert len(_parquet_files(tmp_path / "lib" / "annotated")) == blocks

    # the CLI reads the same way; --resume reads each shard on its own
    out = tmp_path / "cli"
    assert main(["quality", "--input", src, "--output", str(out)]) == 0
    assert len(_parquet_files(out / "annotated")) == blocks
    assert _read(str(out / "annotated")).num_rows == blocks * 12
    out = tmp_path / "resume"
    src = _shards(tmp_path / "two", 2, 48)
    assert main(
        ["quality", "--input", src, "--output", str(out), "--resume"]
    ) == 0
    capsys.readouterr()
    for i in range(2):
        assert len(_parquet_files(out / f"part=shard_{i}")) <= blocks


def test_identical_input_files_double_every_sink(tmp_path):
    """The same rows in two blocks must land twice in every sink (file
    names never collide), as they do in the annotated write."""
    src = _src(tmp_path, copies=2)
    paths = write_outputs(
        annotate(
            # one block per file: two blocks of the same rows
            ray.data.read_parquet(src, override_num_blocks=2),
            QualityConfig(include_line_signals=False),
        ),
        str(tmp_path / "out"),
    )
    n_kept = None
    for sink in SINKS:
        t = _read(paths[sink])
        counts = collections.Counter(_rows(t))
        assert set(counts.values()) == {2}, sink
        if sink == "annotated":
            assert t.num_rows == 2 * 64
            n_kept = int(pa.compute.sum(t["keep"]).as_py())
    assert _read(paths["kept"]).num_rows == n_kept


def test_all_dropped_input_writes_no_kept_dir(tmp_path):
    """As with Ray's own write, a sink that receives no row gets no
    directory; the others hold every row."""
    src = _src(tmp_path)
    paths = write_outputs(
        annotate(
            ray.data.read_parquet(src),
            QualityConfig(
                include_line_signals=False,
                rules=RuleConfig(min_word_count=10**9),
            ),
        ),
        str(tmp_path / "out"),
    )
    assert not os.path.exists(paths["kept"])
    assert _read(paths["signals"]).num_rows == 64
    assert _read(paths["minhash"]).num_rows == 64


def test_worker_killed_after_narrow_writes_leaves_no_duplicates(tmp_path):
    """The worker dies (SIGKILL-grade, once per run by file sentinel)
    after its block's narrow files are written and before the task
    returns: Ray retries the task, which rewrites the same file names,
    so no sink holds a row twice and no temporary file is left."""
    src = _src(tmp_path)
    out = str(tmp_path / "out")
    sentinel = str(tmp_path / "crashed_once")
    signals_dir = os.path.join(out, "signals")

    def crash_once(t: pa.Table) -> pa.Table:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return t
        os.write(fd, str(len(os.listdir(signals_dir))).encode())
        os.close(fd)
        os._exit(1)  # no cleanup path

    ds = with_narrow_sinks(
        annotate(
            ray.data.read_parquet(src, override_num_blocks=4),
            QualityConfig(include_line_signals=False),
        ),
        out,
    ).map_batches(
        crash_once, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
    ds.write_parquet(os.path.join(out, "annotated"))
    # the kill fell inside the task that wrote the narrow files
    assert "MapBatches(NarrowSinks)->MapBatches(crash_once)->Write" in (
        ds.stats()
    )
    with open(sentinel) as f:
        assert int(f.read()) >= 1  # the kill came after a narrow write
    paths = {s: os.path.join(out, s) for s in SINKS}
    ann = _read(paths["annotated"])
    assert ann.num_rows == 64
    for sink, t in _reread_layout(ann).items():
        got = _read(paths[sink])
        assert max(collections.Counter(_rows(got)).values()) == 1, sink
        assert _digest(got) == _digest(t), sink
    _no_temp_files(paths)
