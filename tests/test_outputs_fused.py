"""write_outputs writes all four sinks from one execution: every sink
must hold the rows the read-back layout derives from the annotated
output, under any blocking and stage set, and neither duplicate input
files nor a worker lost mid-task may lose or duplicate a row."""

import collections
import hashlib
import json
import os

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
