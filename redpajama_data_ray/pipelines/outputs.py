"""Four-sink layout for the flagship pipeline.

The reference writes, per input shard, a signals file, a minhash
parquet and (downstream) the kept corpus in the same worker pass that
computes them (reference app/src/core/worker.py:291-356). Here ONE Ray
Data execution writes all four sinks: ``NarrowSinks``, a task
``map_batches`` step appended to the annotated dataset, writes the
signals-only, minhash-only and kept-corpus tables of each batch with
pyarrow and passes the batch on unchanged to the single
``write_parquet`` of the full annotated output. Ray fuses
ids -> annotate -> NarrowSinks -> Write into one task per read block,
so no sink reads the annotated parquet back.

A narrow file is named after the execution's write uuid, the task
index and the batch's ordinal within its task (the shape of Ray's own
default file names), so two blocks never collide and a retried task
overwrites the files its failed attempt left. On a filesystem that can
rename, each file is written under a ``.``-prefixed temporary name
first (parquet readers skip those) and renamed into place; an object
store publishes each object whole, so there it is written directly.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Dict, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs
import pyarrow.parquet as pq
from ray.data import Dataset

SIGNATURE_COLUMNS = [
    "signature_sim1.0",
    "signature_sim0.9",
    "signature_sim0.8",
    "signature_sim0.7",
]

# sidecar recording which shingle-hash mode produced the signature
# columns (sha1 reference parity vs the documented poly64 deviation —
# functions/minhash.py). Signatures from different modes are not
# comparable; dedup-fuzzy --state-dir validates this stamp against the
# state dir's copy so a mixed-mode probe fails loudly instead of
# silently under-deduplicating. The underscore prefix keeps pyarrow's
# dataset discovery (ignore_prefixes=['.', '_']) from treating the
# sidecar as a parquet file when the dir is read back.
MINHASH_FORMAT_FILE = "_MINHASH_FORMAT.json"


def write_minhash_provenance(dir_path: str, provenance: Dict) -> None:
    os.makedirs(dir_path, exist_ok=True)
    with open(os.path.join(dir_path, MINHASH_FORMAT_FILE), "w") as f:
        json.dump(provenance, f)


def read_minhash_provenance(dir_path: str) -> Optional[Dict]:
    p = os.path.join(dir_path, MINHASH_FORMAT_FILE)
    if not os.path.isfile(p):
        return None  # legacy output (pre-stamping, sha1-only era)
    with open(p) as f:
        return json.load(f)

KEPT_COLUMNS = [
    "doc_id", "id_int", "repo", "path", "commit", "lang",
    "content", "content_scrubbed_sha256",
]

SIGNAL_PREFIXES = ("rps_", "pii_", "lang_", "ppl")

# filesystems that publish each object whole and cannot rename
_OBJECT_STORES = ("s3", "gcs", "abfs")


def signals_table(t: pa.Table) -> pa.Table:
    return t.select(
        [
            c
            for c in t.schema.names
            if c.startswith(SIGNAL_PREFIXES)
            or c in ("doc_id", "id_int", "keep", "drop_reasons")
        ]
    )


def minhash_table(t: pa.Table) -> pa.Table:
    names = t.schema.names
    return t.select(
        ["doc_id", "id_int"] + [c for c in SIGNATURE_COLUMNS if c in names]
    )


def kept_table(t: pa.Table) -> pa.Table:
    """The rows with ``keep == True`` (null counts as dropped), in the
    ``KEPT_COLUMNS`` the table has."""
    names = t.schema.names
    return t.filter(pc.equal(t["keep"], True)).select(
        [c for c in KEPT_COLUMNS if c in names]
    )


NARROW_TABLES = {
    "signals": signals_table,
    "minhash": minhash_table,
    "kept": kept_table,
}


class NarrowSinks:
    """Task ``map_batches`` step: writes each batch's ``sinks`` tables
    (``NARROW_TABLES``) to ``<out_dir>/<sink>/`` and returns the batch
    as it came. Zero-row tables write no file, so a sink no batch
    writes to gets no dir, as with Ray's own write."""

    # TaskContext.kwargs key of the batch counter of the running task
    _ORDINAL = "narrow_sinks_batches"

    def __init__(self, out_dir: str, sinks=tuple(NARROW_TABLES)):
        if "://" in out_dir:
            self.fs, root = pafs.FileSystem.from_uri(out_dir)
        else:
            # workers do not share the driver's cwd
            self.fs, root = pafs.LocalFileSystem(), os.path.abspath(out_dir)
        self.dirs = {s: f"{root.rstrip('/')}/{s}" for s in sinks}
        self.rename = self.fs.type_name not in _OBJECT_STORES
        self.write_uuid = uuid.uuid4().hex

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ray.data._internal.execution.interfaces.task_context import (
            TaskContext,
        )

        ctx = TaskContext.get_current()
        ordinal = ctx.kwargs.get(self._ORDINAL, 0)
        ctx.kwargs[self._ORDINAL] = ordinal + 1
        name = f"{self.write_uuid}_{ctx.task_idx:06}_{ordinal:06}.parquet"
        for sink, d in self.dirs.items():
            t = NARROW_TABLES[sink](batch)
            if t.num_rows == 0:
                continue
            if not self.rename:
                pq.write_table(t, f"{d}/{name}", filesystem=self.fs)
                continue
            self.fs.create_dir(d, recursive=True)
            tmp = f"{d}/.{name}.tmp"
            pq.write_table(t, tmp, filesystem=self.fs)
            self.fs.move(tmp, f"{d}/{name}")
        return batch


def with_narrow_sinks(
    ds: Dataset, out_dir: str, sinks=tuple(NARROW_TABLES)
) -> Dataset:
    """``ds`` with a ``NarrowSinks`` step appended: executing the
    result (its ``write_parquet``) also writes the ``sinks`` under
    ``out_dir``. The step takes whole blocks (one narrow file per
    block) and sets no concurrency, so Ray fuses it with the task maps
    before it and the write after it."""
    return ds.map_batches(
        NarrowSinks(out_dir, sinks),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


def write_outputs(
    annotated: Dataset,
    out_dir: str,
    minhash_provenance: Optional[Dict] = None,
) -> Dict[str, str]:
    """annotated -> {annotated, signals, minhash, kept} parquet dirs,
    all four written by one execution (the models run exactly once)."""
    paths = {
        "annotated": os.path.join(out_dir, "annotated"),
        "signals": os.path.join(out_dir, "signals"),
        "minhash": os.path.join(out_dir, "minhash"),
        "kept": os.path.join(out_dir, "kept"),
    }
    with_narrow_sinks(annotated, out_dir).write_parquet(paths["annotated"])
    if minhash_provenance is not None:
        write_minhash_provenance(paths["annotated"], minhash_provenance)
        write_minhash_provenance(paths["minhash"], minhash_provenance)
    return paths
