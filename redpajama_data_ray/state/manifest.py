"""Per-partition lineage/metrics manifest and checkpoint resume (X5).

The reference tracks per-uri SUCCESS/FAIL marker files and skips
completed uris on rerun (/root/reference/app/src/core/worker.py:118-126,
374-394). The Ray-native equivalent: one manifest JSON line per
committed input partition, written atomically (temp file + rename) after
that partition's output parquet directory is fully written. On startup,
``pending()`` prunes already-committed inputs, so a killed run resumes
from the last committed partition.

Layout (resumable output, one directory per input shard)::

    out_dir/
      part=<shard>/*.parquet     # written first
      _manifest/<shard>.json     # committed last (atomic rename)
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional

from ray.data import Dataset


class Manifest:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.manifest_dir, exist_ok=True)

    def committed(self) -> Dict[str, dict]:
        out = {}
        for name in os.listdir(self.manifest_dir):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.manifest_dir, name)) as f:
                rec = json.load(f)
            out[rec["partition"]] = rec
        return out

    def pending(self, partitions: Iterable[str]) -> List[str]:
        done = self.committed()
        return [p for p in partitions if p not in done]

    def partition_output_dir(self, partition: str) -> str:
        return os.path.join(self.out_dir, f"part={partition}")

    def commit(self, partition: str, metrics: Optional[dict] = None):
        """Atomically record a partition as complete with its metrics."""
        rec = {
            "partition": partition,
            "committed_at": time.time(),
            "metrics": metrics or {},
        }
        final = os.path.join(self.manifest_dir, f"{partition}.json")
        tmp = final + ".tmp"
        with open(tmp, "w") as f:
            json.dump(rec, f)
        os.replace(tmp, final)  # atomic on POSIX


def run_partitioned(
    input_files: List[str],
    out_dir: str,
    process_fn: Callable[[str], Dataset],
    metrics_fn: Optional[Callable[[Dataset], dict]] = None,
    max_concurrent: int = 1,
) -> Dict[str, dict]:
    """Process each input file into its own committed output partition,
    skipping partitions already present in the manifest (resume).

    ``process_fn(path) -> Dataset`` builds the (lazy) pipeline for one
    input shard; the result is written to ``part=<shard>/`` and the
    partition committed. Returns the full committed map.

    ``max_concurrent`` > 1 processes pending shards from a bounded
    thread pool — each thread drives one independent Ray Dataset
    execution (the streaming executor multiplexes them over the same
    cluster CPUs), and commit stays per-shard atomic (``os.replace``
    of the shard's own manifest record), so a crash mid-run still
    resumes exactly at the uncommitted shards."""

    _stabilize_fsspec_http_import()

    def _one(path: str, shard: str, manifest: "Manifest") -> None:
        ds = process_fn(path)
        part_dir = manifest.partition_output_dir(shard)
        # an uncommitted partition dir may hold partial output from a
        # crashed run — clear it so the rewrite is exact, not additive
        import shutil

        shutil.rmtree(part_dir, ignore_errors=True)
        ds.write_parquet(part_dir)
        metrics = {"input": path, "rows": _count_rows(part_dir)}
        metrics.update(partition_quality_metrics(part_dir))
        if metrics_fn is not None:
            metrics.update(metrics_fn(ds))
        manifest.commit(shard, metrics)

    manifest = Manifest(out_dir)
    names = {p: os.path.splitext(os.path.basename(p))[0] for p in input_files}
    todo = manifest.pending(names.values())
    pending = [(p, s) for p, s in names.items() if s in todo]
    if max_concurrent <= 1:
        for path, shard in pending:
            _one(path, shard, manifest)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_concurrent) as pool:
            futures = [
                pool.submit(_one, path, shard, manifest)
                for path, shard in pending
            ]
            for f in futures:
                f.result()  # surface the first failure
    return manifest.committed()


def _count_rows(part_dir: str) -> int:
    """Row count from written parquet footers (no re-execution)."""
    import pyarrow.parquet as pq

    total = 0
    for name in os.listdir(part_dir):
        if name.endswith(".parquet"):
            total += pq.ParquetFile(os.path.join(part_dir, name)).metadata.num_rows
    return total


def partition_quality_metrics(part_dir: str) -> dict:
    """Per-partition lineage metrics from a written annotated partition:
    kept/dropped counts (a null ``keep`` counts as dropped), per-drop-
    reason counts, language distribution. Reads only the three needed
    columns from the parquet footprint and counts with Arrow compute."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    kept = dropped = 0
    reasons: Dict[str, int] = {}
    langs: Dict[str, int] = {}
    for name in sorted(os.listdir(part_dir)):
        if not name.endswith(".parquet"):
            continue
        pf = pq.ParquetFile(os.path.join(part_dir, name))
        cols = [
            c
            for c in ("keep", "drop_reasons", "lang_pred")
            if c in pf.schema_arrow.names
        ]
        if not cols:
            continue
        t = pf.read(columns=cols)
        if "keep" in cols:
            n = pc.sum(t.column("keep")).as_py() or 0
            kept += n
            dropped += t.num_rows - n
        if "drop_reasons" in cols:
            _add_counts(reasons, pc.list_flatten(t.column("drop_reasons")))
        if "lang_pred" in cols:
            _add_counts(langs, t.column("lang_pred"))
    return {
        "kept": kept,
        "dropped": dropped,
        "drop_reasons": reasons,
        "languages": langs,
    }


def _add_counts(acc: Dict, values) -> None:
    vc = values.value_counts()
    for v, n in zip(
        vc.field("values").to_pylist(), vc.field("counts").to_pylist()
    ):
        acc[v] = acc.get(v, 0) + n


def _stabilize_fsspec_http_import() -> None:
    """Make Ray's filesystem resolution thread-safe in this container.

    ``ray.data`` path resolution imports ``fsspec.implementations.http``
    on every read/write; with ``aiohttp`` absent that import FAILS each
    time (and is normally caught as ModuleNotFoundError). Under
    concurrent dataset construction/writes from a thread pool, two
    threads can race the failing import and one observes a
    partially-initialized module — crashing with a bare ImportError
    Ray does not catch. When the real module is unimportable, register
    a minimal sentinel module once so every later import succeeds
    trivially (the sentinel class never matches a real filesystem, so
    behavior is identical to the handled-failure path)."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ImportError:
        pass
    try:
        import fsspec  # noqa: F401
    except ImportError:
        return
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # sentinel: isinstance() is always False
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod
