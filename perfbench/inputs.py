"""Seeded inputs of the three workloads, cached by seed.

Each generator draws everything from ``numpy.random.default_rng`` of the
seed, so the same seed gives the same table. Tables are written once per
seed as parquet shards under ``.pbw/in`` and read back by later runs;
``checksum`` hashes the table as loaded, so a change to a generator, or
to the program's corpus generator that ``quality_code`` reuses, shows as
a new checksum.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Dict, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from session import WORK

# bump when a generator below changes, so stale caches are not reused
VERSION = 1

QUALITY_FILES = 500
DEDUP_ROWS = 60_000
SAMPLE_ROWS = 30_000
SAMPLE_GROUPS = 2_000

# minhash LSH layout of signature_sim0.8 (9 bands of 13 uint32 each)
BANDS, BAND_BYTES = 9, 13 * 4
SHARDS = 8


def quality_table(seed: int) -> pa.Table:
    """The program's own synthetic code corpus (FIXTURES.md mix: code,
    prose, edge cases, PII rows, exact and near duplicates, and one ~1 MB
    single-line file placed first)."""
    from redpajama_data_ray.sources.corpus import generate_corpus_table

    return generate_corpus_table(QUALITY_FILES, seed=seed)


def _unique_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct uint64 ids over the full 64-bit range."""
    ids = np.unique(rng.integers(0, 2**64, size=2 * n, dtype=np.uint64))
    return rng.permutation(ids)[:n]


def dedup_table(seed: int) -> Tuple[pa.Table, Dict[str, np.ndarray]]:
    """Rows with planted exact copies and near-duplicate chains.

    - ``content_sha256``: ~30% of rows share their key with 1-5 others;
    - ``signature_sim0.8``: ~35% of rows sit in chains of 2-5 documents,
      each linked to the previous one by one shared band (so a chain is
      one connected component although its ends share no band); 1% of
      the singletons have a null signature (short documents).

    Returns the table and the planted truth: ``key`` and ``component``
    per row (a component label of -1 marks a singleton)."""
    rng = np.random.default_rng(seed)
    n = DEDUP_ROWS
    doc_id = np.char.add("d", np.char.zfill(rng.permutation(n).astype(str), 7))
    id_int = _unique_ids(rng, n)

    # exact keys: group sizes 1 (singletons) or 2-6 (planted copies)
    key = np.empty(n, np.int64)
    order = rng.permutation(n)
    pos, k = 0, 0
    while pos < n:
        size = int(rng.integers(2, 7)) if rng.random() < 0.1 else 1
        key[order[pos : pos + size]] = k
        pos += size
        k += 1
    sha = np.array(
        [hashlib.sha256(f"content-{seed}-{i}".encode()).hexdigest() for i in range(k)]
    )[key]

    # near-dup chains over random 52-byte bands
    bands = rng.integers(0, 256, size=(n, BANDS, BAND_BYTES), dtype=np.uint8)
    component = np.full(n, -1, np.int64)
    order = rng.permutation(n)
    pos, c = 0, 0
    while pos < int(0.35 * n):
        size = int(rng.integers(2, 6))
        members = order[pos : pos + size]
        component[members] = c
        for prev, cur in zip(members[:-1], members[1:]):
            b = int(rng.integers(0, BANDS))
            bands[cur, b] = bands[prev, b]
        pos += size
        c += 1
    singles = order[pos:]
    null_sig = np.zeros(n, bool)
    null_sig[singles[: len(singles) // 100]] = True

    kept = bands[~null_sig]
    flat = pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(BAND_BYTES), kept.shape[0] * BANDS, [None, pa.py_buffer(kept.tobytes())]
    ).cast(pa.binary())
    offsets = np.zeros(n + 1, np.int32)
    np.cumsum(np.where(null_sig, 0, BANDS), out=offsets[1:])
    sig = pa.ListArray.from_arrays(pa.array(offsets), flat, mask=pa.array(null_sig))
    table = pa.table(
        {
            "doc_id": pa.array(doc_id, pa.string()),
            "id_int": pa.array(id_int, pa.uint64()),
            "content_sha256": pa.array(sha, pa.string()),
            "signature_sim0.8": sig,
        }
    )
    return table, {"key": key, "component": component}


def sample_table(seed: int) -> pa.Table:
    """Rows over ``SAMPLE_GROUPS`` sources: one source holds half the
    rows, the rest follow a Zipf law (s = 1.1) with at least one row
    each. Extra columns give the profiler strings, integers below 2^53,
    floats and nulls."""
    rng = np.random.default_rng(seed)
    n, g = SAMPLE_ROWS, SAMPLE_GROUPS
    tail = n - n // 2
    w = 1.0 / np.arange(1, g) ** 1.1
    sizes = 1 + np.floor(w / w.sum() * (tail - (g - 1))).astype(np.int64)
    sizes[0] += tail - sizes.sum()
    group = np.concatenate([np.zeros(n // 2, np.int64), np.repeat(np.arange(1, g), sizes)])
    group = rng.permutation(group)
    names = np.char.add("src-", np.char.zfill(rng.permutation(g).astype(str), 5))
    score = rng.random(n)
    lang = np.array(["en", "fr", "de", "code", "es"])[rng.integers(0, 5, n)]
    return pa.table(
        {
            "doc_id": pa.array(
                np.char.add("s", np.char.zfill(rng.permutation(n).astype(str), 7)),
                pa.string(),
            ),
            "source": pa.array(names[group], pa.string()),
            "tokens": pa.array(rng.integers(1, 4000, n), pa.int64()),
            "score": pa.array(score, pa.float64(), mask=rng.random(n) < 0.05),
            "lang": pa.array(lang, pa.string(), mask=rng.random(n) < 0.02),
            "offset": pa.array(rng.integers(-(2**52), 2**52, n), pa.int64()),
        }
    )


def checksum(table: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table.combine_chunks())
    return hashlib.sha256(sink.getvalue()).hexdigest()


# workload -> (seed -> (table, planted truth), size in the cache key)
_GENERATORS = {
    "quality_code": (lambda seed: (quality_table(seed), {}), QUALITY_FILES),
    "dedup_planted": (dedup_table, DEDUP_ROWS),
    "sample_skewed": (lambda seed: (sample_table(seed), {}), SAMPLE_ROWS),
}


def load(workload: str, seed: int):
    """(parquet dir, table, planted truth, checksum) for a seed; the
    table is generated and written on the first call for that seed."""
    make, size = _GENERATORS[workload]
    d = os.path.join(WORK, "in", f"{workload}-s{seed}-n{size}-v{VERSION}")
    done = os.path.join(d, "_truth.npz")
    if not os.path.exists(done):
        table, truth = make(seed)
        tmp = d + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        bounds = np.linspace(0, table.num_rows, SHARDS + 1).astype(int)
        for s in range(SHARDS):
            pq.write_table(
                table.slice(bounds[s], bounds[s + 1] - bounds[s]),
                os.path.join(tmp, f"part-{s:02d}.parquet"),
            )
        np.savez(os.path.join(tmp, "_truth.npz"), **truth)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    table = pq.read_table(d)
    with np.load(done) as z:
        truth = {k: z[k] for k in z.files}
    return d, table, truth, checksum(table)
