"""Answers computed apart from the program, to check its outputs.

Nothing here calls into ``redpajama_data_ray`` except to read the
normalized word list a document is shingled from; each answer is
recomputed from the inputs with hashlib, numpy or DuckDB.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa

# reference minhash parameters: 128 permutations drawn from
# RandomState(42) over the Mersenne prime 2^61-1, 13-word shingles
_PRIME = np.uint64((1 << 61) - 1)
_MAX32 = np.uint64((1 << 32) - 1)
_NGRAM = 13


def sha256_hex(texts: Sequence[Optional[str]]) -> List[Optional[str]]:
    return [
        None if t is None else hashlib.sha256(t.encode("utf-8")).hexdigest()
        for t in texts
    ]


class ReferenceMinHash:
    """The reference algorithm: de-duplicated 13-word shingles, each
    hashed to the first 4 little-endian bytes of its sha1, then
    ``(a*h + b) mod p & 0xffffffff`` per permutation in wrapping uint64
    arithmetic, column minimum, bands serialized big-endian."""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.RandomState(seed)
        ab = np.array(
            [
                (rng.randint(1, _PRIME, dtype=np.uint64), rng.randint(0, _PRIME, dtype=np.uint64))
                for _ in range(num_perm)
            ],
            dtype=np.uint64,
        ).T
        self.a, self.b = ab[0], ab[1]

    def signature(self, words: Sequence[str]) -> Optional[np.ndarray]:
        if len(words) < _NGRAM:
            return None
        shingles = {
            " ".join(words[i : i + _NGRAM]).encode("utf-8")
            for i in range(len(words) - _NGRAM + 1)
        }
        h = np.array(
            [int.from_bytes(hashlib.sha1(s).digest()[:4], "little") for s in shingles],
            dtype=np.uint64,
        )
        with np.errstate(over="ignore"):
            phv = ((h[:, None] * self.a[None, :] + self.b[None, :]) % _PRIME) & _MAX32
        return phv.min(axis=0).astype(np.uint32)

    def bands(self, words: Sequence[str], n_bands: int, rows: int) -> Optional[List[bytes]]:
        sig = self.signature(words)
        if sig is None:
            return None
        be = sig.astype(">u4")
        return [be[i * rows : (i + 1) * rows].tobytes() for i in range(n_bands)]


def components(n: int, edges: np.ndarray) -> np.ndarray:
    """Connected-component label (smallest member index) of each of
    ``n`` nodes under ``edges`` (int64 array of shape (m, 2)): a numpy
    union-find by repeated min-label hooking and pointer jumping."""
    label = np.arange(n, dtype=np.int64)
    if len(edges) == 0:
        return label
    a, b = edges[:, 0], edges[:, 1]
    while True:
        la, lb = label[a], label[b]
        lo = np.minimum(la, lb)
        before = label.copy()
        np.minimum.at(label, la, lo)
        np.minimum.at(label, lb, lo)
        while True:  # pointer jumping to the root
            nxt = label[label]
            if np.array_equal(nxt, label):
                break
            label = nxt
        if np.array_equal(label, before):
            return label


def band_edges(sig: pa.ChunkedArray) -> np.ndarray:
    """Edges between rows that share a band at the same band index:
    each row holding a repeated band is linked to the first row that
    holds it. Bands are compared as raw bytes."""
    sig = sig.combine_chunks()
    rows = np.flatnonzero(sig.is_valid().to_numpy(zero_copy_only=False))
    flat = sig.flatten()
    offs = np.frombuffer(flat.buffers()[1], np.int32)[flat.offset : flat.offset + len(flat) + 1]
    width = int(offs[1] - offs[0])
    n_bands = len(flat) // len(rows)
    if not (np.diff(offs) == width).all() or n_bands * len(rows) != len(flat):
        raise ValueError("signatures must hold equally many equal-width bands")
    data = np.frombuffer(flat.buffers()[2], np.uint8)[offs[0] : offs[-1]]
    bands = data.reshape(len(rows), n_bands, width)
    edges = []
    for i in range(n_bands):
        keys = np.ascontiguousarray(bands[:, i]).view(f"V{width}").ravel()
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        mate = rows[first[inv]]
        keep = mate != rows
        edges.append(np.stack([rows[keep], mate[keep]], axis=1))
    return np.concatenate(edges)


def exact_survivors(doc_id: np.ndarray, key: np.ndarray) -> set:
    """The minimum doc_id of each key."""
    order = np.lexsort((doc_id, key))
    k = key[order]
    first = np.ones(len(k), bool)
    first[1:] = k[1:] != k[:-1]
    return set(doc_id[order][first].tolist())


def fuzzy_survivors(doc_id: np.ndarray, id_int: np.ndarray, label: np.ndarray) -> set:
    """Each component keeps the row with the smallest id_int."""
    order = np.lexsort((id_int, label))
    lab = label[order]
    first = np.ones(len(lab), bool)
    first[1:] = lab[1:] != lab[:-1]
    return set(doc_id[order][first].tolist())


# the SQL of the cap_per_group and token_budget_sample docstrings
CAP_SQL = """
SELECT doc_id FROM (
  SELECT doc_id, row_number() OVER (
    PARTITION BY source
    ORDER BY substr(md5(CAST({seed} AS VARCHAR) || ':' || doc_id), 1, 16), doc_id
  ) AS rn FROM t
) WHERE rn <= {cap}
"""

BUDGET_SQL = """
SELECT doc_id FROM (
  SELECT doc_id, coalesce(sum(tokens) OVER (
    PARTITION BY source
    ORDER BY substr(md5(CAST({seed} AS VARCHAR) || ':' || doc_id), 1, 16), doc_id
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
  ), 0) AS before FROM t
) WHERE before < {budget}
"""


def duckdb_ids(table: pa.Table, sql: str) -> set:
    import duckdb

    con = duckdb.connect()
    try:
        con.register("t", table)
        return {r[0] for r in con.execute(sql).fetchall()}
    finally:
        con.close()


def duckdb_profile(table: pa.Table, columns: Sequence[str]) -> Dict[str, dict]:
    """count, nulls, min, max and exact distinct count per column."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("t", table)
        out = {}
        for c in columns:
            q = f'"{c}"'
            n, nn, mn, mx, nd = con.execute(
                f"SELECT count(*), count({q}), min({q}), max({q}), count(DISTINCT {q}) FROM t"
            ).fetchone()
            out[c] = {"n": n, "nulls": n - nn, "min": mn, "max": mx, "distinct": nd}
        return out
    finally:
        con.close()
