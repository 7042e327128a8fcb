"""SemDeDup-style semantic deduplication over an embedding column.

Abbas et al. 2023 ("SemDeDup: Data-efficient learning at web-scale
through semantic deduplication"): k-means-cluster the embeddings, form
near-duplicate groups WITHIN each cluster (connected components of the
cosine >= threshold graph), and keep one representative per group —
the paper keeps the member with the LOWEST cosine similarity to the
cluster centroid (it is the least redundant w.r.t. the cluster's
"center of mass"); ``keep="min_id"`` is the order-free alternative.

Ray-Data shape (all published steps map onto existing scale paths):

1. centroids: :func:`similarity.ivf.train_centroids` — deterministic
   hash-ranked sample, mini k-means on the driver (bounded, seeded);
2. assignment: :func:`similarity.ivf.assign_ivf_buckets` — one
   broadcast centroid matrix, vectorized argmax per batch;
3. per-cluster dedup: ``groupby(bucket).map_groups`` — the quadratic
   pairwise work is bounded by the cluster size (the paper's own
   device for making web-scale pairwise feasible: cost drops from
   O(n²) to O(n²/k)). Pairwise blocks are chunked on BOTH axes so
   temporaries stay bounded under skewed clusters;
4. delivery: ``dedupe/apply.py`` ``filter_members`` — a broadcast
   sorted dropped-id set + vectorized ``searchsorted`` mask, or a
   ``left_anti`` join when the set is too large to broadcast.

Partitioning assumption (documented as required for custom operators):
one cluster must fit one ``map_groups`` worker. At 100 TB choose
``n_centroids`` ∝ corpus_size / target_cluster_size; the centroid
count is the shuffle fan-out and the pairwise bound at once.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from ..dedupe import apply
from .ivf import assign_ivf_buckets, train_centroids
from .knn import _batch_matrix, _cluster_edges  # noqa: F401 — the ONE
# chunked pairwise kernel lives in knn.py (shared with the LSH
# near-dup path); temporaries stay bounded at _PAIR_CHUNK^2 float64
# regardless of cluster size


def _union_find_components(
    n: int, ei: np.ndarray, ej: np.ndarray
) -> np.ndarray:
    """Root label per local index (path-halving union-find)."""
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(ei.tolist(), ej.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    return np.array([find(i) for i in range(n)], dtype=np.int64)


def semdedup_dropped_ids(
    indexed: Dataset,
    centroids: np.ndarray,
    threshold: float = 0.95,
    keep: str = "centroid_far",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> Dataset:
    """Ids dropped by SemDeDup: per cluster, connected components of the
    cosine >= threshold graph lose every member except the kept
    representative. ``indexed`` must carry ``ivf_bucket``
    (assign_ivf_buckets). Returns a Dataset with one ``{id_col}``
    column."""
    if keep not in ("centroid_far", "min_id"):
        raise ValueError(f"unknown keep policy {keep!r}")
    c_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def _dropped(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        n = len(ids)
        empty = pa.table({id_col: pa.array([], pa.int64())})
        if n <= 1:
            return empty
        mat = _batch_matrix(group, vec_col)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = mat / norms
        ei, ej = _cluster_edges(unit, threshold)
        if len(ei) == 0:
            return empty
        roots = _union_find_components(n, ei, ej)
        # members of non-singleton components only
        root_vals, counts = np.unique(roots, return_counts=True)
        dup_roots = root_vals[counts >= 2]
        member = np.isin(roots, dup_roots)
        if keep == "min_id":
            # kept = min id per component
            order = np.lexsort((ids, roots))
        else:
            # paper policy: keep the member FURTHEST from the cluster
            # centroid (lowest cosine to it); ties -> smaller id
            cents = ray.get(c_ref)
            bucket = int(group.column("ivf_bucket")[0].as_py())
            c_sim = unit @ cents[bucket]
            order = np.lexsort((ids, c_sim, roots))
        # first row of each root run in `order` is the keeper
        sorted_roots = roots[order]
        first = np.ones(n, dtype=bool)
        first[1:] = sorted_roots[1:] != sorted_roots[:-1]
        keep_mask = np.zeros(n, dtype=bool)
        keep_mask[order[first]] = True
        dropped = ids[member & ~keep_mask]
        return pa.table(
            {id_col: pa.array(np.sort(dropped).astype(np.int64))}
        )

    return (
        indexed.select_columns([id_col, vec_col, "ivf_bucket"])
        .groupby("ivf_bucket")
        .map_groups(_dropped, batch_format="pyarrow")
    )


def semdedup(
    ds: Dataset,
    dim: int,
    n_centroids: int = 64,
    threshold: float = 0.95,
    keep: str = "centroid_far",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    centroids: Optional[np.ndarray] = None,
) -> Tuple[Dataset, np.ndarray]:
    """Full SemDeDup pass: returns (deduplicated dataset, dropped ids).

    The narrow dropped-id Dataset goes to ``dedupe.apply.filter_members``,
    which broadcasts a sorted mask up to ``DEFAULT_MASK_BROADCAST_LIMIT``
    ids (8 B each) and above it LEFT-ANTI-joins the corpus (nested
    payload columns packed for Acero). The dropped ids are collected
    for the second return value only when they fit that limit; beyond
    it the value is an empty array (a dup population that large should
    be consumed from the written output, not a driver list)."""
    if centroids is None:
        centroids = train_centroids(
            ds, dim, n_centroids=n_centroids, vec_col=vec_col,
            id_col=id_col,
        )
    indexed = assign_ivf_buckets(ds, centroids, vec_col=vec_col)
    dropped_ds = semdedup_dropped_ids(
        indexed, centroids, threshold=threshold, keep=keep,
        vec_col=vec_col, id_col=id_col,
    ).materialize()  # narrow id-only table; executed exactly once
    kept = apply.filter_members(ds, id_col, dropped_ds, keep_members=False)
    if dropped_ds.count() > apply.DEFAULT_MASK_BROADCAST_LIMIT:
        return kept, np.array([], np.int64)
    dropped = np.sort(
        np.concatenate(
            [
                b.column(id_col).to_numpy(zero_copy_only=False)
                for b in dropped_ds.iter_batches(
                    batch_size=65536, batch_format="pyarrow"
                )
            ]
            or [np.array([], np.int64)]
        ).astype(np.int64)
    )
    return kept, dropped
