"""Distributed connected components over LSH band hypergraphs.

The default fuzzy-dedup path labels the components in one numpy root
task over every exploded band row (``lsh._label_root``), matching the
reference's single-node design point (run_lsh.py:295-322 holds the
whole graph on one machine). When the band table itself is too large
for one task (above ``TREE_STATS_LIMIT`` rows) — e.g. crawling
snapshots with massive boilerplate overlap — this module provides the
scale path: iterative **min-label propagation** entirely in Ray Data
operators.

Model: the exploded table (band_hash, id_int) is a hypergraph — every
band is a hyperedge connecting its member docs. Repeat until fixpoint:

    label(band) = min(label(id))  for ids in band      # groupby(band)
    label(id)   = min(label(band)) for bands of id,    # groupby(id)
                  min'd with the current label

Labels only decrease and are bounded by the component minimum, so the
global label sum is a monotone convergence witness: iterate until it
stops changing (<= hypergraph diameter iterations, typically 2-4 for
near-dup clusters). Each iteration is two hash joins + two grouped
mins — all shuffles, no driver state beyond the convergence scalar.
A run that reaches ``max_iters`` without a fixpoint raises: returning
its labels would split every chain longer than the rounds it ran.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset
from ray.data.aggregate import Min

_TOP_BIT = 1 << 63


def _to_signed(col: "pa.ChunkedArray | pa.Array") -> "pa.Array":
    """Order-preserving uint64 -> int64 bijection (flip the top bit and
    reinterpret): Ray groupby/join coerce uint64 keys to int64, which
    would corrupt min-label ordering for ids >= 2^63."""
    flipped = pc.bit_wise_xor(col, pa.scalar(_TOP_BIT, pa.uint64()))
    return pc.cast(flipped, pa.int64(), safe=False)


def _to_unsigned(col) -> "pa.Array":
    back = pc.cast(col, pa.uint64(), safe=False)
    return pc.bit_wise_xor(back, pa.scalar(_TOP_BIT, pa.uint64()))


def propagate_min_labels(
    pairs: Dataset,
    num_partitions: int = 32,
    max_iters: int = 20,
    pre_signed: bool = False,
) -> Dataset:
    """pairs(band_hash: uint64, id_int: uint64) ->
    labels(id_int, cluster_id) — cluster_id = min id_int reachable
    through shared bands. Includes every id present in ``pairs``.
    ``pre_signed=True`` skips the input bijection when the caller
    already mapped both columns with ``_to_signed`` (the output is
    always unsigned uint64). Raises ``RuntimeError`` when the labels
    have not converged after ``max_iters`` rounds."""

    def to_signed_pairs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band_hash": _to_signed(t["band_hash"]),
                "id_int": _to_signed(t["id_int"]),
            }
        )

    if not pre_signed:
        pairs = pairs.map_batches(to_signed_pairs, batch_format="pyarrow")
    pairs = pairs.materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table(
            {"id_int": t["id_int"], "lbl": t["id_int"]}
        )

    # grouped-min strategy: Ray's shuffle aggregate costs ~30x the
    # vectorized tree combine at 10^6-row scale (measured — see
    # combine.py); min is associative, so below TREE_STATS_LIMIT pairs
    # the tree (per-block pyarrow group_by mins, single-task root) is
    # used; above it, the hash-shuffle groupby is the correct cost.
    from .combine import TREE_STATS_LIMIT

    use_tree = pairs.count() <= TREE_STATS_LIMIT

    def grouped_min(ds: Dataset, key: str, val: str, out: str) -> Dataset:
        if not use_tree:
            return (
                ds.groupby(key)
                .aggregate(Min(val, alias_name=out))
                .repartition(num_partitions)
            )

        def partial(t: pa.Table) -> pa.Table:
            g = t.select([key, val]).group_by(key).aggregate([(val, "min")])
            return g.rename_columns([key, out])

        def combine(t: pa.Table) -> pa.Table:
            g = t.group_by(key).aggregate([(out, "min")])
            return g.rename_columns([key, out])

        # this stays a LAZY tree, unlike combine.key_stats' eager
        # single root: it feeds the label-propagation loop, where an
        # eager root per grouped min doubled fuzzy_dedup(distributed=
        # True) on 5k rows (15.0-16.6 s -> 28.4-28.9 s, 2 Ray CPUs).
        # Fewer rounds, not cheaper rounds, is that path's fix.
        return (
            ds.map_batches(partial, batch_format="pyarrow")
            .repartition(8)
            .map_batches(combine, batch_format="pyarrow")
            .repartition(1)
            .map_batches(combine, batch_format="pyarrow")
            .repartition(num_partitions)
        )

    # NOTE: every grouped output that feeds a join is repartitioned
    # first — Ray 2.49's hash-shuffle join rejects inputs whose empty
    # partitions lost their schema.
    labels = grouped_min(
        pairs.map_batches(init_labels, batch_format="pyarrow"),
        "id_int",
        "lbl",
        "lbl",
    ).materialize()

    _P = (1 << 61) - 1

    def label_sum(lbls: Dataset) -> int:
        """Exact-modulo label checksum (labels are monotone decreasing,
        so an unchanged checksum means fixpoint; int64 ds.sum could
        overflow with 2^63-scale labels). Vectorized: the signed labels
        are viewed as uint64 two's-complement and summed as 30-bit
        halves, so the numpy sums are exact up to 2^30 rows per block —
        the exact per-block sum is then reduced mod P driver-side
        (still change-detecting: any multiset change moves the total)."""
        import numpy as np

        def partial(t: pa.Table) -> pa.Table:
            u = t.column("lbl").to_numpy(zero_copy_only=False).astype(
                np.uint64
            )
            lo = int((u & np.uint64((1 << 30) - 1)).sum(dtype=np.uint64))
            hi = int((u >> np.uint64(30)).sum(dtype=np.uint64))
            return pa.table(
                {"s": pa.array([(lo + (hi << 30)) % _P], pa.int64())}
            )

        total = 0
        for b in lbls.map_batches(
            partial, batch_format="pyarrow"
        ).iter_batches(batch_size=4096, batch_format="pyarrow"):
            total = (total + sum(b.column("s").to_pylist())) % _P
        return total

    prev_sum = label_sum(labels)
    for _ in range(max_iters):
        # band label = min member label
        with_lbl = pairs.join(
            labels,
            join_type="inner",
            num_partitions=num_partitions,
            on=("id_int",),
        )
        band_min = grouped_min(with_lbl, "band_hash", "lbl", "band_lbl")
        # candidate id label = min over its bands
        cand = grouped_min(
            pairs.join(
                band_min,
                join_type="inner",
                num_partitions=num_partitions,
                on=("band_hash",),
            ),
            "id_int",
            "band_lbl",
            "lbl",
        )
        # merge with current labels (labels only decrease)
        labels = grouped_min(
            labels.union(cand), "id_int", "lbl", "lbl"
        ).materialize()
        cur = label_sum(labels)
        if cur == prev_sum:
            break
        prev_sum = cur
    else:
        raise RuntimeError(
            f"propagate_min_labels: labels still changing after "
            f"max_iters={max_iters} rounds; a chain longer than the "
            "rounds run would split into several clusters. Raise "
            "max_iters."
        )

    def back_to_unsigned(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_int": _to_unsigned(t["id_int"]),
                "cluster_id": _to_unsigned(t["lbl"]),
            }
        )

    return labels.map_batches(back_to_unsigned, batch_format="pyarrow")
