"""MinHash-LSH fuzzy deduplication.

Ray-native rewrite of the reference's LSH job
(/root/reference/app/src/run_lsh.py:179-372):

1. explode banded signatures into ``(band_hash: uint64, id_int)`` rows —
   band bytes are collapsed to an 8-byte splitmix64 key (vectorized
   over the Arrow buffers) so the shuffle key is a fixed-width integer,
   not a byte blob (collision odds ~1e-8 at 1e9 bands, far below the
   LSH false-positive rate itself);
2. find *duplicated* band hashes with a vectorized partial-count
   aggregate (per-batch pyarrow group_by, then a tiny Ray groupby-Sum —
   the combiner pattern; no per-group Python);
3. cluster the duplicated-band members: driver union-find below
   ``driver_limit`` members (the reference's design point —
   run_lsh.py:295-322 holds the whole edge graph on one node), else
   distributed min-label propagation (``components.py`` — all shuffles,
   no driver state);
4. cluster id = min(id_int) of the connected component
   (run_lsh.py:324-338);
5. duplicates (non-representatives) are subtracted from the corpus with
   a vectorized broadcast membership mask (``apply.py`` — sorted-array
   searchsorted, no per-row Python) when the drop set fits one
   object-store object, else a ``left_anti`` join with nested columns
   packed around it (Acero limitation).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .apply import (
    DEFAULT_MASK_BROADCAST_LIMIT,
    broadcast_sorted,
    collect_column,
    filter_members,
    membership_mask,
    nested_types,
    pack_nested,
    unpack_nested,
)

# compat aliases (state/incremental.py and older callers import these)
_pack_nested = pack_nested
_unpack_nested = unpack_nested


# splitmix64 finalizer constants (public domain, Steele et al.) — the
# band collapse only needs uniform 64-bit dispersion, not cryptographic
# strength; collision odds match the old blake2b-8 (both 64-bit) and
# sit far below the LSH false-positive rate itself
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(h: "np.ndarray") -> "np.ndarray":
    with np.errstate(over="ignore"):  # uint64 wrap IS the algorithm
        h = h ^ (h >> np.uint64(30))
        h = h * _MIX1
        h = h ^ (h >> np.uint64(27))
        h = h * _MIX2
        return h ^ (h >> np.uint64(31))


def _band_hash(band_idx: int, band_bytes: bytes) -> int:
    """Scalar twin of the vectorized collapse (tests / tools)."""
    w = len(band_bytes)
    padded = band_bytes + b"\x00" * (-w % 8)
    h = _mix64(np.uint64(band_idx) + _GOLDEN)
    for k in range(0, len(padded), 8):
        word = np.frombuffer(padded[k : k + 8], dtype=np.uint64)[0]
        h = _mix64(h ^ word)
    return int(h)


def explode_bands(sig_column: str):
    """Factory: map_batches fn exploding list<binary> signatures into
    (band_hash: uint64, id_int: uint64) rows.

    Fully vectorized: band byte-strings are collapsed to 8-byte keys
    with a chained splitmix64 over their 8-byte words directly from the
    Arrow buffers (~35x the per-element blake2b loop this replaces —
    at 10^9 docs x 9 bands the explode is a top-3 fuzzy-dedup cost).
    NOTE: changing this hash invalidates fuzzy band state committed by
    older engine versions (state/incremental.py)."""

    def _explode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column(sig_column)
        ids_col = batch.column("id_int")
        if col.null_count:
            valid = pc.is_valid(col)
            col = col.filter(valid)
            ids_col = ids_col.filter(valid)
        col = col.combine_chunks()
        ids = ids_col.combine_chunks().to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "band_hash": pa.array([], pa.uint64()),
                "id_int": pa.array([], pa.uint64()),
            }
        )
        if len(col) == 0:
            return empty
        lengths = pc.list_value_length(col).to_numpy(
            zero_copy_only=False
        )
        flat = pc.list_flatten(col)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n_bands = len(flat)
        if n_bands == 0:
            return empty
        if flat.null_count or int(lengths.sum()) != n_bands:
            # a null INSIDE a signature list would flow into the hash
            # kernels as None/b"" (bare TypeError in the scalar path,
            # a silently wrong hash in the vectorized one) — and on
            # pyarrow versions where list_flatten drops inner nulls,
            # the index math below would misalign every band after
            # the first null. MinHasher never emits inner nulls;
            # reject corrupt input loudly.
            raise ValueError(
                f"signature column {sig_column!r} contains null "
                "elements inside signature lists; signatures must be "
                "fully materialized byte-strings"
            )
        rep_ids = np.repeat(ids, lengths)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        band_idx = (
            np.arange(n_bands) - np.repeat(starts, lengths)
        ).astype(np.uint64)
        off_dtype = (
            np.int64
            if pa.types.is_large_binary(flat.type)
            or pa.types.is_large_string(flat.type)
            else np.int32
        )
        boffs = np.frombuffer(flat.buffers()[1], dtype=off_dtype)[
            flat.offset : flat.offset + n_bands + 1
        ]
        widths = np.diff(boffs)
        h = _mix64(band_idx + _GOLDEN)
        if widths.size and (widths == widths[0]).all():
            w = int(widths[0])
            data = np.frombuffer(flat.buffers()[2], dtype=np.uint8)[
                boffs[0] : boffs[-1]
            ].reshape(n_bands, w)
            for k in range(0, w, 8):
                chunk = data[:, k : k + 8]
                if chunk.shape[1] < 8:
                    pad = np.zeros((n_bands, 8), np.uint8)
                    pad[:, : chunk.shape[1]] = chunk
                    chunk = pad
                word = np.ascontiguousarray(chunk).view(np.uint64)[:, 0]
                h = _mix64(h ^ word)
        else:
            # ragged widths (never produced by MinHasher, but the
            # contract allows it): scalar fallback
            h = np.fromiter(
                (
                    _band_hash(int(bi), v.as_py())
                    for bi, v in zip(band_idx, flat)
                ),
                dtype=np.uint64,
                count=n_bands,
            )
        return pa.table(
            {
                "band_hash": pa.array(h, pa.uint64()),
                "id_int": pa.array(rep_ids, pa.uint64()),
            }
        )

    return _explode


def _dup_band_hashes(
    exploded: Dataset, distributed: "bool | None" = None
) -> Set[int]:
    """Band hashes appearing more than once (``key_stats`` counts)."""
    from .combine import key_stats

    agg = key_stats(
        exploded, "band_hash", "id_int", distributed=distributed, min_cnt=2
    )
    dups: Set[int] = set()
    for batch in agg.iter_batches(batch_size=65536, batch_format="pyarrow"):
        dups.update(batch.column("band_hash").to_pylist())
    return dups


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != x:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # attach larger id under smaller so min ids win representative
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb


# above this many duplicated-band member rows, streaming them through
# the driver union-find stops scaling — switch to distributed min-label
# propagation (all-shuffle, no driver state)
DEFAULT_DRIVER_LIMIT = 5_000_000


def cluster_labels(
    ds: Dataset,
    sig_column: str = "signature_sim0.8",
    id_column: str = "id_int",
    distributed: "bool | None" = None,
    driver_limit: int = DEFAULT_DRIVER_LIMIT,
    num_partitions: "int | None" = None,
) -> "Union[Dict[int, int], Dataset]":
    """id_int -> cluster_id (min id_int of the connected component) for
    every doc in a multi-doc cluster.

    Path is chosen by the MEASURED duplicated-band member count:
    driver union-find (dict result) below ``driver_limit``, else
    distributed min-label propagation (``(id_int, cluster_id)`` Dataset
    result — no driver state). ``distributed`` forces a path."""
    from .combine import (
        TREE_STATS_LIMIT,
        auto_partitions,
        key_stats,
        tune_shuffle_context,
    )
    from .components import _to_signed, _to_unsigned

    if num_partitions is None:
        num_partitions = auto_partitions()
    narrow = ds.select_columns([id_column, sig_column])
    if id_column != "id_int":
        # explode_bands contract: id column is named id_int
        narrow = narrow.rename_columns({id_column: "id_int"})
    exploded = narrow.map_batches(
        explode_bands(sig_column), batch_format="pyarrow"
    )
    # two consumers (count-agg, member-filter); the exploded table is 16
    # fixed bytes per (doc, band) — pin it instead of recomputing the
    # explode. At 100 TB this is ~1% of corpus size and spills if needed.
    exploded = exploded.materialize()

    tune_shuffle_context()

    # Ray's hash-shuffle groupby/join pickle uint64 values above
    # int64-max into python-object extension columns (which then cannot
    # join against uint64); run the wide ops on the order-preserving
    # signed bijection and map back at the boundaries.
    def sign_pairs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band_hash": _to_signed(t["band_hash"]),
                "id_int": _to_signed(t["id_int"]),
            }
        )

    exploded_signed = exploded.map_batches(
        sign_pairs, batch_format="pyarrow"
    )

    # counts of the duplicated bands only (object store). Stats path is
    # size-adaptive: the single root task (one vectorized pyarrow
    # group_by over every per-block partial) is ~30x faster than Ray's
    # shuffle aggregate at 10^6-row scale but must hold every partial
    # row in one task — above TREE_STATS_LIMIT exploded rows, switch to
    # the hash-shuffle groupby (the correct all-to-all cost).
    dup = key_stats(
        exploded_signed,
        "band_hash",
        "id_int",
        distributed=exploded.count() > TREE_STATS_LIMIT,
        min_cnt=2,
    ).materialize()
    n_dup_bands = dup.count()
    if n_dup_bands == 0:
        return {}
    members = int(dup.sum("cnt"))

    use_driver = distributed is False or (
        distributed is None and members <= driver_limit
    )
    if use_driver:
        dup_bands = np.sort(
            _to_unsigned(
                pa.chunked_array(
                    [
                        b.column("band_hash")
                        for b in dup.iter_batches(
                            batch_size=65536, batch_format="pyarrow"
                        )
                    ]
                ).combine_chunks()
            ).to_numpy(zero_copy_only=False)
        )
        return _clusters_from_members(exploded, dup_bands)

    # ---- distributed path: no driver state ----
    from .components import propagate_min_labels

    # partition counts track DATA size, not cluster size: every
    # hash-shuffle operator spins up ~num_partitions aggregator actors
    # per op, and the propagation loop runs several ops per iteration —
    # 30 partitions for a 50k-row dup graph costs 2-5x the wall time of
    # 8 (measured at sf0.1: 20.7 s @ 8 vs 49-123 s @ 30).
    ex_partitions = max(
        2, min(num_partitions, int(exploded.count() // 2_000_000) + 2)
    )
    prop_partitions = max(
        2, min(num_partitions, int(members // 500_000) + 2)
    )
    # repartition the small side: Ray 2.49's hash-shuffle join rejects
    # inputs whose empty partitions lost their schema (the min_cnt
    # filter above can leave such partitions in the materialized dup)
    dup_keys = dup.select_columns(["band_hash"]).repartition(
        ex_partitions
    )
    dup_pairs = exploded_signed.join(
        dup_keys,
        join_type="left_semi",
        num_partitions=ex_partitions,
        on=("band_hash",),
    )
    return propagate_min_labels(
        dup_pairs, prop_partitions, pre_signed=True
    ).materialize()


def lsh_clusters(
    ds: Dataset,
    sig_column: str = "signature_sim0.8",
) -> Dict[int, int]:
    """Driver-path cluster map (legacy entry point; see
    :func:`cluster_labels` for the size-adaptive variant)."""
    return cluster_labels(ds, sig_column, distributed=False)


def clusters_table(clusters: "Dict[int, int] | Dataset") -> pa.Table:
    """(id_int, cluster_id) Arrow table — the reference's cluster output
    artifact (run_lsh.py:340-372 writes (id, id_int, cluster_id,
    shard_id) parquet per shard; join back on id_int for the rest).
    Accepts either the driver-path dict or the distributed-path labels
    Dataset (collected — for large label sets write the Dataset with
    ``write_parquet`` instead)."""
    if isinstance(clusters, Dataset):
        batches = list(
            clusters.select_columns(["id_int", "cluster_id"]).iter_batches(
                batch_size=65536, batch_format="pyarrow"
            )
        )
        if not batches:
            # match the dict branch's {} contract (concat_tables([])
            # raises instead of producing the typed empty table)
            return pa.table(
                {
                    "id_int": pa.array([], pa.uint64()),
                    "cluster_id": pa.array([], pa.uint64()),
                }
            )
        t = pa.concat_tables(batches).combine_chunks()
        return t.sort_by("id_int")
    items = sorted(clusters.items())
    return pa.table(
        {
            "id_int": pa.array([i for i, _ in items], pa.uint64()),
            "cluster_id": pa.array([c for _, c in items], pa.uint64()),
        }
    )


def _drop_ids(
    ds: Dataset,
    dupes_ds: Dataset,
    id_column: str,
    num_partitions: int,
    mask_limit: int = DEFAULT_MASK_BROADCAST_LIMIT,
) -> Dataset:
    """Subtract the rows whose ``id_column`` appears in ``dupes_ds``
    (single narrow column, materialized): broadcast searchsorted mask
    when the drop set fits one object, else pack-nested ``left_anti``
    join (Acero fallback)."""
    n = dupes_ds.count()
    if n == 0:
        return ds
    if n <= mask_limit:
        return filter_members(
            ds, id_column, collect_column(dupes_ds, id_column), False
        )
    # repartition before the join: Ray 2.49's hash-shuffle join rejects
    # inputs whose empty partitions lost their schema
    dupes_ds = dupes_ds.repartition(num_partitions)
    nested = nested_types(ds.schema().base_schema, exclude=(id_column,))
    packed = ds.map_batches(pack_nested(nested), batch_format="pyarrow")
    # the module's uint64 constraint applies here too: hash-shuffle
    # joins pickle uint64 values above int64-max into python-object
    # columns that cannot join — run the join on the signed bijection
    # and map back after (ids >= 2^63 are ~half of all sha-derived
    # id_int values)
    id_type = ds.schema().base_schema.field(id_column).type
    sign_ids = pa.types.is_uint64(id_type)
    if sign_ids:
        from .components import _to_signed, _to_unsigned

        def _sign(t: pa.Table) -> pa.Table:
            i = t.schema.get_field_index(id_column)
            return t.set_column(
                i, id_column, _to_signed(t.column(id_column))
            )

        packed = packed.map_batches(_sign, batch_format="pyarrow")
        dupes_ds = dupes_ds.map_batches(_sign, batch_format="pyarrow")
    deduped = packed.join(
        dupes_ds,
        join_type="left_anti",
        num_partitions=num_partitions,
        on=(id_column,),
    )
    if sign_ids:

        def _unsign(t: pa.Table) -> pa.Table:
            i = t.schema.get_field_index(id_column)
            return t.set_column(
                i, id_column, _to_unsigned(t.column(id_column))
            )

        deduped = deduped.map_batches(_unsign, batch_format="pyarrow")
    return deduped.map_batches(unpack_nested(nested), batch_format="pyarrow")


def fuzzy_dedup(
    ds: Dataset,
    sig_column: str = "signature_sim0.8",
    id_column: str = "id_int",
    distributed: "bool | None" = None,
    driver_limit: int = DEFAULT_DRIVER_LIMIT,
    num_partitions: "int | None" = None,
    mask_limit: int = DEFAULT_MASK_BROADCAST_LIMIT,
) -> "Tuple[Dataset, Union[Dict[int, int], Dataset]]":
    """Drop every row whose cluster representative is another row.

    Returns ``(deduped dataset, clusters)`` — ``clusters`` is the
    driver-path dict or the distributed-path labels Dataset (see
    :func:`cluster_labels` for the size-adaptive path choice). Both
    paths produce identical surviving rows (tested on dup-heavy
    fixtures)."""
    from .combine import auto_partitions

    if num_partitions is None:
        num_partitions = auto_partitions()
    clusters = cluster_labels(
        ds, sig_column, id_column, distributed, driver_limit, num_partitions
    )
    if isinstance(clusters, dict):
        dupes = {i for i, c in clusters.items() if i != c}
        if not dupes:
            return ds, clusters
        return filter_members(ds, id_column, dupes, False), clusters

    labels = clusters

    def non_reps(t: pa.Table) -> pa.Table:
        mask = pc.not_equal(t["id_int"], t["cluster_id"])
        return pa.table({id_column: t.filter(mask)["id_int"]})

    dupes_ds = labels.map_batches(
        non_reps, batch_format="pyarrow"
    ).materialize()
    return (
        _drop_ids(ds, dupes_ds, id_column, num_partitions, mask_limit),
        labels,
    )


def _clusters_from_members(
    exploded: Dataset, dup_bands: "np.ndarray | Set[int]"
) -> Dict[int, int]:
    """Driver union-find over members of duplicated bands (the
    reference's single-node edge-graph design point). The band filter
    is a vectorized broadcast membership mask; only the (rare)
    duplicated-band members stream to the driver."""
    uf = _UnionFind()
    ref = broadcast_sorted(dup_bands)

    def members(t: pa.Table) -> pa.Table:
        sv = ray.get(ref)
        return t.filter(pa.array(membership_mask(t.column("band_hash"), sv)))

    groups: Dict[int, int] = {}
    for batch in exploded.map_batches(
        members, batch_format="pyarrow"
    ).iter_batches(batch_size=65536, batch_format="pyarrow"):
        for h, i in zip(
            batch.column("band_hash").to_pylist(),
            batch.column("id_int").to_pylist(),
        ):
            first = groups.get(h)
            if first is None:
                groups[h] = i
            else:
                uf.union(first, i)
    clusters: Dict[int, int] = {}
    for node in list(uf.parent):
        clusters[node] = uf.find(node)
    for node, root in list(clusters.items()):
        clusters.setdefault(root, root)
    return clusters


def write_cluster_outputs(
    ds: Dataset,
    out_dir: str,
    thresholds=(0.7, 0.8, 0.9, 1.0),
    id_column: str = "doc_id",
    shard_column: "str | None" = None,
    distributed: "bool | None" = None,
    driver_limit: int = DEFAULT_DRIVER_LIMIT,
    num_partitions: "int | None" = None,
) -> Dict[str, str]:
    """Per-threshold cluster parquet sinks.

    The reference writes one ``(id, id_int, cluster_id, shard_id)``
    parquet per shard, per similarity threshold
    (/root/reference/app/src/run_lsh.py:340-372). For every threshold
    whose ``signature_sim{t}`` column exists in ``ds``, clusters and
    writes ``{out_dir}/sim{t}/*.parquet`` with columns
    (id, id_int, cluster_id, shard_id) — one row per document that
    belongs to a multi-doc cluster. ``shard_id`` comes from
    ``shard_column`` when given, else 0 (single-shard inputs).

    Size-adaptive like :func:`fuzzy_dedup` (same ``driver_limit``):
    below it, the cluster map is broadcast as two aligned sorted arrays
    and membership rows are emitted with a vectorized searchsorted
    probe; above it, the labels Dataset from min-label propagation is
    joined against a narrow corpus projection — the cluster map never
    touches the driver."""
    import os

    from .combine import auto_partitions
    from .components import _to_signed, _to_unsigned

    if num_partitions is None:
        num_partitions = auto_partitions()

    out: Dict[str, str] = {}
    for t in thresholds:
        sig_col = f"signature_sim{t}"
        if sig_col not in ds.schema().names:
            continue
        tdir = os.path.join(out_dir, f"sim{t}")
        clusters = cluster_labels(
            ds,
            sig_col,
            distributed=distributed,
            driver_limit=driver_limit,
            num_partitions=num_partitions,
        )
        if isinstance(clusters, dict):
            if not clusters:
                os.makedirs(tdir, exist_ok=True)
                out[str(t)] = tdir
                continue
            ids_np = np.fromiter(clusters, np.uint64, len(clusters))
            order = np.argsort(ids_np)
            ids_np = ids_np[order]
            cl_np = np.fromiter(
                clusters.values(), np.uint64, len(clusters)
            )[order]
            ref = ray.put((ids_np, cl_np))

            def member_rows(batch: pa.Table, _ref=ref) -> pa.Table:
                sorted_ids, cl = ray.get(_ref)
                hit = membership_mask(batch.column("id_int"), sorted_ids)
                kept = batch.filter(pa.array(hit))
                probe = kept.column("id_int").to_numpy(
                    zero_copy_only=False
                )
                pos = np.searchsorted(sorted_ids, probe)
                shard = (
                    kept.column(shard_column)
                    if shard_column
                    else pa.array([0] * kept.num_rows, pa.int64())
                )
                return pa.table(
                    {
                        "id": pc.cast(kept.column(id_column), pa.string()),
                        "id_int": kept.column("id_int"),
                        "cluster_id": pa.array(cl[pos], pa.uint64()),
                        "shard_id": shard,
                    }
                )

            # narrow projection first: member_rows reads only the id
            # and shard columns — streaming text + every signature
            # list column through the pool per threshold is pure I/O
            # waste (the distributed branch already projects narrow)
            need = [id_column, "id_int"]
            if shard_column and shard_column not in need:
                need.append(shard_column)
            ds.select_columns(
                list(dict.fromkeys(need))
            ).map_batches(
                member_rows, batch_format="pyarrow"
            ).write_parquet(tdir)
            out[str(t)] = tdir
            continue

        # distributed labels: join against a narrow corpus projection
        # (signed-bijection keys — Ray pickles uint64 above int64-max)
        def narrow_proj(batch: pa.Table) -> pa.Table:
            shard = (
                batch.column(shard_column)
                if shard_column
                else pa.array([0] * batch.num_rows, pa.int64())
            )
            return pa.table(
                {
                    "id": pc.cast(batch.column(id_column), pa.string()),
                    "id_int": _to_signed(batch.column("id_int")),
                    "shard_id": shard,
                }
            )

        def sign_labels(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "id_int": _to_signed(batch["id_int"]),
                    "cluster_id": _to_signed(batch["cluster_id"]),
                }
            )

        joined = ds.map_batches(narrow_proj, batch_format="pyarrow").join(
            clusters.map_batches(sign_labels, batch_format="pyarrow")
            .repartition(num_partitions),
            join_type="inner",
            num_partitions=num_partitions,
            on=("id_int",),
        )

        def unsign(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "id": batch["id"],
                    "id_int": _to_unsigned(batch["id_int"]),
                    "cluster_id": _to_unsigned(batch["cluster_id"]),
                    "shard_id": batch["shard_id"],
                }
            )

        joined.map_batches(unsign, batch_format="pyarrow").write_parquet(
            tdir
        )
        out[str(t)] = tdir
    return out
