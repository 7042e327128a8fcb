"""MinHash-LSH fuzzy deduplication.

Ray-native rewrite of the reference's LSH job
(/root/reference/app/src/run_lsh.py:179-372):

1. explode banded signatures into ``(band_hash: uint64, id_int)`` rows —
   band bytes are collapsed to an 8-byte splitmix64 key (vectorized
   over the Arrow buffers) so the shuffle key is a fixed-width integer,
   not a byte blob (collision odds ~1e-8 at 1e9 bands, far below the
   LSH false-positive rate itself);
2. cluster the members of duplicated bands. At most
   ``TREE_STATS_LIMIT`` exploded rows (the bound of the per-key stats
   root in ``combine.py``), every block of the materialized explode
   goes to ONE numpy root task (``_label_root``): sort by band, link
   each member to its band's first member, then min-label hooking with
   pointer jumping until no edge joins two labels. The reference holds
   the whole edge graph on one node too (run_lsh.py:295-322). The
   root's labels table and drop set stay in the object store. Above
   the limit: a ``key_stats`` dup-band count, then distributed
   min-label propagation (``components.py`` — all shuffles, no driver
   state);
3. only components of two or more distinct ids are labelled;
4. cluster id = min(id_int) of the connected component
   (run_lsh.py:324-338);
5. duplicates (non-representatives) are subtracted from the corpus with
   a vectorized broadcast membership mask (``apply.py`` — sorted-array
   searchsorted, no per-row Python) when the drop set fits one
   object-store object, else a ``left_anti`` join with nested columns
   packed around it (Acero limitation).
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .apply import (
    DEFAULT_MASK_BROADCAST_LIMIT,
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


def _label_components(
    band: np.ndarray, ids: np.ndarray
) -> "Tuple[np.ndarray, np.ndarray]":
    """(member ids, cluster ids) of every connected component that the
    shared bands link, members sorted, cluster id = the component's
    min id (run_lsh.py:324-338).

    Each row of a band is linked to the band's first row; a band held
    by one row, or by one id repeating it, links nothing (no self
    edges), so only components of two or more distinct ids come out.
    Components are found by min-label hooking with full pointer
    jumping, repeated until no edge joins two labels: labels are
    parent pointers that only decrease, so every round that finds a
    joining edge hooks at least one root under a smaller one."""
    order = np.argsort(band, kind="stable")
    band, ids = band[order], ids[order]
    new_band = np.ones(len(band), bool)
    new_band[1:] = band[1:] != band[:-1]
    first = ids[new_band][np.cumsum(new_band) - 1]
    linked = ids != first
    nodes, ends = np.unique(
        np.concatenate([ids[linked], first[linked]]), return_inverse=True
    )
    u, v = np.split(ends, 2)
    label = np.arange(len(nodes))
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return nodes, nodes[label]
        lo = np.minimum(lu, lv)
        np.minimum.at(label, lu, lo)
        np.minimum.at(label, lv, lo)
        while True:  # point every node at its root
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


@ray.remote(num_returns=2)
def _label_root(*tables):
    """Root of the small fuzzy path: every block of the materialized
    explode (zero-copy plasma views, passed as resolved args) in ONE
    numpy labelling. Returns the ``(id_int, cluster_id)`` labels table
    sorted by ``id_int`` and the sorted uint64 array of
    non-representative ids (the drop set); both stay in the object
    store. Zero-row blocks (possibly schema-less) are skipped."""
    rows = [t for t in tables if t.num_rows]

    def column(name: str) -> np.ndarray:
        if not rows:
            return np.empty(0, np.uint64)
        return np.concatenate([t.column(name).to_numpy() for t in rows])

    ids, cluster = _label_components(column("band_hash"), column("id_int"))
    labels = pa.table(
        {
            "id_int": pa.array(ids, pa.uint64()),
            "cluster_id": pa.array(cluster, pa.uint64()),
        }
    )
    return labels, ids[ids != cluster]


def _cluster(
    ds: Dataset,
    sig_column: str,
    id_column: str,
    distributed: "bool | None",
    num_partitions: int,
) -> "Union[Tuple[ray.ObjectRef, ray.ObjectRef], Dataset]":
    """The clustering both public entry points share: the two output
    refs of :func:`_label_root`, or the distributed labels Dataset.

    ``distributed=None`` picks the root when the exploded band rows
    (read from the materialized explode's metadata, no extra pass)
    number at most ``TREE_STATS_LIMIT``; ``False`` / ``True`` force a
    path."""
    from .combine import (
        TREE_STATS_LIMIT,
        block_refs,
        key_stats,
        tune_shuffle_context,
    )
    from .components import _to_signed

    narrow = ds.select_columns([id_column, sig_column])
    if id_column != "id_int":
        # explode_bands contract: id column is named id_int
        narrow = narrow.rename_columns({id_column: "id_int"})
    # pinned: the root takes its blocks, the distributed path reads it
    # twice (count-agg, member join). The exploded table is 16 fixed
    # bytes per (doc, band) — ~1% of corpus size at 100 TB, and it
    # spills if needed.
    exploded = narrow.map_batches(
        explode_bands(sig_column), batch_format="pyarrow"
    ).materialize()
    n_band_rows = exploded.count()
    if distributed is None:
        distributed = n_band_rows > TREE_STATS_LIMIT
    if not distributed:
        return _label_root.remote(*block_refs(exploded))

    # ---- distributed path: no driver state ----
    from .components import propagate_min_labels

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
    # counts of the duplicated bands only (object store); the stats
    # path picks the root or the shuffle by the same TREE_STATS_LIMIT
    dup = key_stats(
        exploded_signed,
        "band_hash",
        "id_int",
        distributed=n_band_rows > TREE_STATS_LIMIT,
        min_cnt=2,
    ).materialize()
    if dup.count() == 0:
        return _label_root.remote()
    members = int(dup.sum("cnt"))

    # partition counts track DATA size, not cluster size: every
    # hash-shuffle operator spins up ~num_partitions aggregator actors
    # per op, and the propagation loop runs several ops per iteration —
    # 30 partitions for a 50k-row dup graph costs 2-5x the wall time of
    # 8 (measured at sf0.1: 20.7 s @ 8 vs 49-123 s @ 30).
    ex_partitions = max(
        2, min(num_partitions, int(n_band_rows // 2_000_000) + 2)
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


def _clusters_dict(labels_ref: "ray.ObjectRef") -> Dict[int, int]:
    t = ray.get(labels_ref)
    return dict(
        zip(
            t.column("id_int").to_numpy().tolist(),
            t.column("cluster_id").to_numpy().tolist(),
        )
    )


def cluster_labels(
    ds: Dataset,
    sig_column: str = "signature_sim0.8",
    id_column: str = "id_int",
    distributed: "bool | None" = None,
    num_partitions: "int | None" = None,
) -> "Union[Dict[int, int], Dataset]":
    """id_int -> cluster_id (min id_int of the connected component) for
    every doc in a multi-doc cluster.

    Path is chosen by the MEASURED exploded band row count: one numpy
    root task (dict result, built from the root's members-only labels
    table) at most ``TREE_STATS_LIMIT`` rows, else distributed
    min-label propagation (``(id_int, cluster_id)`` Dataset result —
    no driver state). ``distributed`` forces a path."""
    from .combine import auto_partitions

    if num_partitions is None:
        num_partitions = auto_partitions()
    found = _cluster(ds, sig_column, id_column, distributed, num_partitions)
    if isinstance(found, Dataset):
        return found
    return _clusters_dict(found[0])


def lsh_clusters(
    ds: Dataset,
    sig_column: str = "signature_sim0.8",
) -> Dict[int, int]:
    """Root-path cluster map (legacy entry point; see
    :func:`cluster_labels` for the size-adaptive variant)."""
    return cluster_labels(ds, sig_column, distributed=False)


def clusters_table(clusters: "Dict[int, int] | Dataset") -> pa.Table:
    """(id_int, cluster_id) Arrow table — the reference's cluster output
    artifact (run_lsh.py:340-372 writes (id, id_int, cluster_id,
    shard_id) parquet per shard; join back on id_int for the rest).
    Accepts either the root-path dict or the distributed-path labels
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
    num_partitions: "int | None" = None,
    mask_limit: int = DEFAULT_MASK_BROADCAST_LIMIT,
) -> "Tuple[Dataset, Union[Dict[int, int], Dataset]]":
    """Drop every row whose cluster representative is another row.

    Returns ``(deduped dataset, clusters)`` — ``clusters`` is the
    root-path dict or the distributed-path labels Dataset (see
    :func:`cluster_labels` for the size-adaptive path choice). On the
    root path the drop set goes from the root task to the filter as an
    object ref, without passing through the driver. Both paths produce
    identical surviving rows (tested on dup-heavy fixtures)."""
    from .combine import auto_partitions

    if num_partitions is None:
        num_partitions = auto_partitions()
    found = _cluster(ds, sig_column, id_column, distributed, num_partitions)
    if not isinstance(found, Dataset):
        labels_ref, drop_ref = found
        clusters = _clusters_dict(labels_ref)
        if not clusters:
            return ds, clusters
        return filter_members(ds, id_column, drop_ref, False), clusters

    labels = found

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


def write_cluster_outputs(
    ds: Dataset,
    out_dir: str,
    thresholds=(0.7, 0.8, 0.9, 1.0),
    id_column: str = "doc_id",
    shard_column: "str | None" = None,
    distributed: "bool | None" = None,
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

    Size-adaptive like :func:`fuzzy_dedup`: on the root path the root's
    labels table (sorted by ``id_int``) is handed to the workers by
    ref and membership rows are emitted with a vectorized searchsorted
    probe; on the distributed path the labels Dataset from min-label
    propagation is joined against a narrow corpus projection. Either
    way the cluster map never touches the driver."""
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
        found = _cluster(
            ds, sig_col, "id_int", distributed, num_partitions
        )
        if not isinstance(found, Dataset):
            # the root's labels table, sorted by id_int, goes to the
            # workers as its ref; an empty one writes no rows
            os.makedirs(tdir, exist_ok=True)

            def member_rows(batch: pa.Table, _ref=found[0]) -> pa.Table:
                labels = ray.get(_ref)
                sorted_ids = labels.column("id_int").to_numpy()
                cl = labels.column("cluster_id").to_numpy()
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
            found.map_batches(sign_labels, batch_format="pyarrow")
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
