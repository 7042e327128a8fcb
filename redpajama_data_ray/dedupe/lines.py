"""CCNet-style frequent-line deduplication.

The reference corpus (ccnet lineage — the ``dedupe`` notes at
/root/reference/app/src/core/worker.py:260-282 track per-line hashes
and the original ccnet pipeline drops lines duplicated across the
corpus) removes boilerplate by hashing every line and deleting lines
whose hash occurs at least ``min_count`` times corpus-wide. This module
re-expresses that as two streaming Ray Data passes:

1. **Count** — ``map_batches`` emits one ``(line_key, cnt)`` row per
   distinct *stripped* line per block (``np.unique`` in-batch combiner:
   the partials are fixed-width and tiny relative to text), then
   :func:`~.combine.combine_counts` combines in one root task (or
   hash-shuffles past ``TREE_STATS_LIMIT``) into global counts. Lines
   whose stripped form is empty never count (they are always kept —
   structure, not content).
2. **Deliver** — lines with ``cnt >= min_count`` form the *frequent*
   set. Below ``broadcast_limit`` it is sorted once driver-side,
   ``ray.put`` once, and every batch drops its frequent lines via a
   vectorized ``np.searchsorted`` probe (see ``dedupe/apply.py``). Above
   the limit, only the ``(id, line_idx)`` pairs of *dropped* lines are
   shuffled: exploded narrow rows semi-join the frequent keys, the
   dropped positions per document are packed to one binary blob by a
   ``groupby(id).map_groups``, and a ``left_outer`` join delivers them
   back to the full corpus — the document text itself never enters a
   shuffle.

Line keys are signed-int64 sha1 hashes (first 8 little-endian digest
bytes, top bit flipped) — Ray 2.49's hash-shuffle pickles uint64
columns above int64-max into unjoinable object columns, so every wide
op in this repo runs on the flipped-top-bit bijection
(``components._to_signed``); flipping preserves sort order so the same
values binary-search correctly on the broadcast path.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .apply import (
    DEFAULT_MASK_BROADCAST_LIMIT,
    nested_types,
    pack_nested,
    unpack_nested,
)
from .combine import auto_partitions, combine_counts, tune_shuffle_context

_TOP_BIT = np.uint64(1 << 63)

_KEPT_COL = "n_lines_kept"
_REMOVED_COL = "n_lines_removed"
_DROPPED_PAYLOAD = "__dropped_idx"


def hash_lines_signed(uniq: np.ndarray) -> np.ndarray:
    """sha1 of each unique string -> first 8 LE bytes as uint64, top
    bit flipped, viewed int64 (shuffle-safe, order-preserving)."""
    out = np.fromiter(
        (
            int.from_bytes(
                hashlib.sha1(s.encode("utf-8")).digest()[:8], "little"
            )
            for s in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return (out ^ _TOP_BIT).view(np.int64)


def _split_batch(t: pa.Table, text_col: str, sep: str = "\n"):
    """Split a batch's text column on newline.

    Returns ``(bounds, raw, keys, empty)``: per-doc line boundaries
    (len ndocs+1), the raw line strings (object ndarray), each line's
    signed-int64 key (hash of the *stripped* line), and the
    stripped-empty mask. Hashing runs once per distinct stripped line
    in the batch (``np.unique``), not once per line."""
    col = pc.fill_null(t.column(text_col), "")
    lists = pc.split_pattern(col, sep)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    flat = pc.list_flatten(lists)
    raw = flat.to_numpy(zero_copy_only=False)
    stripped = pc.utf8_trim_whitespace(flat).to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(stripped, return_inverse=True)
    keys = hash_lines_signed(uniq)[inv]
    empty = (uniq == "")[inv] if len(uniq) else np.zeros(0, bool)
    return bounds, raw, keys, empty


def line_partials(
    ds: Dataset, text_col: str = "text", sep: str = "\n"
) -> Dataset:
    """Per-block ``(line_key, cnt)`` partial counts over non-empty
    stripped lines (``np.unique`` in-batch combiner)."""

    def partial(t: pa.Table) -> pa.Table:
        _, _, keys, empty = _split_batch(t, text_col, sep)
        keys = keys[~empty]
        uk, cnt = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "line_key": pa.array(uk, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(partial, batch_format="pyarrow")


def line_counts(
    ds: Dataset,
    text_col: str = "text",
    distributed: "bool | None" = None,
    sep: str = "\n",
) -> Dataset:
    """Global ``(line_key, cnt)`` over the corpus' non-empty stripped
    lines — exposed for reuse; :func:`line_dedup` itself skips this
    full combine (see :func:`~.combine.dup_keys_from_partials`)."""
    return combine_counts(
        line_partials(ds, text_col, sep=sep),
        key="line_key",
        distributed=distributed,
    )


def _rebuild(
    t: pa.Table, text_col: str, bounds, raw, drop, sep: str = "\n"
) -> pa.Table:
    """Replace ``text_col`` with the kept lines rejoined on newline and
    append kept/removed counters. Docs with nothing dropped keep their
    original string object (no rejoin cost on the common path)."""
    ndocs = t.num_rows
    if ndocs == 0:
        t = t.append_column(_KEPT_COL, pa.array([], pa.int64()))
        return t.append_column(_REMOVED_COL, pa.array([], pa.int64()))
    n_total = np.diff(bounds)
    # reduceat is safe: every doc has >= 1 line (split('') == [''])
    n_removed = np.add.reduceat(drop.astype(np.int64), bounds[:-1])
    originals = t.column(text_col).to_pylist()
    texts = []
    for d in range(ndocs):
        s, e = bounds[d], bounds[d + 1]
        if n_removed[d] == 0:
            texts.append(originals[d] if originals[d] is not None else "")
        else:
            texts.append(sep.join(raw[s:e][~drop[s:e]]))
    idx = t.schema.get_field_index(text_col)
    t = t.set_column(idx, text_col, pa.array(texts, pa.string()))
    t = t.append_column(
        _KEPT_COL, pa.array(n_total - n_removed, pa.int64())
    )
    return t.append_column(_REMOVED_COL, pa.array(n_removed, pa.int64()))


def line_dedup(
    ds: Dataset,
    text_col: str = "text",
    id_col: "str | None" = None,
    min_count: int = 2,
    distributed: "bool | None" = None,
    broadcast_limit: int = DEFAULT_MASK_BROADCAST_LIMIT,
    num_partitions: "int | None" = None,
    sep: str = "\n",
) -> Dataset:
    """Drop every line whose stripped form occurs >= ``min_count``
    times corpus-wide; returns the dataset with ``text_col`` rewritten
    and ``n_lines_kept`` / ``n_lines_removed`` appended.

    ``distributed=None`` (auto) broadcasts the frequent-line key set
    when it fits one object-store object and falls back to the
    exploded-positions join above ``broadcast_limit`` (the join path
    requires ``id_col`` — a unique per-row key such as ``doc_id``)."""
    if min_count < 2:
        raise ValueError("min_count < 2 would drop every non-empty line")

    from .combine import dup_keys_from_partials

    freq = dup_keys_from_partials(
        line_partials(ds, text_col, sep=sep),
        key="line_key",
        min_count=min_count,
    )
    return drop_frequent_lines(
        ds,
        freq,
        text_col=text_col,
        id_col=id_col,
        distributed=distributed,
        broadcast_limit=broadcast_limit,
        num_partitions=num_partitions,
        sep=sep,
    )


def frequent_keys(counts: Dataset, min_count: int) -> Dataset:
    """Filter a ``(line_key, cnt)`` counts Dataset to keys at or above
    the threshold."""

    def frequent_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("cnt"), min_count))

    return counts.map_batches(frequent_only, batch_format="pyarrow")


def drop_frequent_lines(
    ds: Dataset,
    freq: Dataset,
    text_col: str = "text",
    id_col: "str | None" = None,
    distributed: "bool | None" = None,
    broadcast_limit: int = DEFAULT_MASK_BROADCAST_LIMIT,
    num_partitions: "int | None" = None,
    sep: str = "\n",
) -> Dataset:
    """Delivery stage shared by :func:`line_dedup` and the incremental
    cross-run variant: remove every line whose key appears in ``freq``
    (a ``line_key`` Dataset) from ``ds``, via the broadcast mask or the
    exploded-positions join depending on the measured key count."""
    freq = freq.materialize()
    n_freq = freq.count()
    if n_freq == 0:
        # nothing to drop: annotate counters and pass text through
        def annotate(t: pa.Table) -> pa.Table:
            bounds, raw, keys, _ = _split_batch(t, text_col, sep)
            return _rebuild(
                t, text_col, bounds, raw, np.zeros(len(keys), bool), sep
            )

        return ds.map_batches(annotate, batch_format="pyarrow")

    if distributed is None:
        distributed = n_freq > broadcast_limit

    if not distributed:
        chunks = [
            b.column("line_key").to_numpy(zero_copy_only=False)
            for b in freq.iter_batches(
                batch_size=65536, batch_format="pyarrow"
            )
        ]
        sorted_keys = np.sort(np.concatenate(chunks))
        ref = ray.put(sorted_keys)

        def drop_frequent(t: pa.Table) -> pa.Table:
            sv = ray.get(ref)
            bounds, raw, keys, empty = _split_batch(t, text_col, sep)
            pos = np.searchsorted(sv, keys)
            pos_c = np.minimum(pos, len(sv) - 1)
            drop = (sv[pos_c] == keys) & (pos < len(sv)) & ~empty
            return _rebuild(t, text_col, bounds, raw, drop, sep)

        return ds.map_batches(drop_frequent, batch_format="pyarrow")

    # ---- distributed delivery: shuffle only dropped (id, idx) pairs
    if id_col is None:
        raise ValueError(
            "distributed line_dedup needs id_col (a unique per-row key)"
        )
    tune_shuffle_context()
    if num_partitions is None:
        num_partitions = auto_partitions()

    def explode(t: pa.Table) -> pa.Table:
        bounds, _, keys, empty = _split_batch(t, text_col, sep)
        n_lines = np.diff(bounds)
        # the join delivery is keyed on id_col: a duplicated id merges
        # two docs' line positions into one payload (corruption far
        # from the cause) — catch nulls and in-batch repeats here,
        # out-of-range positions in apply_drops. Null check first:
        # np.unique on an object array containing None raises a bare
        # TypeError, and a null id can't join its payload back anyway.
        if t.column(id_col).null_count:
            raise ValueError(
                f"line_dedup join delivery: {id_col!r} contains null "
                "values — every row needs a unique non-null id"
            )
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if len(np.unique(ids)) != len(ids):
            raise ValueError(
                f"line_dedup join delivery requires a UNIQUE id "
                f"column; {id_col!r} repeats within one batch (e.g. "
                "a file path recurring across repos) — pass a "
                "per-row-unique key such as doc_id"
            )
        rid = np.repeat(ids, n_lines)
        idx = np.arange(bounds[-1], dtype=np.int64) - np.repeat(
            bounds[:-1], n_lines
        )
        keep = ~empty
        return pa.table(
            {
                id_col: pa.array(rid[keep]),
                "__line_idx": pa.array(idx[keep], pa.int64()),
                "line_key": pa.array(keys[keep], pa.int64()),
            }
        )

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow"
    )
    freq_keys = freq.select_columns(["line_key"]).repartition(
        max(2, min(num_partitions, 8))
    )
    dropped = exploded.join(
        freq_keys,
        join_type="left_semi",
        num_partitions=num_partitions,
        on=("line_key",),
    )

    def pack_positions(g: pa.Table) -> pa.Table:
        idx = np.sort(g.column("__line_idx").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                id_col: g.column(id_col).slice(0, 1),
                _DROPPED_PAYLOAD: pa.array(
                    [idx.astype(np.int64).tobytes()], pa.binary()
                ),
            }
        )

    packed = dropped.groupby(id_col).map_groups(
        pack_positions, batch_format="pyarrow"
    ).repartition(max(2, min(num_partitions, 8)))

    nested = nested_types(ds.schema().base_schema, exclude=(id_col,))
    if nested:
        ds = ds.map_batches(pack_nested(nested), batch_format="pyarrow")
    joined = ds.join(
        packed,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=(id_col,),
    )
    if nested:
        joined = joined.map_batches(
            unpack_nested(nested), batch_format="pyarrow"
        )

    def apply_drops(t: pa.Table) -> pa.Table:
        payload = t.column(_DROPPED_PAYLOAD)
        t = t.drop_columns([_DROPPED_PAYLOAD])
        bounds, raw, keys, _ = _split_batch(t, text_col, sep)
        drop = np.zeros(len(keys), bool)
        for d, blob in enumerate(payload.to_pylist()):
            if blob:
                pos = np.frombuffer(blob, np.int64)
                # pos is sorted by pack_positions: endpoint check
                # catches payloads merged across docs by a duplicated
                # id value that slipped past the per-batch guard
                if pos.size and (
                    pos[0] < 0 or pos[-1] >= bounds[d + 1] - bounds[d]
                ):
                    raise ValueError(
                        f"dropped-line positions out of range for "
                        f"{id_col}={t.column(id_col)[d]!s}: id values "
                        "must be unique per row (a duplicated id "
                        "merges two docs' line positions)"
                    )
                drop[bounds[d] + pos] = True
        return _rebuild(t, text_col, bounds, raw, drop, sep)

    return joined.map_batches(apply_drops, batch_format="pyarrow")
