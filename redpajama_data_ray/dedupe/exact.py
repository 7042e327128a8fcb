"""Exact deduplication via hash-partitioned keep-first.

The reference's exact dedup is a sequential mmap Bloom filter over the
driver (/root/reference/app/src/bloomfilter.py:296-417) — probabilistic
and single-threaded by construction. The Ray-native design is exact and
parallel, with a size-adaptive delivery of the duplicate set:

1. partial pre-aggregation inside ``map_batches``: one
   ``(key, min_order, count)`` row per distinct key per batch — the
   combiner pattern, so the shuffle moves per-key partials, not rows;
2. a ``groupby(key)`` over the partials (vectorized Sum/Min
   aggregates, no per-group Python) keeps only keys with count > 1 —
   the duplicate table, materialized in the OBJECT STORE (never the
   driver heap);
3. delivery is chosen by the measured duplicate count:
   - **broadcast** (dup set <= ``broadcast_limit``): winners collected
     into a driver dict, ``ray.put`` once, filtered inside
     ``map_batches`` — a semi-join without shuffling the corpus;
   - **join** (dup-heavy corpora — boilerplate, mirrored repos): a
     ``Dataset.join(left_outer)`` of the corpus against the dup table;
     no driver-side state at all, at the cost of one corpus shuffle.

``distributed=None`` (default) auto-switches on the measured count;
``False`` forces the single-root stats + broadcast path (cheapest
when dups are known-rare); ``True`` forces the join path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

# above this many duplicated keys the winners dict stops being a
# reasonable driver/broadcast object (~100 B/entry -> ~200 MB)
DEFAULT_BROADCAST_LIMIT = 2_000_000

_MIN_ORDER_COL = "__dedup_min_order"
_PAIR_DIG_COL = "__dedup_pair_dig"


def _pair_digests(
    key_col: "pa.ChunkedArray", order_col: "pa.ChunkedArray"
) -> "Tuple[np.ndarray, np.ndarray]":
    """(S16 blake2b digests of the length-prefixed (key, order) pair,
    validity mask). Rows identify by the PAIR so order values shared
    across keys never conflate; 2^-128 collision exactness — the risk
    the engine already accepts for id_int. Null in either column is
    marked invalid (nulls never duplicate) and must be masked or left
    unmatched by the caller."""
    from hashlib import blake2b

    ks = key_col.to_pylist()
    ovs = order_col.to_pylist()
    out = np.empty(len(ks), dtype="S16")
    valid = np.ones(len(ks), dtype=bool)
    for i, (kv, ov) in enumerate(zip(ks, ovs)):
        if kv is None or ov is None:
            out[i] = b"\x00" * 16
            valid[i] = False
            continue
        kb = (
            kv.encode()
            if isinstance(kv, str)
            else (bytes(kv) if isinstance(kv, (bytes, bytearray)) else str(kv).encode())
        )
        if isinstance(ov, str):
            ob = ov.encode()
        elif isinstance(ov, (bytes, bytearray)):
            ob = bytes(ov)
        elif isinstance(ov, int):
            ob = ov.to_bytes(16, "little", signed=True)
        else:
            ob = str(ov).encode()
        h = blake2b(digest_size=16)
        h.update(len(kb).to_bytes(8, "little"))
        h.update(kb)
        h.update(ob)
        out[i] = h.digest()
    return out, valid


def dup_key_stats(
    ds: Dataset, key: str, order_col: str, use_groupby: "bool | None" = None
) -> Dataset:
    """Dataset of (key, min_order, cnt, tie_cnt) for keys appearing
    > 1 time (``tie_cnt`` = rows achieving min_order — >1 means the
    keep-first winner is ambiguous and needs group-based resolution).

    ``use_groupby=True`` is the scale path (hash-shuffled aggregate of
    per-block partials); ``False`` uses the small-input combine whose
    root is a single task (``combine.key_stats``); None picks by size."""
    from .combine import key_stats

    return key_stats(
        ds,
        key,
        order_col,
        distributed=use_groupby,
        track_ties=True,
        min_cnt=2,
    )


def _collect_winners(
    dup: Dataset, key: str
) -> "Tuple[pa.Array, pa.Array, Optional[pa.Array]]":
    """(keys, min_orders, tie_cnts|None) as flat Arrow arrays — the
    broadcast object for the vectorized index_in/take winner mask (no
    driver dict, no per-row Python in the filter)."""
    batches = list(
        dup.iter_batches(batch_size=65536, batch_format="pyarrow")
    )
    if not batches:
        return pa.array([], pa.string()), pa.array([], pa.int64()), None
    t = pa.concat_tables(batches).combine_chunks()
    ties = (
        t.column("tie_cnt").combine_chunks()
        if "tie_cnt" in t.column_names
        else None
    )
    return (
        t.column(key).combine_chunks(),
        t.column("min_order").combine_chunks(),
        ties,
    )


def _broadcast_filter(
    ds: Dataset,
    winners: "Tuple[pa.Array, pa.Array]",
    key: str,
    order_col: str,
    keep_winners: bool,
) -> Dataset:
    """Vectorized semi-join against the broadcast winner table: one
    ``index_in`` probe + ``take`` per batch (nulls -> not duplicated).
    At-min rows of TIED keys are kept here and handled by the caller's
    tie-resolution branch."""
    ref = ray.put(winners[:2])

    def fn(t: pa.Table) -> pa.Table:
        w_keys, w_orders = ray.get(ref)
        pos = pc.index_in(t.column(key), value_set=w_keys)
        taken = pc.take(w_orders, pos)
        if keep_winners:
            mask = pc.or_kleene(
                pc.is_null(pos), pc.equal(taken, t.column(order_col))
            )
        else:
            mask = pc.and_kleene(
                pc.is_valid(pos),
                pc.not_equal(taken, t.column(order_col)),
            )
        return t.filter(pc.fill_null(mask, False))

    return ds.map_batches(fn, batch_format="pyarrow")


def _join_filter(
    ds: Dataset,
    dup: Dataset,
    key: str,
    order_col: str,
    keep_winners: bool,
    num_partitions: int,
) -> Dataset:
    """Dataset-side filter against the dup table — zero driver state on
    the join itself. Delivery is payload-aware:

    - narrow fixed-width corpora (numeric payload only): one direct
      wide join (cheapest — a second pass would double the scan);
    - wide/variable payloads (text, binary, nested): only a NARROW
      ``(key, order_col)`` projection is joined; losing rows are then
      subtracted from (or intersected with) the full corpus by
      :func:`~.apply.filter_members` on a pair-digest column appended
      to the corpus and dropped after (it picks the broadcast mask or
      the ``left_anti``/``left_semi`` join by the loser count). Measured
      76.8 s -> 18.1 s on a 650k-row 46%-dup corpus with list
      signature columns vs the old full-width packed join (pickle per
      row).

    Losing rows are identified by their (key, order) PAIR — a 16-byte
    blake2b digest of the length-prefixed pair, exact up to 2^-128
    collisions (the risk already accepted engine-wide for id_int) —
    so order values colliding ACROSS keys never conflate rows. The
    corpus digest is null where the key or order is null, so those
    rows never match. Within a key, rows tying at the min are the
    caller's tie-resolution branch; identical loser pairs are all
    losers by definition."""
    from .apply import filter_members

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {key: t.column(key), _MIN_ORDER_COL: t.column("min_order")}
        )

    # repartition: Ray 2.49's hash-shuffle join rejects inputs whose
    # empty partitions lost their schema
    dup_small = dup.map_batches(proj, batch_format="pyarrow").repartition(
        max(2, min(num_partitions, 8))
    )

    schema = ds.schema().base_schema
    payload = [
        f for f in schema if f.name not in (key, order_col)
    ]
    wide_payload = len(payload) > 4 or any(
        pa.types.is_nested(f.type)
        or pa.types.is_string(f.type)
        or pa.types.is_large_string(f.type)
        or pa.types.is_binary(f.type)
        or pa.types.is_large_binary(f.type)
        for f in payload
    )
    if not wide_payload:
        # narrow fixed-width rows: ONE direct join beats the two-pass
        # narrow-join + mask (measured 9.4 s vs 19.1 s on the 3-column
        # hash table at sf0.1); wide/variable payloads take the
        # narrow-probe path below so they never enter a shuffle
        return _direct_join_filter(
            ds, dup_small, key, order_col, keep_winners, num_partitions
        )
    narrow = ds.select_columns([key, order_col])
    joined = narrow.join(
        dup_small,
        join_type="inner",
        num_partitions=num_partitions,
        on=(key,),
    )

    def losers_only(t: pa.Table) -> pa.Table:
        mask = pc.fill_null(
            pc.not_equal(t.column(_MIN_ORDER_COL), t.column(order_col)),
            False,
        )
        kept = t.filter(mask)
        dig, _ = _pair_digests(kept.column(key), kept.column(order_col))
        return pa.table(
            {_PAIR_DIG_COL: pa.array(dig.tolist(), pa.binary())}
        )

    losers = joined.map_batches(
        losers_only, batch_format="pyarrow"
    ).materialize()

    def add_dig(t: pa.Table) -> pa.Table:
        dig, valid = _pair_digests(t.column(key), t.column(order_col))
        return t.append_column(
            _PAIR_DIG_COL,
            pa.array(dig.tolist(), pa.binary(), mask=~valid),
        )

    # keep_winners: drop the losers; else: keep only them
    return filter_members(
        ds.map_batches(add_dig, batch_format="pyarrow"),
        _PAIR_DIG_COL,
        losers,
        keep_members=not keep_winners,
    ).drop_columns([_PAIR_DIG_COL])


def _direct_join_filter(
    ds: Dataset,
    dup_small: Dataset,
    key: str,
    order_col: str,
    keep_winners: bool,
    num_partitions: int,
) -> Dataset:
    """Single-pass wide join for narrow fixed-width corpora (no nested
    or variable-width payload — Acero carries the rows whole)."""
    if keep_winners:
        joined = ds.join(
            dup_small,
            join_type="left_outer",
            num_partitions=num_partitions,
            on=(key,),
        )

        def keep(t: pa.Table) -> pa.Table:
            mo = t.column(_MIN_ORDER_COL)
            # null min_order -> key not duplicated -> keep;
            # else keep only the winner
            mask = pc.or_kleene(
                pc.is_null(mo), pc.equal(mo, t.column(order_col))
            )
            return t.filter(mask).drop_columns([_MIN_ORDER_COL])

        return joined.map_batches(keep, batch_format="pyarrow")

    joined = ds.join(
        dup_small,
        join_type="inner",
        num_partitions=num_partitions,
        on=(key,),
    )

    def dups(t: pa.Table) -> pa.Table:
        mask = pc.not_equal(t.column(_MIN_ORDER_COL), t.column(order_col))
        return t.filter(mask).drop_columns([_MIN_ORDER_COL])

    return joined.map_batches(dups, batch_format="pyarrow")


# ------------------------------------------------------------------
# order-tie resolution: when >= 2 rows of a key achieve min_order, no
# value-based mask can keep exactly one of them (identical rows are
# indistinguishable by any filter). The tied keys — normally zero;
# possible when callers pass a non-unique order column like a file
# path — are routed through a group-based keep-first on just their
# at-min rows and unioned back.
# ------------------------------------------------------------------


def _tied_winner_arrays(winners) -> "Optional[Tuple[pa.Array, pa.Array]]":
    """(tied_keys, tied_min_orders) or None when no key is tied."""
    w_keys, w_orders, ties = winners
    if ties is None or len(w_keys) == 0:
        return None
    mask = pc.fill_null(pc.greater(ties, 1), False)
    if pc.sum(mask).as_py() in (0, None):
        return None
    return w_keys.filter(mask), w_orders.filter(mask)


def _tied_at_min_rows(
    ds: Dataset, tied_ref, key: str, order_col: str, keep: bool
) -> Dataset:
    """Rows whose (key, order) hits a tied winner slot — or, with
    ``keep=False``, the dataset WITHOUT those rows."""

    def fn(t: pa.Table) -> pa.Table:
        t_keys, t_orders = ray.get(tied_ref)
        pos = pc.index_in(t.column(key), value_set=t_keys)
        at_min = pc.and_kleene(
            pc.is_valid(pos),
            pc.equal(pc.take(t_orders, pos), t.column(order_col)),
        )
        mask = pc.fill_null(at_min, False)
        if not keep:
            mask = pc.invert(mask)
        return t.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def _resolve_ties(ties_ds: Dataset, key: str, keep_winners: bool) -> Dataset:
    """Group-based keep-first over the (tiny) tied at-min subset: each
    group is ordered by the pickled bytes of the WHOLE row — a total
    order covering nested columns too, so exact_dedup and
    duplicate_rows (independent runs, arbitrary shuffle arrival order)
    pick the same winner even when tied rows differ only in a list
    column; fully identical rows are interchangeable by definition.
    Then the first row survives (or, for the duplicates view,
    everything BUT it)."""

    def pick(group: pa.Table) -> pa.Table:
        if group.num_rows <= 1:
            return group if keep_winners else group.slice(0, 0)
        import pickle

        rows = group.to_pylist()
        order = sorted(
            range(len(rows)),
            key=lambda i: pickle.dumps(rows[i], protocol=4),
        )
        group = group.take(pa.array(order, pa.int64()))
        return group.slice(0, 1) if keep_winners else group.slice(1)

    return ties_ds.groupby(key).map_groups(pick, batch_format="pyarrow")


def _groups_fallback(
    ds: Dataset, key: str, order_col: str, keep_winners: bool
) -> Dataset:
    """Full group-based dedup — the semantic fallback when the tied
    key set itself is too large to broadcast (e.g. a constant order
    column ties EVERY duplicated key)."""

    def pick(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(group.column(order_col))
        group = group.take(idx)
        return group.slice(0, 1) if keep_winners else group.slice(1)

    return ds.groupby(key).map_groups(pick, batch_format="pyarrow")


def _with_tie_resolution(
    main: Dataset,
    ds: Dataset,
    winners,
    key: str,
    order_col: str,
    keep_winners: bool,
) -> Dataset:
    """Compose the mask/join delivery (``main``) with the group-based
    resolution of tied keys. No-op (and no extra operators) when no
    key is tied — the overwhelmingly common case."""
    tied = _tied_winner_arrays(winners)
    if tied is None:
        return main
    tied_ref = ray.put(tied)
    if keep_winners:
        # the mask/join paths keep EVERY at-min row of a tied key;
        # drop them all, then add back exactly one per key
        main = _tied_at_min_rows(main, tied_ref, key, order_col, False)
    resolved = _resolve_ties(
        _tied_at_min_rows(ds, tied_ref, key, order_col, True),
        key,
        keep_winners,
    )
    return main.union(resolved)


def _dedup_impl(
    ds: Dataset,
    key: str,
    order_col: str,
    distributed: Optional[bool],
    broadcast_limit: int,
    num_partitions: Optional[int],
    keep_winners: bool,
) -> Dataset:
    if num_partitions is None:
        from .combine import auto_partitions

        num_partitions = auto_partitions()
    from .combine import tune_shuffle_context

    tune_shuffle_context()
    if distributed is False:
        # legacy small-input path: single-root stats, broadcast mask
        winners = _collect_winners(
            dup_key_stats(ds, key, order_col, use_groupby=False), key
        )
        if len(winners[0]) == 0:
            return ds if keep_winners else ds.limit(0)
        main = _broadcast_filter(ds, winners, key, order_col, keep_winners)
        return _with_tie_resolution(
            main, ds, winners, key, order_col, keep_winners
        )

    dup = dup_key_stats(ds, key, order_col, use_groupby=None).materialize()
    n_dup = dup.count()
    if n_dup == 0:
        # nothing duplicated — applies to the FORCED join path too (an
        # empty materialized dup table loses its schema and crashes the
        # join with "No match for key field" otherwise)
        return ds if keep_winners else ds.limit(0)
    if distributed is None and n_dup <= broadcast_limit:
        # tied keys are a subset of the dup keys, so they fit the
        # broadcast too: count them from the collected winners, with
        # no extra execution and no groups fallback
        winners = _collect_winners(dup, key)
        main = _broadcast_filter(ds, winners, key, order_col, keep_winners)
        return _with_tie_resolution(
            main, ds, winners, key, order_col, keep_winners
        )
    n_tied = dup.map_batches(
        lambda t: pa.table(
            {
                "n": pa.array(
                    [
                        pc.sum(
                            pc.fill_null(pc.greater(t["tie_cnt"], 1), False)
                            .cast(pa.int64())
                        ).as_py()
                        or 0
                    ],
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    ).sum("n")
    if n_tied and n_tied > broadcast_limit:
        return _groups_fallback(ds, key, order_col, keep_winners)
    main = _join_filter(
        ds, dup, key, order_col, keep_winners, num_partitions
    )
    if not n_tied:
        return main
    tie_winners = _collect_winners(
        dup.map_batches(
            lambda t: t.filter(
                pc.fill_null(pc.greater(t["tie_cnt"], 1), False)
            ),
            batch_format="pyarrow",
        ),
        key,
    )
    return _with_tie_resolution(
        main, ds, tie_winners, key, order_col, keep_winners
    )


def exact_dedup(
    ds: Dataset,
    key: str = "content_sha256",
    order_col: str = "doc_id",
    distributed: Optional[bool] = None,
    broadcast_limit: int = DEFAULT_BROADCAST_LIMIT,
    num_partitions: Optional[int] = None,
) -> Dataset:
    """Keep one row (min order_col) per distinct value of ``key``.

    ``distributed``: None = auto (measure the dup count, broadcast when
    small, join when large); False = single-root stats + broadcast; True =
    always the dataset-side join."""
    return _dedup_impl(
        ds, key, order_col, distributed, broadcast_limit,
        num_partitions, keep_winners=True,
    )


def duplicate_rows(
    ds: Dataset,
    key: str = "content_sha256",
    order_col: str = "doc_id",
    distributed: Optional[bool] = None,
    broadcast_limit: int = DEFAULT_BROADCAST_LIMIT,
    num_partitions: Optional[int] = None,
) -> Dataset:
    """The complement: every row that is NOT the first of its group
    (the reference emits these as its duplicates table:
    bloomfilter.py:380-396)."""
    return _dedup_impl(
        ds, key, order_col, distributed, broadcast_limit,
        num_partitions, keep_winners=False,
    )
