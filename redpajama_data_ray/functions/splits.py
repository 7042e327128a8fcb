"""Leakage-safe dataset splits and per-group quotas.

Two deterministic GROUP-keyed operators a training-data pipeline needs
beyond row-level sampling (functions/mixing.py):

- :func:`grouped_split` — assign every row to train/val/test by
  hashing its group key (repo, domain, source) so a group never
  straddles splits: near-duplicate files of one repository cannot leak
  from train into eval. Pure per-row predicate over the group key —
  no shuffle, no driver state, identical output for any Ray blocking,
  cluster shape or resume point (the same properties
  functions/mixing.py pins for row-level mixing).

- :func:`cap_per_group` — per-domain quota (the cc_net-style "at most
  N pages per domain" guard the reference's listings selection feeds;
  motivated by /root/reference/app/src/pipeline.py's per-listing
  sharding, no direct reference counterpart file). Keeps at most
  ``cap`` rows per group, chosen uniformly-at-random but
  deterministically: the rows with the ``cap`` smallest
  ``md5(f"{seed}:{id}")`` values survive (ties broken by ``str(id)``).

Scale design of :func:`cap_per_group` (rows never shuffle):

1. one streaming pass emits NARROW partials — per (batch, group) the
   up-to-``cap`` smallest ``(hex16, id)`` keys plus the batch-group
   row count. Keeping the cap smallest per batch provably preserves
   the global cap smallest, so partial volume per group is bounded by
   ``cap × blocks_touching_group`` while document text stays put.
2. partials hash-repartition by group (the only all-to-all, and it
   moves ~40-byte rows); one kernel per co-located group computes the
   quota threshold = the cap-th smallest composite key — emitted ONLY
   for groups whose total exceeds ``cap`` (in web corpora the heavy
   tail, a small fraction of all domains).
3. thresholds broadcast once (``ray.put``) and a second streaming
   pass filters: keep iff ``(hex16, str(id)) <=`` the group's
   threshold, vectorized per distinct group in the batch. Groups
   without a threshold pass through untouched.

Contracts: group keys are compared as ``str(key)`` on every side
(None → 'None', deterministic). Duplicate ``(group, id)`` rows make
the quota approximate at the boundary (every copy of the threshold id
is kept) — assign unique ids first (stages/ids.py) for an exact cap.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from ..dedupe.apply import filter_members
from .mixing import hex_prefix, sample_hex, weight_threshold_hex

# one threshold row (~50 B) per over-cap group; 5M over-cap groups
# (~250 MB broadcast) is the documented driver/worker comfort bound.
# Above it, raise a named error rather than silently OOM — the join
# delivery used by dedupe/apply.py is the escape hatch if a corpus
# ever has more over-cap domains than this.
MAX_BROADCAST_GROUPS = 5_000_000

_PARTIAL_SCHEMA = pa.schema(
    [
        ("g", pa.string()),
        ("h", pa.string()),
        ("id_s", pa.string()),
        ("n", pa.int64()),
        ("prev", pa.int64()),
    ]
)


def _hex16(values, seed: int) -> np.ndarray:
    """16-hex prefix of the shared sampling digest (mixing.py
    :func:`sample_hex`) — wide enough (64 bits) that within-group
    collisions are negligible and cheap enough to recompute instead
    of shipping."""
    return sample_hex(values, seed, 16)


def grouped_split(
    ds: Dataset,
    fractions: Mapping[str, float],
    group_col: str = "source",
    seed: int = 42,
    out_col: str = "split",
) -> Dataset:
    """Add ``out_col`` assigning each row's GROUP to a named split.

    ``fractions`` maps split name → fraction of GROUPS (insertion
    order is the contract; must sum to 1). Every row of a group gets
    the same split — the leakage-safe property — and the predicate is
    a pure function of ``(seed, group)``: ``u = md5hex8(seed:group)``
    lands in the cumulative-threshold bucket, exactly expressible in
    ANSI SQL (md5 + substr + string compare, see the
    ``grouped_split_docs`` oracle)."""
    names = list(fractions)
    if not names:
        raise ValueError("grouped_split: fractions must be non-empty")
    cum = 0.0
    thrs = []
    for name in names:
        w = float(fractions[name])
        if w < 0 or not np.isfinite(w):
            raise ValueError(
                f"grouped_split: fraction for {name!r} must be a "
                f"finite non-negative number, got {fractions[name]!r}"
            )
        cum += w
        thrs.append(weight_threshold_hex(cum))
    if abs(cum - 1.0) > 1e-9:
        raise ValueError(
            f"grouped_split: fractions must sum to 1 (got {cum!r}) — "
            "splits partition the corpus"
        )
    thrs[-1] = "g"  # absorbs rounding: every hex digit < 'g'
    thr_arr = np.array([t.encode() for t in thrs], dtype="S16")

    # eager collision check when the schema is already known (metadata
    # -only — fetch_if_missing=False never triggers execution), so the
    # CLI's constructor-time try/except catches it instead of a
    # RayTaskError surfacing later at write time; the per-batch check
    # below stays as the backstop for lazily-typed inputs
    known = ds.schema(fetch_if_missing=False)
    if known is not None and out_col in known.names:
        raise ValueError(
            f"grouped_split: input already has a {out_col!r} column — "
            "pass a different out_col (or drop the existing one) "
            "instead of silently shadowing it"
        )

    def _assign(t: pa.Table) -> pa.Table:
        if out_col in t.column_names:
            raise ValueError(
                f"grouped_split: input already has a {out_col!r} "
                "column — pass a different out_col (or drop the "
                "existing one) instead of silently shadowing it"
            )
        keys = t.column(group_col).to_pylist()
        cache: Dict[object, str] = {}
        vals = []
        for k in keys:
            s = cache.get(k)
            if s is None:
                u = np.bytes_(hex_prefix(k, seed))
                # first threshold strictly above u = this group's split
                s = names[int(np.searchsorted(thr_arr, u, side="right"))]
                cache[k] = s
            vals.append(s)
        return t.append_column(out_col, pa.array(vals, pa.string()))

    return ds.map_batches(_assign, batch_format="pyarrow")


def _cap_partials(group_col: str, id_col: str, seed: int, cap: int):
    def _partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PARTIAL_SCHEMA.empty_table()
        ids = t.column(id_col).to_pylist()
        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()],
            dtype=object,
        )
        h = _hex16(ids, seed)
        id_s = np.array([str(v) for v in ids], dtype=object)
        order = np.lexsort((id_s, h, g))
        gs = g[order]
        # segment boundaries of the (group-major, composite-minor) sort
        starts = np.flatnonzero(
            np.concatenate(([True], gs[1:] != gs[:-1]))
        )
        ends = np.concatenate((starts[1:], [len(gs)]))
        keep_idx = []
        counts = []
        for s, e in zip(starts, ends):
            take = min(cap, e - s)
            keep_idx.extend(order[s : s + take])
            # the segment-first partial row carries the batch-group
            # row count; the final kernel sums them for the total
            counts.extend([e - s] + [0] * (take - 1))
        keep = np.asarray(keep_idx, dtype=np.int64)
        return pa.table(
            {
                "g": pa.array(g[keep], pa.string()),
                "h": pa.array(
                    [x.decode() for x in h[keep]], pa.string()
                ),
                "id_s": pa.array(id_s[keep], pa.string()),
                "n": pa.array(counts, pa.int64()),
                "prev": pa.array(
                    np.zeros(len(keep), dtype=np.int64)
                ),
            }
        )

    return _partial


def _prev_count_rows(prev_counts: Dataset) -> Dataset:
    """Map cross-run state ``(group_key, cnt)`` rows into the partial
    schema so they ride the same keyed exchange: ``h = ''`` marks a
    state row (a real md5 hex16 is never empty) and ``prev`` carries
    the previously-kept count. State files hold PARTIALS — the same
    group may appear in several rows; the finalize sums them."""

    def _mk(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "g": t.column("group_key").cast(pa.string()),
                "h": pa.array([""] * n, pa.string()),
                "id_s": pa.array([""] * n, pa.string()),
                "n": pa.array(np.zeros(n, dtype=np.int64)),
                "prev": t.column("cnt").cast(pa.int64()),
            }
        )

    return prev_counts.map_batches(_mk, batch_format="pyarrow")


_DIG_COL = "__rpray_pair_dig"


def _gid_digests(g: "np.ndarray", id_s: "np.ndarray") -> np.ndarray:
    """S16 blake2b digests of the length-prefixed (str(group),
    str(id)) pair — the row identity the join delivery subtracts by.
    Both sides (loser computation and corpus filter) str-normalize
    identically, so the digests match exactly; 2^-128 collision
    exactness is the engine-wide accepted risk (dedupe/exact.py
    ``_pair_digests``)."""
    from hashlib import blake2b

    out = np.empty(len(g), dtype="S16")
    for i in range(len(g)):
        kb = g[i].encode()
        h = blake2b(digest_size=16)
        h.update(len(kb).to_bytes(8, "little"))
        h.update(kb)
        h.update(id_s[i].encode())
        out[i] = h.digest()
    return out


def _with_gid_digest(ds: Dataset, group_col: str, id_col: str) -> Dataset:
    """``ds`` with each row's (group, id) digest appended as
    ``_DIG_COL``: the key the join deliveries subtract loser rows by
    (``filter_members(..., _DIG_COL, losers, False)``, then drop the
    column). The corpus only ever joins on this UNIFORM digest key —
    never on the skewed group key — so a giant domain cannot pin one
    partition."""

    def _addd(t: pa.Table) -> pa.Table:
        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()], dtype=object
        )
        id_s = np.array(
            [str(v) for v in t.column(id_col).to_pylist()], dtype=object
        )
        return t.append_column(
            _DIG_COL, pa.array(_gid_digests(g, id_s).tolist(), pa.binary())
        )

    return ds.map_batches(_addd, batch_format="pyarrow")


def _strip_block_sentinels(tbl, nparts: int, what: str):
    """Split the per-finalize-call sentinel rows (``g`` null — real
    group keys are str()-normalized, never null) off a materialized
    threshold/boundary/cut table and assert the one-block-per-
    keyed-partition invariant the finalize kernels rely on: each
    finalize call emits exactly one sentinel, so more sentinels than
    shuffle partitions means Ray split a partition's output into
    multiple blocks — fragments of one group could then each look
    locally under-cap and silently keep everything (ADVICE r4).
    Returns ``(real_rows_dataset, n_real)``."""
    import pyarrow.compute as pc

    n_total = tbl.count()

    def _drop(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column("g")))

    real = tbl.map_batches(_drop, batch_format="pyarrow").materialize()
    n_real = real.count()
    if n_total - n_real > nparts:
        raise RuntimeError(
            f"{what}: {n_total - n_real} finalize blocks for {nparts} "
            "keyed partitions — the shuffle split a partition's "
            "output across blocks, so a group's partials may have "
            "been finalized in fragments (silent under-enforcement). "
            "Raise DataContext.target_max_block_size or lower the "
            "partial volume (smaller cap / fewer input blocks)."
        )
    return real, n_real


def _cap_thresholds(cap: int):
    """Per co-located group: this run's composite keys (+ optional
    cross-run state rows, marked ``h == ''`` and sorting first within
    the group) → at most one threshold row. ``thr_h == ''`` is the
    DROP-ALL marker (no md5 hex compares below the empty string, so
    the unchanged filter kernel keeps nothing); no row means the
    group is under its remaining quota. Every call additionally emits
    one ``g = null`` sentinel row so the driver can count finalize
    blocks against shuffle partitions (:func:`_strip_block_sentinels`)."""

    def _finalize(t: pa.Table) -> pa.Table:
        out_g, out_h, out_id = [None], [""], [""]
        if t.num_rows:
            g = np.array(t.column("g").to_pylist(), dtype=object)
            h = np.array(t.column("h").to_pylist(), dtype="S16")
            id_s = np.array(t.column("id_s").to_pylist(), dtype=object)
            n = t.column("n").to_numpy(zero_copy_only=False)
            prev = t.column("prev").to_numpy(zero_copy_only=False)
            order = np.lexsort((id_s, h, g))
            g, h, id_s = g[order], h[order], id_s[order]
            n, prev = n[order], prev[order]
            starts = np.flatnonzero(
                np.concatenate(([True], g[1:] != g[:-1]))
            )
            ends = np.concatenate((starts[1:], [len(g)]))
            is_state = h == b""
            for s, e in zip(starts, ends):
                total = int(n[s:e].sum())
                if total == 0:
                    continue  # state-only group: absent this run
                remaining = cap - int(prev[s:e].sum())
                if remaining <= 0:
                    out_g.append(g[s])
                    out_h.append("")  # quota exhausted: drop all
                    out_id.append("")
                    continue
                if total <= remaining:
                    continue  # group under quota: keep everything
                # remaining-th smallest composite key of THIS run's
                # rows (state rows sort first in the segment — skip)
                k = s + int(is_state[s:e].sum()) + remaining - 1
                out_g.append(g[s])
                out_h.append(h[k].decode())
                out_id.append(id_s[k])
        return pa.table(
            {
                "g": pa.array(out_g, pa.string()),
                "h": pa.array(out_h, pa.string()),
                "id_s": pa.array(out_id, pa.string()),
            }
        )

    return _finalize


def _key_join_narrow(
    t: pa.Table,
    group_col: str,
    id_col: str,
    seed: int,
    tokens: "Optional[Callable[[pa.Table], np.ndarray]]" = None,
) -> pa.Table:
    """The narrow corpus projection the key-join deliveries join on the
    group key: ``__rpray_g`` (str of the group), ``__rpray_h`` (the
    row's hex16 sampling digest) and ``__rpray_id`` (str of the id),
    plus ``__rpray_tok`` (float64) when ``tokens`` maps the batch to
    its token counts. Document text never enters it."""
    n = t.num_rows
    # an empty block may have lost its schema: read no column of it
    ids = t.column(id_col).to_pylist() if n else []
    groups = t.column(group_col).to_pylist() if n else []
    hexes = [x.decode() for x in _hex16(ids, seed)] if n else []
    cols = {
        "__rpray_g": pa.array([str(k) for k in groups], pa.string()),
        "__rpray_h": pa.array(hexes, pa.string()),
        "__rpray_id": pa.array([str(v) for v in ids], pa.string()),
    }
    if tokens is not None:
        cols["__rpray_tok"] = pa.array(tokens(t) if n else [], pa.float64())
    return pa.table(cols)


def _cap_join_delivery(
    ds: Dataset,
    thr_tbl: Dataset,
    group_col: str,
    id_col: str,
    seed: int,
) -> Dataset:
    """Threshold delivery via key joins for corpora whose over-cap
    group count exceeds the broadcast bound (VERDICT r4 item 3).

    Two narrow exchanges: (1) a (g, hex16, id) projection of the
    corpus inner-joins the threshold table on the group key — only
    over-cap groups' rows survive the join — and the composite-key
    compare marks the LOSER rows as 16-byte (group, id) digests;
    (2) ``filter_members`` removes them from the corpus by digest
    (broadcast mask or left_anti join). Document text never
    enters the group-keyed join, and the corpus-side join key is the
    uniform digest, so group skew cannot pin a partition."""
    from ..dedupe.combine import auto_partitions

    nparts = auto_partitions()

    def _ren(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "__rpray_g": t.column("g"),
                "__rpray_thr_h": t.column("h"),
                "__rpray_thr_id": t.column("id_s"),
            }
        )

    # repartition: Ray 2.49's hash-shuffle join rejects inputs whose
    # empty partitions lost their schema (dedupe/exact.py pattern)
    thr = thr_tbl.map_batches(_ren, batch_format="pyarrow").repartition(
        max(2, min(nparts, 16))
    )

    joined = ds.map_batches(
        _key_join_narrow,
        fn_kwargs=dict(group_col=group_col, id_col=id_col, seed=seed),
        batch_format="pyarrow",
    ).join(
        thr,
        join_type="inner",
        num_partitions=nparts,
        on=("__rpray_g",),
    )

    def _losers(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({_DIG_COL: pa.array([], pa.binary())})
        h = np.array(t.column("__rpray_h").to_pylist(), dtype="S16")
        ids = np.array(t.column("__rpray_id").to_pylist(), dtype=object)
        g = np.array(t.column("__rpray_g").to_pylist(), dtype=object)
        thr_h = np.array(
            t.column("__rpray_thr_h").to_pylist(), dtype="S16"
        )
        thr_id = np.array(
            t.column("__rpray_thr_id").to_pylist(), dtype=object
        )
        # thr_h == b'' (quota exhausted) keeps nothing: no real hex16
        # compares below the empty string
        keep = h < thr_h
        for j in np.flatnonzero(h == thr_h):
            keep[j] = ids[j] <= thr_id[j]
        lose = ~keep
        dig = _gid_digests(g[lose], ids[lose])
        return pa.table(
            {_DIG_COL: pa.array(dig.tolist(), pa.binary())}
        )

    losers = joined.map_batches(
        _losers, batch_format="pyarrow"
    ).materialize()
    return filter_members(
        _with_gid_digest(ds, group_col, id_col), _DIG_COL, losers, False
    ).drop_columns([_DIG_COL])


def cap_per_group(
    ds: Dataset,
    cap: int,
    group_col: str = "source",
    id_col: str = "doc_id",
    seed: int = 42,
    max_broadcast_groups: int = MAX_BROADCAST_GROUPS,
    prev_counts: "Dataset | None" = None,
    delivery: str = "auto",
) -> Dataset:
    """Keep at most ``cap`` rows per group, deterministically (the
    ``cap`` smallest ``(md5hex16(seed:id), str(id))`` keys win). See
    the module docstring for the three-stage scale design; the SQL
    equivalent is ``row_number() OVER (PARTITION BY group ORDER BY
    substr(md5(seed||':'||id),1,16), id) <= cap``.

    ``prev_counts`` (columns ``group_key``/``cnt``, str-normalized
    group keys, possibly PARTIAL rows — the same group may repeat)
    charges previously-kept rows against each group's quota: a group
    keeps at most ``cap - sum(prev cnt)`` rows this run (first-come
    across runs; state/incremental.py wires the cross-run commit).

    ``delivery`` picks how thresholds reach the corpus: ``"auto"``
    broadcasts below ``max_broadcast_groups`` over-cap groups and
    falls back to the key-join delivery above it
    (:func:`_cap_join_delivery`); ``"broadcast"`` / ``"join"`` force
    a path (broadcast raises loudly above the bound)."""
    if cap < 1:
        raise ValueError(
            f"cap_per_group: cap must be >= 1, got {cap!r} "
            "(use Dataset.filter to drop everything)"
        )
    if delivery not in ("auto", "broadcast", "join"):
        raise ValueError(
            f"cap_per_group: delivery must be auto|broadcast|join, "
            f"got {delivery!r}"
        )
    from ..dedupe.combine import auto_partitions, scoped_hash_shuffle

    partials = ds.map_batches(
        _cap_partials(group_col, id_col, seed, cap),
        batch_format="pyarrow",
    )
    if prev_counts is not None:
        partials = partials.union(_prev_count_rows(prev_counts))
    nparts = auto_partitions()
    with scoped_hash_shuffle(partials.context):
        thr_tbl = (
            partials.repartition(nparts, keys=["g"])
            .map_batches(
                _cap_thresholds(cap),
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
            .materialize()
        )
    thr_tbl, n_thr = _strip_block_sentinels(
        thr_tbl, nparts, "cap_per_group"
    )
    if n_thr == 0:
        return ds  # no group exceeds the quota
    if delivery == "join" or (
        delivery == "auto" and n_thr > max_broadcast_groups
    ):
        return _cap_join_delivery(ds, thr_tbl, group_col, id_col, seed)
    if n_thr > max_broadcast_groups:
        raise ValueError(
            f"cap_per_group: {n_thr} groups exceed the quota — above "
            f"max_broadcast_groups={max_broadcast_groups} with "
            "delivery='broadcast'; raise the bound or use "
            "delivery='auto'/'join' (key-join threshold delivery)"
        )
    rows = thr_tbl.take_all()
    thr: Dict[str, Tuple[bytes, str]] = {
        r["g"]: (r["h"].encode(), r["id_s"]) for r in rows
    }
    if len(thr) != len(rows):
        raise RuntimeError(
            "cap_per_group: duplicate group in the threshold table — "
            "the keyed repartition split a group across blocks "
            "(one-block-per-partition invariant violated)"
        )
    thr_ref = ray.put(thr)

    def _filter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        thr_map = ray.get(thr_ref)
        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()],
            dtype=object,
        )
        hit_groups = [u for u in set(g.tolist()) if u in thr_map]
        if not hit_groups:
            return t
        # hash only rows whose group HAS a threshold — everything
        # else passes through without paying the per-row digest
        idx = np.flatnonzero(
            np.isin(g, np.array(hit_groups, dtype=object))
        )
        ids = t.column(id_col).to_pylist()
        sub_ids = [ids[i] for i in idx]
        h = _hex16(sub_ids, seed)
        g_sub = g[idx]
        keep = np.ones(t.num_rows, dtype=bool)
        keep_sub = np.zeros(len(idx), dtype=bool)
        for u in hit_groups:
            thr_h, thr_id = thr_map[u]
            m = g_sub == u
            keep_sub[m] = h[m] < thr_h
            at = m & (h == np.bytes_(thr_h))
            if at.any():
                for j in np.flatnonzero(at):
                    keep_sub[j] = str(sub_ids[j]) <= thr_id
        keep[idx] = keep_sub
        return t.filter(pa.array(keep))

    return ds.map_batches(_filter, batch_format="pyarrow")


def group_kept_counts(ds: Dataset, group_col: str) -> Dataset:
    """Narrow ``(group_key, cnt)`` partials over ``ds`` (one row per
    distinct group per block, str-normalized like
    :func:`cap_per_group`) — what a cross-run quota commit stores.
    Rows are PARTIAL by design: the incremental finalize sums every
    matching state row, so no global combine is paid here."""

    def _p(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "group_key": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()],
            dtype=object,
        )
        u, c = np.unique(g, return_counts=True)
        return pa.table(
            {
                "group_key": pa.array(u, pa.string()),
                "cnt": pa.array(c.astype(np.int64)),
            }
        )

    return ds.map_batches(_p, batch_format="pyarrow")


# ------------------------------------------------------------------
# token-budget sampling (keep docs per group until a budget is met)
# ------------------------------------------------------------------
#
# Training mixes are specified in TOKENS, not row counts ("200B from
# web, 50B from code"). token_budget_sample keeps, per group, the
# prefix of documents in deterministic hash order whose running token
# total stays below the group's budget (the crossing document is
# kept, so the kept total lands in [budget, budget + one doc); a
# group under budget keeps everything).
#
# Scale design (three streaming passes, text never shuffles):
#   1. histogram: per (batch, group, hash-bucket) → (Σtokens, n) —
#      256 buckets over the first two hex digits, so the exchange is
#      at most groups×256 fixed-width rows. A per-group scan of the
#      cumulative bucket sums finds the BOUNDARY bucket containing
#      the budget crossing (groups under budget emit nothing).
#   2. refine: only rows falling in their group's boundary bucket
#      (~1/256 of the group) ship exact (hex, id, tokens) rows; a
#      per-group cumulative walk pins the exact cut key.
#   3. filter: broadcast {group: (boundary_bucket, cut_hex, cut_id)}
#      and keep rows in earlier buckets, or at/below the cut key in
#      the boundary bucket. Rows of unlisted groups pass untouched.


def _bucket_of(h: np.ndarray) -> np.ndarray:
    """Hash bucket = first two hex digits (256 buckets)."""
    return np.char.ljust(h.astype("S2"), 2, b"0")


def token_budget_sample(
    ds: Dataset,
    budget,
    token_col: str,
    group_col: str = "source",
    id_col: str = "doc_id",
    seed: int = 42,
    default_budget: "int | None" = None,
    max_broadcast_groups: int = MAX_BROADCAST_GROUPS,
    prev_tokens: "Dataset | None" = None,
    delivery: str = "auto",
) -> Dataset:
    """Keep per group the deterministic-hash-order document prefix
    whose running ``token_col`` total (exclusive of the current row)
    stays below the group's budget. ``budget`` is an int applied to
    every group or a mapping ``{group: budget}`` (str-normalized
    keys; unlisted groups use ``default_budget``, None = keep all;
    combining an int budget WITH default_budget is rejected — the
    int already applies to every group).
    SQL equivalent: ``sum(tokens) OVER (PARTITION BY group ORDER BY
    md5hex16, id ROWS UNBOUNDED PRECEDING AND 1 PRECEDING) <
    budget``. Tokens are summed as float64: integer-valued token
    columns (< 2^53) get exact partition-invariance and SQL parity;
    fractional token values are subject to float summation order at
    the boundary row.

    ``prev_tokens`` (columns ``group_key``/``cnt``, possibly PARTIAL
    rows) charges previously-banked kept-token sums against each
    group's budget (first-come across runs; state/incremental.py
    wires the cross-run commit); exhausted groups drop entirely.

    Duplicate ``(group, id)`` rows share one composite key, so every
    copy of the cut-key document is kept — the overshoot bound and
    the SQL-window parity hold for unique ids (same caveat as
    :func:`cap_per_group`: assign ids first, stages/ids.py).

    ``delivery``: ``"auto"`` broadcasts boundary/cut tables below
    ``max_broadcast_groups`` over-budget groups and falls back to the
    key-join delivery above it; ``"broadcast"`` / ``"join"`` force a
    path (broadcast raises loudly above the bound). The join path
    runs the refine/cut passes with boundaries attached by an inner
    join on the group key (narrow projections only — text never
    joins) and subtracts loser rows by (group, id) digest."""
    if delivery not in ("auto", "broadcast", "join"):
        raise ValueError(
            f"token_budget_sample: delivery must be "
            f"auto|broadcast|join, got {delivery!r}"
        )
    if isinstance(budget, Mapping):
        budgets = {str(k): int(v) for k, v in budget.items()}
        bad = [k for k, v in budgets.items() if v <= 0]
        if bad:
            raise ValueError(
                f"token_budget_sample: budgets must be positive, got "
                f"{bad[0]!r}={budgets[bad[0]]} (omit the group or use "
                "Dataset.filter to drop it)"
            )
    else:
        if int(budget) <= 0:
            raise ValueError(
                f"token_budget_sample: budget must be positive, got "
                f"{budget!r}"
            )
        if default_budget is not None:
            raise ValueError(
                "token_budget_sample: an int budget already applies "
                "to every group — default_budget only combines with "
                "a per-group mapping"
            )
        budgets = None
        default_budget = int(budget)
    if default_budget is not None and int(default_budget) <= 0:
        raise ValueError(
            "token_budget_sample: default_budget must be positive or "
            "None (None keeps unbudgeted groups whole)"
        )

    def _budget_of(g: str) -> "int | None":
        if budgets is None:
            return default_budget
        b = budgets.get(g)
        return b if b is not None else default_budget

    def _tokens(t: pa.Table) -> np.ndarray:
        import pyarrow.compute as pc

        tok = pc.fill_null(
            t.column(token_col).cast(pa.float64()), 0.0
        ).to_numpy(zero_copy_only=False)
        if (tok < 0).any():
            raise ValueError(
                f"token_budget_sample: {token_col!r} has negative "
                "values — token counts must be non-negative"
            )
        return tok

    # pass 1: per (batch, group, bucket) histogram partials. The
    # (group, bucket) aggregation is a sorted segment walk — no
    # composite string key, so group values containing NUL (or any
    # other byte) stay exact, matching the module's str(key) contract
    def _hist(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "tok": pa.array([], pa.float64()),
                    "prev": pa.array([], pa.float64()),
                }
            )
        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()],
            dtype=object,
        )
        h = _hex16(t.column(id_col).to_pylist(), seed)
        b = _bucket_of(h)
        tok = _tokens(t)
        order = np.lexsort((b, g))
        gs, bs, ts = g[order], b[order], tok[order]
        change = np.concatenate(
            ([True], (gs[1:] != gs[:-1]) | (bs[1:] != bs[:-1]))
        )
        starts = np.flatnonzero(change)
        sums = np.add.reduceat(ts, starts)
        return pa.table(
            {
                "g": pa.array(gs[starts], pa.string()),
                "b": pa.array(
                    [x.decode() for x in bs[starts]], pa.string()
                ),
                "tok": pa.array(sums, pa.float64()),
                "prev": pa.array(
                    np.zeros(len(starts), dtype=np.float64)
                ),
            }
        )

    def _prev_token_rows(prev: Dataset) -> Dataset:
        """Cross-run banked kept-token sums (``group_key``/``cnt``,
        possibly PARTIAL rows) mapped into the histogram schema:
        bucket '' sorts before every real 2-hex bucket and carries
        tok=0, so the cumulative walk is undisturbed while ``prev``
        charges the group's budget."""

        def _mk(pt: pa.Table) -> pa.Table:
            n = pt.num_rows
            return pa.table(
                {
                    "g": pt.column("group_key").cast(pa.string()),
                    "b": pa.array([""] * n, pa.string()),
                    "tok": pa.array(np.zeros(n, dtype=np.float64)),
                    "prev": pt.column("cnt").cast(pa.float64()),
                }
            )

        return prev.map_batches(_mk, batch_format="pyarrow")

    def _boundaries(t: pa.Table) -> pa.Table:
        """Per co-located group: boundary bucket + budget remaining
        entering it (groups under budget emit nothing). Each call
        emits one ``g = null`` sentinel row for the block-split
        canary (:func:`_strip_block_sentinels`)."""
        out_g, out_b, out_rem = [None], [""], [0.0]
        if t.num_rows:
            g = np.array(t.column("g").to_pylist(), dtype=object)
            b = np.array(t.column("b").to_pylist(), dtype="S2")
            tok = t.column("tok").to_numpy(zero_copy_only=False)
            prev = t.column("prev").to_numpy(zero_copy_only=False)
            order = np.lexsort((b, g))
            g, b, tok, prev = g[order], b[order], tok[order], prev[order]
            starts = np.flatnonzero(
                np.concatenate(([True], g[1:] != g[:-1]))
            )
            ends = np.concatenate((starts[1:], [len(g)]))
            for s, e in zip(starts, ends):
                bud = _budget_of(g[s])
                if bud is None:
                    continue
                # cross-run: previously-banked kept tokens charge the
                # budget first (state rows carry tok=0, so the walk
                # below is undisturbed)
                bud = bud - float(prev[s:e].sum())
                tot = float(tok[s:e].sum())
                if tot == 0.0 and e - s == int((b[s:e] == b"").sum()):
                    continue  # state-only group: absent this run
                if bud <= 0:
                    # budget exhausted by earlier runs: drop all ('' is
                    # below every real 2-hex bucket, so the filter
                    # keeps nothing)
                    out_g.append(g[s])
                    out_b.append("")
                    out_rem.append(0.0)
                    continue
                # strictly under budget: every row's exclusive prefix
                # < budget, keep all. At EXACT equality the boundary
                # path still runs so zero-token rows whose exclusive
                # prefix equals the budget are dropped like the SQL
                # window rule says.
                if tot < bud:
                    continue
                cum = 0.0
                for i in range(s, e):
                    # first bucket whose cumulative total crosses the
                    # budget holds the cut (same bucket may repeat
                    # across partial rows — walk them all)
                    nxt = cum + tok[i]
                    if nxt >= bud and (
                        i + 1 >= e or b[i + 1] != b[i]
                    ):
                        out_g.append(g[s])
                        out_b.append(b[i].decode())
                        out_rem.append(bud - _cum_before(
                            tok, b, s, i
                        ))
                        break
                    cum = nxt
        return pa.table(
            {
                "g": pa.array(out_g, pa.string()),
                "b": pa.array(out_b, pa.string()),
                "rem": pa.array(out_rem, pa.float64()),
            }
        )

    def _cum_before(tok, b, s, i):
        """Sum of tokens in buckets strictly before b[i] within the
        group segment starting at s (partial rows of one bucket may
        interleave only within their sorted run)."""
        j = i
        while j > s and b[j - 1] == b[i]:
            j -= 1
        return float(tok[s:j].sum())

    from ..dedupe.combine import auto_partitions, scoped_hash_shuffle

    hist = ds.map_batches(_hist, batch_format="pyarrow")
    if prev_tokens is not None:
        hist = hist.union(_prev_token_rows(prev_tokens))
    nparts = auto_partitions()
    with scoped_hash_shuffle(hist.context):
        bounds = (
            hist.repartition(nparts, keys=["g"])
            .map_batches(
                _boundaries,
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
            .materialize()
        )
    bounds, n_b = _strip_block_sentinels(
        bounds, nparts, "token_budget_sample[boundaries]"
    )
    if n_b == 0:
        return ds  # every group under budget

    def _tb_join_path(bounds: Dataset) -> Dataset:
        """Key-join delivery (VERDICT r4 item 3): boundaries reach
        the refine pass by an inner join of a NARROW (g, hex16, id,
        tok) corpus projection with the boundary table on the group
        key; cut keys are computed per co-located group exactly as in
        the broadcast path; a second inner join of the projection
        with (boundary ⟕ cut) marks loser rows, which are subtracted
        from the corpus by (group, id) digest
        (:func:`_with_gid_digest` — uniform key, no group skew)."""

        small = max(2, min(nparts, 16))

        def _renb(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "__rpray_g": t.column("g"),
                    "__rpray_b": t.column("b"),
                    "__rpray_rem": t.column("rem"),
                }
            )

        bnd = bounds.map_batches(
            _renb, batch_format="pyarrow"
        ).repartition(small)

        narrow = ds.map_batches(
            _key_join_narrow,
            fn_kwargs=dict(
                group_col=group_col, id_col=id_col, seed=seed,
                tokens=_tokens,
            ),
            batch_format="pyarrow",
        )
        refined = narrow.join(
            bnd,
            join_type="inner",
            num_partitions=nparts,
            on=("__rpray_g",),
        )

        def _boundary_rows(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            h = np.array(
                t.column("__rpray_h").to_pylist(), dtype="S16"
            )
            bs = np.array(
                [
                    "" if v is None else v
                    for v in t.column("__rpray_b").to_pylist()
                ],
                dtype="S2",
            )
            return t.filter(pa.array(_bucket_of(h) == bs))

        refined = refined.map_batches(
            _boundary_rows, batch_format="pyarrow"
        )

        def _cuts_j(t: pa.Table) -> pa.Table:
            out_g, out_h, out_id = [None], [""], [""]  # sentinel
            if t.num_rows:
                g = np.array(
                    t.column("__rpray_g").to_pylist(), dtype=object
                )
                h = np.array(
                    t.column("__rpray_h").to_pylist(), dtype="S16"
                )
                id_s = np.array(
                    t.column("__rpray_id").to_pylist(), dtype=object
                )
                tok = t.column("__rpray_tok").to_numpy(
                    zero_copy_only=False
                )
                rem = t.column("__rpray_rem").to_numpy(
                    zero_copy_only=False
                )
                order = np.lexsort((id_s, h, g))
                g, h, id_s = g[order], h[order], id_s[order]
                tok, rem = tok[order], rem[order]
                starts = np.flatnonzero(
                    np.concatenate(([True], g[1:] != g[:-1]))
                )
                ends = np.concatenate((starts[1:], [len(g)]))
                for s, e in zip(starts, ends):
                    r = float(rem[s])
                    cum, cut = 0.0, None
                    for i in range(s, e):
                        if cum >= r:
                            break
                        cut = i
                        cum += tok[i]
                    if cut is None:
                        out_g.append(g[s])
                        out_h.append("")
                        out_id.append("")
                    else:
                        out_g.append(g[s])
                        out_h.append(h[cut].decode())
                        out_id.append(id_s[cut])
            return pa.table(
                {
                    "g": pa.array(out_g, pa.string()),
                    "h": pa.array(out_h, pa.string()),
                    "id_s": pa.array(out_id, pa.string()),
                }
            )

        with scoped_hash_shuffle(refined.context):
            cut_tbl = (
                refined.repartition(nparts, keys=["__rpray_g"])
                .map_batches(
                    _cuts_j,
                    batch_format="pyarrow",
                    batch_size=None,
                    zero_copy_batch=True,
                )
                .materialize()
            )
        cut_tbl, _ = _strip_block_sentinels(
            cut_tbl, nparts, "token_budget_sample[cuts:join]"
        )

        def _renc(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "__rpray_g": t.column("g"),
                    "__rpray_thr_h": t.column("h"),
                    "__rpray_thr_id": t.column("id_s"),
                }
            )

        cuts_r = cut_tbl.map_batches(
            _renc, batch_format="pyarrow"
        ).repartition(small)
        thr = bnd.join(
            cuts_r,
            join_type="left_outer",
            num_partitions=small,
            on=("__rpray_g",),
        ).repartition(small)
        joined = narrow.join(
            thr,
            join_type="inner",
            num_partitions=nparts,
            on=("__rpray_g",),
        )

        def _losers(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({_DIG_COL: pa.array([], pa.binary())})
            h = np.array(
                t.column("__rpray_h").to_pylist(), dtype="S16"
            )
            b = _bucket_of(h)
            ids = np.array(
                t.column("__rpray_id").to_pylist(), dtype=object
            )
            g = np.array(
                t.column("__rpray_g").to_pylist(), dtype=object
            )
            bs = np.array(
                [
                    "" if v is None else v
                    for v in t.column("__rpray_b").to_pylist()
                ],
                dtype="S2",
            )
            th = np.array(
                [
                    "" if v is None else v
                    for v in t.column("__rpray_thr_h").to_pylist()
                ],
                dtype="S16",
            )
            ti = np.array(
                [
                    "" if v is None else v
                    for v in t.column("__rpray_thr_id").to_pylist()
                ],
                dtype=object,
            )
            keep = b < bs
            at = b == bs
            keep[at] = h[at] < th[at]
            for j in np.flatnonzero(at & (h == th)):
                keep[j] = ids[j] <= ti[j]
            lose = ~keep
            dig = _gid_digests(g[lose], ids[lose])
            return pa.table(
                {_DIG_COL: pa.array(dig.tolist(), pa.binary())}
            )

        losers = joined.map_batches(
            _losers, batch_format="pyarrow"
        ).materialize()
        return filter_members(
            _with_gid_digest(ds, group_col, id_col), _DIG_COL, losers, False
        ).drop_columns([_DIG_COL])

    if delivery == "join" or (
        delivery == "auto" and n_b > max_broadcast_groups
    ):
        return _tb_join_path(bounds)
    if n_b > max_broadcast_groups:
        raise ValueError(
            f"token_budget_sample: {n_b} groups exceed their budget — "
            f"above max_broadcast_groups={max_broadcast_groups} with "
            "delivery='broadcast'; raise the bound or use "
            "delivery='auto'/'join' (key-join boundary delivery)"
        )
    rows = bounds.take_all()
    bmap = {r["g"]: (r["b"].encode(), r["rem"]) for r in rows}
    if len(bmap) != len(rows):
        raise RuntimeError(
            "token_budget_sample: duplicate group in the boundary "
            "table — the keyed repartition split a group across "
            "blocks (one-block-per-partition invariant violated)"
        )
    bmap_ref = ray.put(bmap)

    # pass 2: exact keys of boundary-bucket rows only
    def _refine(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "g": pa.array([], pa.string()),
                "h": pa.array([], pa.string()),
                "id_s": pa.array([], pa.string()),
                "tok": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        m = ray.get(bmap_ref)
        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()],
            dtype=object,
        )
        hits = [u for u in set(g.tolist()) if u in m]
        if not hits:
            return empty
        idx = np.flatnonzero(np.isin(g, np.array(hits, dtype=object)))
        ids = t.column(id_col).to_pylist()
        sub_ids = [ids[i] for i in idx]
        h = _hex16(sub_ids, seed)
        b = _bucket_of(h)
        # tokens only for the hit-group subset — pass 1 already
        # validated the full column over the identical dataset
        tok = _tokens(t.take(pa.array(idx, pa.int64())))
        g_sub = g[idx]
        sel = np.array(
            [bi == m[gi][0] for gi, bi in zip(g_sub, b)], dtype=bool
        )
        if not sel.any():
            return empty
        keep = np.flatnonzero(sel)
        return pa.table(
            {
                "g": pa.array(g_sub[keep], pa.string()),
                "h": pa.array(
                    [h[i].decode() for i in keep], pa.string()
                ),
                "id_s": pa.array(
                    [str(sub_ids[i]) for i in keep], pa.string()
                ),
                "tok": pa.array(tok[keep], pa.float64()),
            }
        )

    def _cuts(t: pa.Table) -> pa.Table:
        """Per group: walk the boundary bucket in composite order and
        pin the cut key (last row whose exclusive prefix < rem). Each
        call emits one ``g = null`` sentinel row for the block-split
        canary (:func:`_strip_block_sentinels`)."""
        out_g, out_h, out_id = [None], [""], [""]
        if t.num_rows:
            g = np.array(t.column("g").to_pylist(), dtype=object)
            h = np.array(t.column("h").to_pylist(), dtype="S16")
            id_s = np.array(t.column("id_s").to_pylist(), dtype=object)
            tok = t.column("tok").to_numpy(zero_copy_only=False)
            m = ray.get(bmap_ref)
            order = np.lexsort((id_s, h, g))
            g, h, id_s, tok = g[order], h[order], id_s[order], tok[order]
            starts = np.flatnonzero(
                np.concatenate(([True], g[1:] != g[:-1]))
            )
            ends = np.concatenate((starts[1:], [len(g)]))
            for s, e in zip(starts, ends):
                rem = m[g[s]][1]
                cum, cut = 0.0, None
                for i in range(s, e):
                    if cum >= rem:
                        break
                    cut = i
                    cum += tok[i]
                if cut is None:
                    # rem <= 0 cannot happen (the boundary bucket is
                    # the FIRST crossing, so some budget remains) —
                    # defensive drop-all marker
                    out_g.append(g[s])
                    out_h.append("")
                    out_id.append("")
                else:
                    out_g.append(g[s])
                    out_h.append(h[cut].decode())
                    out_id.append(id_s[cut])
        return pa.table(
            {
                "g": pa.array(out_g, pa.string()),
                "h": pa.array(out_h, pa.string()),
                "id_s": pa.array(out_id, pa.string()),
            }
        )

    refined = ds.map_batches(_refine, batch_format="pyarrow")
    with scoped_hash_shuffle(refined.context):
        cut_tbl = (
            refined.repartition(nparts, keys=["g"])
            .map_batches(
                _cuts,
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
            .materialize()
        )
    cut_tbl, _ = _strip_block_sentinels(
        cut_tbl, nparts, "token_budget_sample[cuts]"
    )
    cut_rows = cut_tbl.take_all()
    cuts = {
        r["g"]: (r["h"].encode(), r["id_s"]) for r in cut_rows
    }
    if len(cuts) != len(cut_rows):
        raise RuntimeError(
            "token_budget_sample: duplicate group in the cut table — "
            "one-block-per-partition invariant violated"
        )
    cuts_ref = ray.put(cuts)

    # pass 3: keep earlier buckets whole; cut inside the boundary one
    def _filter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        bm = ray.get(bmap_ref)
        cm = ray.get(cuts_ref)
        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()],
            dtype=object,
        )
        hits = [u for u in set(g.tolist()) if u in bm]
        if not hits:
            return t
        idx = np.flatnonzero(np.isin(g, np.array(hits, dtype=object)))
        ids = t.column(id_col).to_pylist()
        sub_ids = [ids[i] for i in idx]
        h = _hex16(sub_ids, seed)
        b = _bucket_of(h)
        g_sub = g[idx]
        keep = np.ones(t.num_rows, dtype=bool)
        keep_sub = np.zeros(len(idx), dtype=bool)
        for u in hits:
            b_star, _ = bm[u]
            thr_h, thr_id = cm.get(u, (b"", ""))
            mrows = g_sub == u
            keep_sub[mrows] = b[mrows] < b_star
            at = mrows & (b == np.bytes_(b_star))
            if at.any():
                below = h < thr_h
                eq = h == np.bytes_(thr_h)
                keep_sub[at] = below[at]
                for j in np.flatnonzero(at & eq):
                    keep_sub[j] = str(sub_ids[j]) <= thr_id
        keep[idx] = keep_sub
        return t.filter(pa.array(keep))

    return ds.map_batches(_filter, batch_format="pyarrow")


def group_kept_tokens(
    ds: Dataset, group_col: str, token_col: str
) -> Dataset:
    """Narrow ``(group_key, cnt)`` kept-token-sum partials over ``ds``
    (float64 sums, str-normalized groups, one row per distinct group
    per block) — what a cross-run token-budget commit stores. PARTIAL
    by design, like :func:`group_kept_counts`."""

    def _p(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "group_key": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.float64()),
                }
            )
        import pyarrow.compute as pc

        g = np.array(
            [str(k) for k in t.column(group_col).to_pylist()],
            dtype=object,
        )
        tok = pc.fill_null(
            t.column(token_col).cast(pa.float64()), 0.0
        ).to_numpy(zero_copy_only=False)
        u, inv = np.unique(g, return_inverse=True)
        sums = np.bincount(inv, weights=tok, minlength=len(u))
        return pa.table(
            {
                "group_key": pa.array(u, pa.string()),
                "cnt": pa.array(sums, pa.float64()),
            }
        )

    return ds.map_batches(_p, batch_format="pyarrow")
