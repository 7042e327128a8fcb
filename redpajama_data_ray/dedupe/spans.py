"""Duplicated-substring span detection (ExactSubstr-style dedup).

"Deduplicating Training Data Makes Language Models Better" (Lee et
al., 2022) removes verbatim substrings of >= ~50 tokens repeated
anywhere in the corpus; the released tool builds a corpus-wide suffix
array, which is a poor fit for streaming distributed execution. This
module gets the same detection guarantee from content-defined
fingerprinting:

- every character position's ``k``-gram gets a polynomial rolling hash
  (computed over UTF-32 code points, so spans are character offsets);
- with ``winnow_w > 0``, only per-window minima are *selected*
  (standard winnowing, Schleimer et al. 2003): any substring of length
  >= ``k + winnow_w - 1`` duplicated anywhere — across documents or
  within one — shares at least one selected fingerprint, while only
  ~``2/(winnow_w+1)`` of positions are counted;
- selected fingerprints are counted corpus-wide (per-batch
  ``np.unique`` partials through the root/shuffle-adaptive
  :func:`~.combine.combine_counts`), and positions whose fingerprint
  count reaches 2 mark a ``[i, i+k)`` span; overlapping spans merge.

``mode="annotate"`` appends the merged spans + duplicated-character
fraction; ``mode="excise"`` rewrites the text with the spans cut out.
DELIBERATE DEVIATION from the paper: every occurrence of a duplicated
substring is marked/excised (the paper keeps one copy — choosing a
winner occurrence needs a global occurrence order, which an unordered
distributed stream does not have; callers wanting keep-one semantics
should run doc-level exact/fuzzy dedup first, which leaves intra-corpus
boilerplate as this operator's target).

Delivery is size-adaptive like ``dedupe/lines.py``: the duplicated
fingerprint set broadcasts (sorted once, searchsorted per batch) while
it fits one object-store object; above the limit only the selected
``(id, pos)`` pairs whose fingerprint is duplicated are shuffled
(semi-join + packed positions + ``left_outer``), never the text.
"""

from __future__ import annotations

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
from .combine import (
    auto_partitions,
    combine_counts,
    dup_keys_from_partials,
    tune_shuffle_context,
)

_TOP_BIT = np.uint64(1 << 63)
# odd multiplier -> invertible mod 2^64 (same FNV prime family as the
# n-gram hasher in dedupe/decontaminate.py)
_P = np.uint64(1099511628211)


def _inv_u64(p: np.uint64) -> np.uint64:
    """Multiplicative inverse of an odd p mod 2^64 (Newton lifting;
    python ints — numpy scalar uint64 overflow RuntimeWarns)."""
    p = int(p)
    x = p  # correct mod 2^3
    for _ in range(5):
        x = (x * (2 - p * x)) % (1 << 64)
    return np.uint64(x)


_PINV = _inv_u64(_P)


def rolling_hashes(text: str, k: int) -> np.ndarray:
    """Signed-int64 polynomial hash of every ``k``-codepoint window.

    ``h(i) = sum_t cp[i+t] * P^(k-1-t)`` mod 2^64, computed for all
    positions at once from one prefix sum: with S[j] = sum_{t<j}
    cp[t]*Pinv^t, ``h(i) = (S[i+k]-S[i]) * P^(i+k-1)`` — every step is
    a vectorized uint64 op (wraparound is the modulus)."""
    cp = np.frombuffer(text.encode("utf-32-le"), np.uint32).astype(
        np.uint64
    )
    n = len(cp)
    if n < k:
        return np.empty(0, np.int64)
    pinv_pow = np.full(n, _PINV, np.uint64)
    pinv_pow[0] = 1
    pinv_pow = np.multiply.accumulate(pinv_pow)
    s = np.zeros(n + 1, np.uint64)
    np.cumsum(cp * pinv_pow, out=s[1:])
    p_pow = np.full(n, _P, np.uint64)
    p_pow[0] = 1
    p_pow = np.multiply.accumulate(p_pow)
    w = n - k + 1
    h = (s[k:] - s[:w]) * p_pow[k - 1 :]
    return (h ^ _TOP_BIT).view(np.int64)


def winnow_positions(h: np.ndarray, w: int) -> np.ndarray:
    """Positions selected by winnowing: the index of the minimum hash
    in every window of ``w`` consecutive hashes (rightmost on ties,
    deduplicated). ``w <= 1`` selects everything."""
    if w <= 1 or len(h) <= w:
        return np.arange(len(h), dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(h, w)
    # rightmost minimum: argmin on the reversed window
    rev = win[:, ::-1].argmin(axis=1)
    idx = np.arange(len(win), dtype=np.int64) + (w - 1 - rev)
    return np.unique(idx)


def _doc_fingerprints(text: "str | None", k: int, w: int):
    """(selected positions, their signed hashes) for one document."""
    h = rolling_hashes(text or "", k)
    if not len(h):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pos = winnow_positions(h, w)
    return pos, h[pos]


def merge_spans(starts: np.ndarray, k: int):
    """Merge overlapping/adjacent ``[s, s+k)`` spans over SORTED unique
    starts; returns (start, end) int64 arrays."""
    if not len(starts):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    gaps = np.flatnonzero(np.diff(starts) > k)
    first = np.concatenate(([0], gaps + 1))
    last = np.concatenate((gaps, [len(starts) - 1]))
    return starts[first], starts[last] + k


def fingerprint_partials(
    ds: Dataset, text_col: str = "text", k: int = 50, winnow_w: int = 8
) -> Dataset:
    """Per-block ``(fp, cnt)`` partial counts over selected k-gram
    fingerprints (``np.unique`` in-batch combiner) — the fixed-width
    rows every downstream count path consumes."""

    def partial(t: pa.Table) -> pa.Table:
        chunks = [
            _doc_fingerprints(x, k, winnow_w)[1]
            for x in t.column(text_col).to_pylist()
        ]
        allh = (
            np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        )
        fp, cnt = np.unique(allh, return_counts=True)
        return pa.table(
            {
                "fp": pa.array(fp, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(partial, batch_format="pyarrow")


_SPAN_COLS = ("dup_spans", "n_dup_spans", "dup_char_frac")
_POS_PAYLOAD = "__dup_pos"


def _annotate_batch(t, text_col, k, dup_starts_per_doc, mode):
    """Append span columns (annotate) or cut the spans out (excise).
    ``dup_starts_per_doc`` is a list of sorted position arrays."""
    texts = t.column(text_col).to_pylist()
    spans_str, n_spans, fracs = [], [], []
    new_texts = []
    for txt, starts in zip(texts, dup_starts_per_doc):
        txt = txt or ""
        s, e = merge_spans(starts, k)
        e = np.minimum(e, len(txt))
        covered = int((e - s).sum())
        n = len(txt)
        if mode == "excise":
            if len(s):
                parts = []
                prev = 0
                for a, b in zip(s, e):
                    parts.append(txt[prev:a])
                    prev = b
                parts.append(txt[prev:])
                new_texts.append("".join(parts))
            else:
                new_texts.append(txt)
        spans_str.append(
            ";".join(f"{a}-{b}" for a, b in zip(s, e))
        )
        n_spans.append(len(s))
        fracs.append(covered / n if n else 0.0)
    if mode == "excise":
        idx = t.schema.get_field_index(text_col)
        t = t.set_column(idx, text_col, pa.array(new_texts, pa.string()))
    t = t.append_column("dup_spans", pa.array(spans_str, pa.string()))
    t = t.append_column("n_dup_spans", pa.array(n_spans, pa.int64()))
    return t.append_column(
        "dup_char_frac",
        pa.array(np.round(np.asarray(fracs, np.float64), 6)),
    )


def substring_dedup(
    ds: Dataset,
    text_col: str = "text",
    id_col: "str | None" = None,
    k: int = 50,
    winnow_w: int = 8,
    mode: str = "annotate",
    distributed: "bool | None" = None,
    broadcast_limit: int = DEFAULT_MASK_BROADCAST_LIMIT,
    num_partitions: "int | None" = None,
) -> Dataset:
    """Mark (``mode="annotate"``: ``dup_spans`` "s-e;..." string,
    ``n_dup_spans``, ``dup_char_frac``) or cut out (``mode="excise"``)
    every character span covered by a ``k``-gram whose fingerprint
    occurs at least twice corpus-wide. Detection guarantee: duplicated
    substrings of length >= ``k + winnow_w - 1``; ``winnow_w=0`` makes
    it exact at length >= ``k``."""
    dup = dup_keys_from_partials(
        fingerprint_partials(ds, text_col, k, winnow_w), key="fp"
    )
    return apply_dup_fingerprints(
        ds,
        dup,
        text_col=text_col,
        id_col=id_col,
        k=k,
        winnow_w=winnow_w,
        mode=mode,
        distributed=distributed,
        broadcast_limit=broadcast_limit,
        num_partitions=num_partitions,
    )


def apply_dup_fingerprints(
    ds: Dataset,
    dup: Dataset,
    text_col: str = "text",
    id_col: "str | None" = None,
    k: int = 50,
    winnow_w: int = 8,
    mode: str = "annotate",
    distributed: "bool | None" = None,
    broadcast_limit: int = DEFAULT_MASK_BROADCAST_LIMIT,
    num_partitions: "int | None" = None,
) -> Dataset:
    """Deliver a duplicated-fingerprint Dataset (column ``fp``) back to
    the corpus: re-fingerprint each document, mark the positions whose
    fingerprint is in ``dup``, and annotate/excise the merged spans —
    broadcast mask below ``broadcast_limit``, exploded-positions join
    above. Split out of :func:`substring_dedup` so the incremental
    cross-run variant (``state/incremental.py``) can feed summed
    counts through the same delivery."""
    if mode not in ("annotate", "excise"):
        raise ValueError(f"unknown mode {mode!r}")

    dup = dup.materialize()
    n_dup = dup.count()
    if n_dup == 0:
        # nothing duplicated: empty-span annotate / passthrough excise;
        # also guards forced distributed=True — an empty materialized
        # dup table loses its schema and would crash the semi-join
        distributed = False
    elif distributed is None:
        distributed = n_dup > broadcast_limit

    if not distributed:
        if n_dup:
            chunks = [
                b.column("fp").to_numpy(zero_copy_only=False)
                for b in dup.iter_batches(
                    batch_size=65536, batch_format="pyarrow"
                )
            ]
            sorted_fp = np.sort(np.concatenate(chunks))
        else:
            sorted_fp = np.empty(0, np.int64)
        ref = ray.put(sorted_fp)

        def annotate(t: pa.Table) -> pa.Table:
            sv = ray.get(ref)
            per_doc = []
            for x in t.column(text_col).to_pylist():
                pos, h = _doc_fingerprints(x, k, winnow_w)
                if len(sv) and len(h):
                    j = np.searchsorted(sv, h)
                    jc = np.minimum(j, len(sv) - 1)
                    hit = (sv[jc] == h) & (j < len(sv))
                    per_doc.append(pos[hit])
                else:
                    per_doc.append(np.empty(0, np.int64))
            return _annotate_batch(t, text_col, k, per_doc, mode)

        return ds.map_batches(annotate, batch_format="pyarrow")

    # ---- join delivery: shuffle only duplicated (id, pos) pairs.
    # Wide stages run on a signed-int64 id (string ids sha1-hashed per
    # batch — the repo-wide id_int practice): ~4x fewer shuffle bytes
    # than path-string keys and numeric groupby/join kernels. The
    # 64-bit id-collision risk is the one already accepted for id_int
    # everywhere else in this engine.
    if id_col is None:
        raise ValueError(
            "distributed substring_dedup needs id_col (unique per row)"
        )
    tune_shuffle_context()
    if num_partitions is None:
        num_partitions = auto_partitions()

    _id_type = ds.schema().base_schema.field(id_col).type
    id_is_str = pa.types.is_string(_id_type) or pa.types.is_large_string(
        _id_type
    )
    _ID_H = "__id_h"

    def _id_hash_col(col: pa.ChunkedArray) -> pa.Array:
        if not id_is_str:
            arr = col.combine_chunks()
            if pa.types.is_unsigned_integer(arr.type):
                # safe cast raises ArrowInvalid on uint64 ids >= 2^63
                # (~half of all sha-derived id_int values); the
                # engine's standard top-bit bijection is injective
                # and both join sides map through THIS function
                from .components import _to_signed

                return _to_signed(pc.cast(arr, pa.uint64()))
            return pc.cast(arr, pa.int64())
        from .lines import hash_lines_signed

        vals = col.to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(vals, return_inverse=True)
        return pa.array(hash_lines_signed(uniq)[inv], pa.int64())

    def explode(t: pa.Table) -> pa.Table:
        # join delivery is keyed on id_col: a duplicated id merges two
        # docs' span positions into one payload (see lines.py — same
        # guard pair: nulls + in-batch repeats here, range check at
        # apply; np.unique on object arrays with None raises a bare
        # TypeError, so nulls check first)
        if t.column(id_col).null_count:
            raise ValueError(
                f"substring_dedup join delivery: {id_col!r} contains "
                "null values — every row needs a unique non-null id"
            )
        raw_ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if len(np.unique(raw_ids)) != len(raw_ids):
            raise ValueError(
                f"substring_dedup join delivery requires a UNIQUE id "
                f"column; {id_col!r} repeats within one batch — pass "
                "a per-row-unique key such as doc_id"
            )
        out_pos, out_fp, counts = [], [], []
        for x in t.column(text_col).to_pylist():
            pos, h = _doc_fingerprints(x, k, winnow_w)
            out_pos.append(pos)
            out_fp.append(h)
            counts.append(len(pos))
        ids = _id_hash_col(t.column(id_col)).take(
            pa.array(
                np.repeat(
                    np.arange(len(counts), dtype=np.int64),
                    np.asarray(counts, np.int64),
                )
            )
        )
        return pa.table(
            {
                _ID_H: ids,
                "__pos": pa.array(
                    np.concatenate(out_pos)
                    if out_pos
                    else np.empty(0, np.int64),
                    pa.int64(),
                ),
                "fp": pa.array(
                    np.concatenate(out_fp)
                    if out_fp
                    else np.empty(0, np.int64),
                    pa.int64(),
                ),
            }
        )

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow"
    )
    dup_keys = dup.select_columns(["fp"]).repartition(
        max(2, min(num_partitions, 8))
    )
    hits = exploded.join(
        dup_keys,
        join_type="left_semi",
        num_partitions=num_partitions,
        on=("fp",),
    )

    def pack_positions(g: pa.Table) -> pa.Table:
        pos = np.sort(g.column("__pos").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                _ID_H: g.column(_ID_H).slice(0, 1),
                _POS_PAYLOAD: pa.array(
                    [pos.astype(np.int64).tobytes()], pa.binary()
                ),
            }
        )

    packed = hits.groupby(_ID_H).map_groups(
        pack_positions, batch_format="pyarrow"
    ).repartition(max(2, min(num_partitions, 8)))

    def add_id_hash(t: pa.Table) -> pa.Table:
        return t.append_column(_ID_H, _id_hash_col(t.column(id_col)))

    ds = ds.map_batches(add_id_hash, batch_format="pyarrow")
    nested = nested_types(
        ds.schema().base_schema, exclude=(id_col, _ID_H)
    )
    if nested:
        ds = ds.map_batches(pack_nested(nested), batch_format="pyarrow")
    joined = ds.join(
        packed,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=(_ID_H,),
    )
    if nested:
        joined = joined.map_batches(
            unpack_nested(nested), batch_format="pyarrow"
        )

    def apply_spans(t: pa.Table) -> pa.Table:
        payload = t.column(_POS_PAYLOAD)
        t = t.drop_columns([_POS_PAYLOAD, _ID_H])
        per_doc = [
            np.frombuffer(blob, np.int64)
            if blob
            else np.empty(0, np.int64)
            for blob in payload.to_pylist()
        ]
        lens = pc.utf8_length(
            pc.fill_null(t.column(text_col), "")
        ).to_numpy(zero_copy_only=False)
        for d, pos in enumerate(per_doc):
            # pos is sorted by pack_positions; a k-gram start past
            # len-k means a payload merged across docs (duplicated id
            # or a 64-bit id-hash collision that slipped the guard)
            if pos.size and pos[-1] > lens[d] - k:
                raise ValueError(
                    f"span positions out of range for "
                    f"{id_col}={t.column(id_col)[d]!s}: id values "
                    "must be unique per row"
                )
        return _annotate_batch(t, text_col, k, per_doc, mode)

    return joined.map_batches(apply_spans, batch_format="pyarrow")
