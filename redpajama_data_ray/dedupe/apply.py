"""Size-adaptive delivery of membership filters to the full corpus.

Every dedup variant ends the same way: a (possibly huge) set of keys or
ids must be subtracted from — or intersected with — the full dataset.
:func:`filter_members` is the one delivery: given the member set as a
materialized Dataset it counts it and picks one of the two scale
regimes itself, by ``DEFAULT_MASK_BROADCAST_LIMIT`` (given an array or
a ``broadcast_sorted`` ref it always masks):

- **broadcast mask** (set fits one object-store object): the values are
  sorted ONCE driver-side, ``ray.put`` once, and each batch is masked
  with a vectorized ``np.searchsorted`` membership probe — no per-row
  Python, no per-batch hash-table rebuild (``pc.is_in`` re-hashes the
  value set on every kernel invocation, which at 10^6 values × 10^4
  batches dominates; binary search against a shared sorted array is
  O(batch × log n) with zero per-batch setup).
- **anti/semi join** (set too large to broadcast): a Dataset join. Ray
  2.49's per-partition join kernel (Acero) rejects nested *payload*
  columns ("list<binary> is not supported in join non-key field"), so
  :func:`nested_types` + :func:`pack_nested` / :func:`unpack_nested`
  round-trip nested columns through pickled binary around the join,
  and uint64 keys join on their signed bijection. Callers should
  prefer joining a NARROW projection and delivering the result through
  :func:`filter_members`; the full-width join runs only when the
  surviving/dropped set itself is too large to broadcast.

String/binary keys are probed as fixed-width ``S``-dtype arrays
(memcmp-based searchsorted); values longer than the widest member are
rejected by a vectorized length guard before the truncating cast, and
nulls never match (the legacy per-row ``in set`` semantics).
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

# one sorted uint64 array above this many entries stops being a
# reasonable broadcast object (~8 B/entry -> ~400 MB): filter_members
# joins a larger member Dataset instead (read at call time)
DEFAULT_MASK_BROADCAST_LIMIT = 50_000_000

# fixed-width S-dtype member arrays are n x max_len bytes; above this
# the probe switches to 16-byte blake2b digests of the values instead
# (raw-content keys: one 900 KB member would otherwise blow the matrix
# up to n x 900 KB — observed as a 385 GiB allocation at sf1). The
# digest probe is exact up to blake2b-128 collisions (~n^2/2^129 —
# 1.5e-15 at 10^12 keys; strictly stronger than the reference's Bloom
# mode, whose ~1% false-positive rate is a design feature:
# /root/reference/app/src/bloomfilter.py:140-143).
FIXED_WIDTH_MASK_LIMIT = 1 << 28  # 256 MB


class DigestKeys:
    """Marker wrapper for a member array of 16-byte blake2b digests:
    tells :func:`membership_mask` to digest the probe column too."""

    __slots__ = ("sorted_digests",)

    def __init__(self, sorted_digests: np.ndarray):
        self.sorted_digests = sorted_digests


def _string_offsets(arr: "pa.Array"):
    """(offsets int array, data memoryview) straight from a
    string/binary Array's buffers — shared by the fixed-width matrix
    and the digest probe so the offset/layout handling lives once."""
    n = len(arr)
    off_dtype = (
        np.int64
        if pa.types.is_large_string(arr.type)
        or pa.types.is_large_binary(arr.type)
        else np.int32
    )
    offs = np.frombuffer(arr.buffers()[1], off_dtype)[
        arr.offset : arr.offset + n + 1
    ]
    data_buf = arr.buffers()[2]
    mv = memoryview(data_buf) if data_buf is not None else memoryview(b"")
    return offs, mv


def _digest_arrow(arr: "pa.Array") -> np.ndarray:
    """S16 blake2b digests of a string/binary Arrow array, hashing
    zero-copy memoryview slices of the single data buffer. Null slots
    digest as b"" == the empty string; PROBE nulls are masked out by
    the caller's validity mask, and MEMBER nulls must be dropped
    before calling (as_key_array does) so a null member can never
    admit empty-string probes."""
    from hashlib import blake2b

    n = len(arr)
    out = np.empty(n, dtype="S16")
    if n == 0:
        return out
    offs, mv = _string_offsets(arr)
    o = offs.tolist()
    for i in range(n):
        out[i] = blake2b(mv[o[i] : o[i + 1]], digest_size=16).digest()
    return out


def _digest_values(vals) -> np.ndarray:
    """S16 blake2b digests of an iterable of str/bytes (str -> UTF-8,
    matching the S-dtype path's encode semantics). Nulls are rejected
    like the fixed-width path rejects them (a null member is
    meaningless — nulls never match)."""
    from hashlib import blake2b

    out = np.empty(len(vals), dtype="S16")
    for i, v in enumerate(vals):
        if v is None:
            raise TypeError("membership values must not contain nulls")
        if isinstance(v, str):
            v = v.encode()
        out[i] = blake2b(v, digest_size=16).digest()
    return out


# ------------------------------------------------------------------
# broadcast membership masks
# ------------------------------------------------------------------

# numpy S-dtype treats trailing NUL bytes as padding (b"foo\x00"
# reads back as b"foo"), so raw fixed-width keys would alias values
# that differ only in trailing NULs — a SILENT false duplicate drop.
# Every S-bound key therefore gets a 0x01 terminator appended (on
# both the member and the probe side), which makes the padding
# unambiguous: b"foo" -> b"foo\x01", b"foo\x00" -> b"foo\x00\x01".
_KEY_SENTINEL = b"\x01"


class NormalizedKeys(np.ndarray):
    """Marker subclass for ``as_key_array``'s sentinel-terminated S
    output: normalization must be IDEMPOTENT (``filter_members`` /
    ``broadcast_sorted`` re-normalize whatever they receive, and a
    second sentinel would silently unmatch every key)."""


def as_key_array(
    values: "Iterable | np.ndarray",
) -> "np.ndarray | DigestKeys":
    """Normalize a driver-side value collection (set / list / numpy /
    pyarrow) to the probe representation: unsigned ints to uint64,
    strings/bytes to sentinel-terminated fixed-width ``S`` — or, when
    the keys are wide enough that blake2b-16 digests are smaller than
    the fixed-width matrix AND that matrix would exceed
    ``FIXED_WIDTH_MASK_LIMIT`` (one huge member widens EVERY slot),
    to :class:`DigestKeys`."""
    if isinstance(values, (NormalizedKeys, DigestKeys)):
        return values  # already normalized — MUST NOT re-sentinel
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        arr0 = (
            values.combine_chunks()
            if isinstance(values, pa.ChunkedArray)
            else values
        )
        if arr0.null_count:
            # null members never match: digesting them as b"" would
            # falsely admit empty-string probes
            arr0 = arr0.drop_null()
        if pa.types.is_string(arr0.type) or pa.types.is_binary(
            arr0.type
        ) or pa.types.is_large_string(arr0.type) or pa.types.is_large_binary(
            arr0.type
        ):
            if len(arr0):
                max_len = int(pc.max(pc.binary_length(arr0)).as_py() or 0)
                if max_len > 16 and (
                    len(arr0) * (max_len + 1) > FIXED_WIDTH_MASK_LIMIT
                ):
                    # digests only pay when they SHRINK the slots
                    # (max_len > 16)
                    return DigestKeys(_digest_arrow(arr0))
            values = arr0.to_pylist()
        elif pa.types.is_integer(arr0.type):
            # zero-copy-ish numeric path: to_pylist would build tens
            # of millions of Python ints just to rebuild this array
            return arr0.to_numpy(zero_copy_only=False).astype(
                np.uint64, copy=False
            )
        else:
            values = arr0.to_pylist()
    if isinstance(values, np.ndarray):
        arr = values
    else:
        vals = list(values)
        if not vals:
            return np.empty(0, np.uint64)
        probe = vals[0]
        if isinstance(probe, (str, bytes)):
            encoded = [
                v.encode() if isinstance(v, str) else v for v in vals
            ]
            max_len = max(len(v) for v in encoded)
            if max_len > 16 and (
                len(vals) * (max_len + 1) > FIXED_WIDTH_MASK_LIMIT
            ):
                return DigestKeys(_digest_values(encoded))
            return np.asarray(
                [v + _KEY_SENTINEL for v in encoded], dtype=np.bytes_
            ).view(NormalizedKeys)
        else:
            arr = np.asarray(vals, np.uint64)
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.uint64, copy=False)
    elif arr.dtype.kind in "US":
        # a caller-supplied string/bytes numpy array has not been
        # sentinel-terminated yet (and S-dtype construction already
        # stripped any trailing NULs — nothing left to preserve)
        arr = np.asarray(
            [
                (v.encode() if isinstance(v, str) else v)
                + _KEY_SENTINEL
                for v in arr.tolist()
            ],
            dtype=np.bytes_,
        ).view(NormalizedKeys)
    else:
        raise TypeError(f"unsupported membership dtype {arr.dtype}")
    return arr


def broadcast_sorted(values) -> "ray.ObjectRef":
    """Sort once, put once. Workers binary-search the shared array."""
    keys = (
        values
        if isinstance(values, DigestKeys)
        else as_key_array(values)
    )
    if isinstance(keys, DigestKeys):
        return ray.put(DigestKeys(np.sort(keys.sorted_digests)))
    return ray.put(np.sort(keys))


def _binary_matrix(arr: "pa.Array", width: int):
    """string/binary Array -> (S{width} numpy array, lengths) straight
    from the Arrow buffers (no to_pylist; ~14x on 65k sha-hex rows).
    Each value gets the 0x01 sentinel at its true length (member keys
    carry the same terminator), so trailing-NUL keys cannot alias
    shorter keys through S-dtype padding."""
    n = len(arr)
    offs, mv = _string_offsets(arr)
    data = np.frombuffer(mv, np.uint8) if len(mv) else np.empty(0, np.uint8)
    lengths = np.diff(offs)
    clipped = np.minimum(lengths, width)
    out = np.zeros((n, width), np.uint8)
    pos = offs[:-1, None] + np.arange(width)[None, :]
    mask = np.arange(width)[None, :] < clipped[:, None]
    out[mask] = data[pos[mask]]
    fits = lengths < width
    out[fits, lengths[fits]] = _KEY_SENTINEL[0]
    return out.view(f"S{width}")[:, 0], lengths


def _column_probe(col: "pa.ChunkedArray", sorted_vals: np.ndarray):
    """(probe_array, valid_mask) for one batch column, matching the
    sorted member array's dtype."""
    if sorted_vals.dtype.kind == "S":
        width = sorted_vals.dtype.itemsize
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        arr = (
            col.combine_chunks()
            if isinstance(col, pa.ChunkedArray)
            else col
        )
        probe, lengths = _binary_matrix(arr, width)
        # member slots are (key + sentinel), so a probe longer than
        # width-1 cannot be a member; the truncating copy above would
        # otherwise alias it onto one
        valid = valid & (lengths <= width - 1)
        return probe, valid
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    # fill nulls in Arrow first: to_numpy on a nullable int column
    # degrades to float64, which corrupts ids above 2^53
    arr = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
    probe = arr.astype(np.uint64, copy=False)
    return probe, valid


def membership_mask(
    col: "pa.ChunkedArray", sorted_vals: "np.ndarray | DigestKeys"
) -> np.ndarray:
    """Vectorized ``value in sorted_vals`` per element (nulls False)."""
    if isinstance(sorted_vals, DigestKeys):
        sv = sorted_vals.sorted_digests
        if len(sv) == 0:
            return np.zeros(len(col), bool)
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        arr = (
            col.combine_chunks()
            if isinstance(col, pa.ChunkedArray)
            else col
        )
        probe = _digest_arrow(arr)
        idx = np.searchsorted(sv, probe)
        idx_c = np.minimum(idx, len(sv) - 1)
        return (sv[idx_c] == probe) & (idx < len(sv)) & valid
    n = len(sorted_vals)
    if n == 0:
        return np.zeros(len(col), bool)
    probe, valid = _column_probe(col, sorted_vals)
    idx = np.searchsorted(sorted_vals, probe)
    idx_c = np.minimum(idx, n - 1)
    return (sorted_vals[idx_c] == probe) & (idx < n) & valid


def filter_members(
    ds: Dataset, column: str, members, keep_members: bool
) -> Dataset:
    """Keep (or drop) the rows whose ``column`` value is in ``members``.

    ``members`` may be a set/list/numpy array (sorted and put here), an
    existing ``broadcast_sorted`` ref, or a materialized Dataset whose
    one column is also named ``column``. A Dataset is counted here: at
    most ``DEFAULT_MASK_BROADCAST_LIMIT`` members are collected and
    broadcast like an array, more are joined (:func:`_join_members`)."""
    if isinstance(members, Dataset):
        n = members.count()
        if n == 0:
            return ds.limit(0) if keep_members else ds
        if n > DEFAULT_MASK_BROADCAST_LIMIT:
            return _join_members(ds, column, members, keep_members)
        members = collect_column(members, column)
    ref = (
        members
        if isinstance(members, ray.ObjectRef)
        else broadcast_sorted(members)
    )

    def _filter(t: pa.Table) -> pa.Table:
        sv = ray.get(ref)
        mask = membership_mask(t.column(column), sv)
        if not keep_members:
            mask = ~mask
        return t.filter(pa.array(mask))

    return ds.map_batches(_filter, batch_format="pyarrow")


def _join_members(
    ds: Dataset, column: str, members: Dataset, keep_members: bool
) -> Dataset:
    """The member set too large to broadcast: a ``left_anti`` join
    (``left_semi`` when keeping members) in the object store. Null keys
    never match. uint64 keys join on the order-preserving signed
    bijection, because Ray's hash shuffle pickles values above
    int64-max into object columns that cannot join; nested payload
    columns are packed around Acero."""
    from .combine import auto_partitions, tune_shuffle_context
    from .components import _to_signed, _to_unsigned

    tune_shuffle_context()
    nparts = auto_partitions()
    schema = ds.schema().base_schema
    signed = pa.types.is_uint64(schema.field(column).type)
    nested = nested_types(schema, exclude=(column,))
    pack, unpack = pack_nested(nested), unpack_nested(nested)

    def sign(t: pa.Table) -> pa.Table:
        col = t.column(column)
        if not pa.types.is_uint64(col.type):
            return t
        i = t.schema.get_field_index(column)
        return t.set_column(i, column, _to_signed(col))

    def restore(t: pa.Table) -> pa.Table:
        if signed:
            i = t.schema.get_field_index(column)
            t = t.set_column(i, column, _to_unsigned(t.column(column)))
        return unpack(t)

    # repartition: Ray 2.49's hash-shuffle join rejects inputs whose
    # empty partitions lost their schema
    right = members.repartition(nparts).map_batches(
        sign, batch_format="pyarrow"
    )
    left = ds.map_batches(lambda t: pack(sign(t)), batch_format="pyarrow")
    return left.join(
        right,
        join_type="left_semi" if keep_members else "left_anti",
        num_partitions=nparts,
        on=(column,),
    ).map_batches(restore, batch_format="pyarrow")


def collect_column(ds: Dataset, column: str) -> np.ndarray:
    """Collect one narrow column to a driver numpy array (callers
    gate on a measured count first)."""
    chunks = [
        b.column(column)
        for b in ds.select_columns([column]).iter_batches(
            batch_size=65536, batch_format="pyarrow"
        )
    ]
    if not chunks:
        return np.empty(0, np.uint64)
    return as_key_array(pa.chunked_array(chunks).combine_chunks())


# ------------------------------------------------------------------
# nested-column round-trip for the join fallback
# ------------------------------------------------------------------

def nested_types(
    schema: pa.Schema, exclude: "Iterable[str]" = ()
) -> Dict[str, pa.DataType]:
    """Nested (list/struct/map) columns that Acero cannot carry as join
    payload, minus the join key columns."""
    ex = set(exclude)
    return {
        f.name: f.type
        for f in schema
        if pa.types.is_nested(f.type) and f.name not in ex
    }


def pack_nested(nested: Dict[str, "pa.DataType"]):
    import pickle

    def pack(t: pa.Table) -> pa.Table:
        if not nested:
            return t
        for name in nested:
            idx = t.schema.get_field_index(name)
            col = pa.array(
                [pickle.dumps(v) for v in t.column(name).to_pylist()],
                pa.binary(),
            )
            t = t.set_column(idx, name, col)
        return t

    return pack


def unpack_nested(nested: Dict[str, "pa.DataType"]):
    import pickle

    def unpack(t: pa.Table) -> pa.Table:
        for name, typ in nested.items():
            idx = t.schema.get_field_index(name)
            vals = [pickle.loads(v) for v in t.column(name).to_pylist()]
            t = t.set_column(idx, name, pa.array(vals, typ))
        return t

    return unpack
