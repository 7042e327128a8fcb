"""Single-pass column profiling (per-column statistics) over a Dataset.

The data-engineering primitive a 100-TB ingest needs before any
pipeline decision: row/null counts, distinct-count estimates, min/max,
means and string lengths for every column — computed in ONE streaming
pass with fixed-size mergeable partials (no reference counterpart;
beyond-reference operator family, SURVEY.md §2.12).

Scale design: per (block, column) the partial row is fixed-size —
counts, min/max carried as canonical strings next to the column's
dtype (the driver combine re-compares numerically for numeric dtypes),
integer-exact value/length sums, and a 4-KiB HyperLogLog register
blob (functions/sketches.py — register-max merge is order-independent,
so the estimate is identical under any blocking). The driver merge
handles #columns × #blocks tiny rows; document payloads never shuffle
and nothing corpus-sized materializes.

Determinism contract: every emitted statistic is blocking-invariant —
counts and length sums are integers, ``mean`` is only computed for
INTEGER columns (exact int sums; float columns would expose float
summation order) and rounded at the end, and the HLL merge is a
register max. That makes a sequential same-kernel pass an exact
oracle (the ``approx_distinct_texts`` precedent).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from .sketches import HyperLogLog, LogHistogramQuantiles

_PARTIAL_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("dtype", pa.string()),
        ("n", pa.int64()),
        ("nulls", pa.int64()),
        ("sketch", pa.binary()),
        ("min_repr", pa.string()),
        ("max_repr", pa.string()),
        ("int_sum", pa.string()),  # decimal string: exact bigints
        ("len_sum", pa.int64()),
        ("len_n", pa.int64()),
        ("qsketch", pa.binary()),
    ]
)


def _is_numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def _hll_bytes(col: "pa.ChunkedArray", typ: pa.DataType):
    """Canonical byte views of non-null values for the distinct
    sketch: strings/binary as their bytes, ints via the sketches
    module's 9-byte encoding, floats as IEEE doubles, everything else
    through ``str()`` (lists/structs — distinctness of the repr)."""
    vals = col.to_pylist()
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return [v.encode() for v in vals if v is not None]
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        return [bytes(v) for v in vals if v is not None]
    if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
        return [
            int(v).to_bytes(9, "little", signed=True)
            for v in vals
            if v is not None
        ]
    if pa.types.is_floating(typ):
        return [
            np.float64(v).tobytes() for v in vals if v is not None
        ]
    return [str(v).encode() for v in vals if v is not None]


def _partials(columns: List[str], p: int):
    def _p(t: pa.Table) -> pa.Table:
        out = {name: [] for name in _PARTIAL_SCHEMA.names}
        for c in columns:
            col = t.column(c)
            typ = col.type
            n = len(col)
            nulls = col.null_count
            h = HyperLogLog(p)
            h.update(_hll_bytes(col, typ))
            mn = mx = None
            try:
                if n > nulls:
                    mm = pc.min_max(col)
                    mn = str(mm["min"].as_py())
                    mx = str(mm["max"].as_py())
            except pa.lib.ArrowNotImplementedError:
                pass  # unorderable type (list/struct): no min/max
            int_sum = None
            if pa.types.is_integer(typ) and n > nulls:
                # python-int sum: exact for any bigint total
                int_sum = str(
                    sum(v for v in col.to_pylist() if v is not None)
                )
            len_sum = len_n = 0
            if pa.types.is_string(typ) or pa.types.is_large_string(
                typ
            ) or pa.types.is_binary(typ) or pa.types.is_large_binary(
                typ
            ):
                if n > nulls:
                    lens = pc.binary_length(col)
                    len_sum = int(pc.sum(lens).as_py() or 0)
                    len_n = n - nulls
            qsketch = None
            if _is_numeric(typ) and n > nulls:
                q = LogHistogramQuantiles()
                # unsafe cast: a safe one raises on integers above
                # 2**53, and the sketch bins are far coarser than the
                # rounding
                vals = pc.fill_null(
                    col.cast(pa.float64(), safe=False), float("nan")
                ).to_numpy(zero_copy_only=False)
                q.add_many(vals)  # NaN (nulls) dropped by the sketch
                qsketch = q.to_bytes()
            out["column"].append(c)
            out["dtype"].append(str(typ))
            out["n"].append(n)
            out["nulls"].append(nulls)
            out["sketch"].append(h.to_bytes())
            out["min_repr"].append(mn)
            out["max_repr"].append(mx)
            out["int_sum"].append(int_sum)
            out["len_sum"].append(len_sum)
            out["len_n"].append(len_n)
            out["qsketch"].append(qsketch)
        return pa.table(out, schema=_PARTIAL_SCHEMA)

    return _p


def _better(cur, cand, dtype: str, want_min: bool):
    """Combine two canonical min/max reprs, numerically for numeric
    dtypes (string compare would rank '10' < '9'). Integer reprs go
    through ``int()``: ``float()`` collapses int64 values above 2**53,
    and the tie would keep whichever block merged first."""
    if cand is None:
        return cur
    if cur is None:
        return cand
    if dtype.startswith(("int", "uint")):
        a, b = int(cur), int(cand)
    elif dtype.startswith(("float", "double", "halffloat")):
        a, b = float(cur), float(cand)
    else:
        a, b = cur, cand
    if want_min:
        return cur if a <= b else cand
    return cur if a >= b else cand


def profile_table(
    ds: Dataset,
    columns: "Optional[List[str]]" = None,
    hll_p: int = 12,
) -> pa.Table:
    """Profile ``columns`` (default: every column) of ``ds`` in one
    streaming pass. Returns one row per column: ``column, dtype, n,
    nulls, approx_distinct, min_repr, max_repr, mean, avg_len`` —
    ``mean`` only for integer columns (exact), ``avg_len`` only for
    string/binary, both rounded to 6 decimals; ``min_repr``/``max_repr``
    are canonical ``str()`` forms (null for all-null or unorderable
    columns)."""
    schema = ds.schema()
    names = list(schema.names)
    if columns is None:
        columns = names
    missing = [c for c in columns if c not in names]
    if missing:
        raise ValueError(
            f"profile_table: column(s) {missing} not in schema "
            f"{names}"
        )
    if not 4 <= hll_p <= 18:
        raise ValueError("profile_table: hll_p must be in [4, 18]")

    parts = ds.map_batches(_partials(columns, hll_p), batch_format="pyarrow")
    agg = _new_agg(columns, hll_p)
    for b in parts.iter_batches(batch_size=4096, batch_format="pyarrow"):
        _merge_partials(agg, b)
    return _finalize(agg, columns)


def profile_arrow_table(
    t: pa.Table,
    columns: "Optional[List[str]]" = None,
    hll_p: int = 12,
) -> pa.Table:
    """Sequential single-batch reference implementation — the exact
    oracle for :func:`profile_table` (every statistic is
    blocking-invariant by the determinism contract above). Used by
    the driver-gate oracle writer and the tests."""
    if columns is None:
        columns = list(t.schema.names)
    agg = _new_agg(columns, hll_p)
    _merge_partials(agg, _partials(columns, hll_p)(t))
    return _finalize(agg, columns)


def _new_agg(columns: List[str], hll_p: int) -> dict:
    return {
        c: dict(
            n=0, nulls=0, sketch=HyperLogLog(hll_p), mn=None, mx=None,
            int_sum=0, has_int=False, len_sum=0, len_n=0, dtype=None,
            qsketch=None,
        )
        for c in columns
    }


def _merge_partials(agg: dict, b: pa.Table) -> None:
    for row in b.to_pylist():
        a = agg[row["column"]]
        a["dtype"] = row["dtype"]
        a["n"] += row["n"]
        a["nulls"] += row["nulls"]
        a["sketch"] = a["sketch"].merge(
            HyperLogLog.from_bytes(row["sketch"])
        )
        a["mn"] = _better(a["mn"], row["min_repr"], row["dtype"], True)
        a["mx"] = _better(a["mx"], row["max_repr"], row["dtype"], False)
        if row["int_sum"] is not None:
            a["int_sum"] += int(row["int_sum"])
            a["has_int"] = True
        a["len_sum"] += row["len_sum"]
        a["len_n"] += row["len_n"]
        if row["qsketch"] is not None:
            q = LogHistogramQuantiles.from_bytes(row["qsketch"])
            a["qsketch"] = (
                q if a["qsketch"] is None else a["qsketch"].merge(q)
            )


def _finalize(agg: dict, columns: List[str]) -> pa.Table:
    rows = {
        "column": [], "dtype": [], "n": [], "nulls": [],
        "approx_distinct": [], "min_repr": [], "max_repr": [],
        "mean": [], "avg_len": [], "p50": [], "p90": [], "p99": [],
    }
    for c in columns:
        a = agg[c]
        non_null = a["n"] - a["nulls"]
        rows["column"].append(c)
        rows["dtype"].append(a["dtype"] or "unknown")
        rows["n"].append(a["n"])
        rows["nulls"].append(a["nulls"])
        rows["approx_distinct"].append(
            round(a["sketch"].estimate(), 1) if non_null else 0.0
        )
        rows["min_repr"].append(a["mn"])
        rows["max_repr"].append(a["mx"])
        rows["mean"].append(
            round(a["int_sum"] / non_null, 6)
            if a["has_int"] and non_null
            else None
        )
        rows["avg_len"].append(
            round(a["len_sum"] / a["len_n"], 6) if a["len_n"] else None
        )
        if a["qsketch"] is not None and a["qsketch"].total:
            p50, p90, p99 = a["qsketch"].quantiles([0.5, 0.9, 0.99])
            rows["p50"].append(round(float(p50), 6))
            rows["p90"].append(round(float(p90), 6))
            rows["p99"].append(round(float(p99), 6))
        else:
            rows["p50"].append(None)
            rows["p90"].append(None)
            rows["p99"].append(None)
    return pa.table(
        {
            "column": pa.array(rows["column"], pa.string()),
            "dtype": pa.array(rows["dtype"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "nulls": pa.array(rows["nulls"], pa.int64()),
            "approx_distinct": pa.array(
                rows["approx_distinct"], pa.float64()
            ),
            "min_repr": pa.array(rows["min_repr"], pa.string()),
            "max_repr": pa.array(rows["max_repr"], pa.string()),
            "mean": pa.array(rows["mean"], pa.float64()),
            "avg_len": pa.array(rows["avg_len"], pa.float64()),
            "p50": pa.array(rows["p50"], pa.float64()),
            "p90": pa.array(rows["p90"], pa.float64()),
            "p99": pa.array(rows["p99"], pa.float64()),
        }
    )
