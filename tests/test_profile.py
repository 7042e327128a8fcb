"""Single-pass column profiling (functions/profile.py): exact fields
vs pandas, blocking invariance (distributed == sequential reference),
HLL accuracy, dirty inputs, CLI surface."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from redpajama_data_ray.functions.profile import (
    profile_arrow_table,
    profile_table,
)


def _table(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    ints = rng.integers(-100, 100, n)
    ints_arr = pa.array(
        [None if i % 17 == 0 else int(v) for i, v in enumerate(ints)],
        pa.int64(),
    )
    strs = pa.array(
        [None if i % 23 == 0 else f"s{int(v) % 61}" for i, v in enumerate(ints)],
        pa.string(),
    )
    floats = pa.array(rng.normal(size=n), pa.float64())
    return pa.table({"i": ints_arr, "s": strs, "x": floats})


def test_profile_exact_fields_vs_pandas():
    t = _table()
    df = t.to_pandas()
    out = profile_arrow_table(t).to_pandas().set_index("column")
    assert out.loc["i", "n"] == len(df)
    assert out.loc["i", "nulls"] == int(df["i"].isna().sum())
    assert out.loc["i", "min_repr"] == str(int(df["i"].min()))
    assert out.loc["i", "max_repr"] == str(int(df["i"].max()))
    assert out.loc["i", "mean"] == round(float(df["i"].mean()), 6)
    assert out.loc["s", "nulls"] == int(df["s"].isna().sum())
    lens = df["s"].dropna().str.len()
    assert out.loc["s", "avg_len"] == round(float(lens.mean()), 6)
    # float columns: min/max reprs match, mean is int-only (null)
    assert float(out.loc["x", "min_repr"]) == pytest.approx(
        float(df["x"].min())
    )
    assert np.isnan(out.loc["x", "mean"])


def test_profile_blocking_invariance_and_hll_accuracy():
    t = _table(20_000, seed=1)
    seq = profile_arrow_table(t).to_pandas()
    for nb in (1, 13):
        dist = profile_table(
            rd.from_arrow(t).repartition(nb)
        ).to_pandas()
        assert dist.equals(seq)
    est = seq.set_index("column").loc["s", "approx_distinct"]
    assert abs(est - 61) / 61 < 0.1  # HLL p=12: ~1.6% expected error
    # numeric quantiles from the mergeable log-histogram: ints uniform
    # in [-100, 100) clamp negatives to the lowest bin, so p50 ~ 0-ish
    # lower edge and p90/p99 land near the true positive quantiles
    q = seq.set_index("column")
    assert q.loc["i", "p99"] == pytest.approx(98, rel=0.05)
    assert np.isnan(q.loc["s", "p50"])  # string column: no quantiles


def test_profile_bigint_min_max_order_invariant():
    """int64/uint64 values above 2**53 collapse under float(); the
    merged min/max must still be exact whichever block merges first."""
    from redpajama_data_ray.functions.profile import (
        _finalize,
        _merge_partials,
        _new_agg,
        _partials,
    )

    lo, hi = 2**60 + 1, 2**60 + 2  # float(lo) == float(hi)
    blocks = [
        pa.table({"i": pa.array([hi], pa.int64()),
                  "u": pa.array([2**63 + 2], pa.uint64())}),
        pa.table({"i": pa.array([lo], pa.int64()),
                  "u": pa.array([2**63 + 1], pa.uint64())}),
    ]
    parts = [_partials(["i", "u"], 12)(b) for b in blocks]
    results = []
    for order in (parts, parts[::-1]):
        agg = _new_agg(["i", "u"], 12)
        for part in order:
            _merge_partials(agg, part)
        results.append(
            _finalize(agg, ["i", "u"])
            .select(["column", "min_repr", "max_repr"])
            .to_pylist()
        )
    assert results[0] == results[1]
    assert results[0] == [
        {"column": "i", "min_repr": str(lo), "max_repr": str(hi)},
        {"column": "u", "min_repr": str(2**63 + 1),
         "max_repr": str(2**63 + 2)},
    ]


def test_profile_dirty_inputs():
    t = pa.table(
        {
            "all_null": pa.array([None, None], pa.string()),
            "lst": pa.array([[1], None], pa.list_(pa.int64())),
        }
    )
    out = profile_arrow_table(t).to_pandas().set_index("column")
    assert out.loc["all_null", "nulls"] == 2
    assert out.loc["all_null", "approx_distinct"] == 0.0
    assert out.loc["all_null", "min_repr"] is None
    # unorderable list column: counts exact, no min/max
    assert out.loc["lst", "nulls"] == 1
    assert out.loc["lst", "min_repr"] is None
    empty = profile_arrow_table(
        pa.table({"a": pa.array([], pa.int64())})
    ).to_pandas()
    assert empty.iloc[0]["n"] == 0
    with pytest.raises(ValueError, match="not in schema"):
        profile_table(rd.from_arrow(t), columns=["nope"])
    with pytest.raises(ValueError, match="hll_p"):
        profile_table(rd.from_arrow(t), hll_p=2)


def test_profile_cli(tmp_path, capsys):
    from redpajama_data_ray.cli import main

    t = _table(300, seed=2)
    d = tmp_path / "in"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    outf = str(tmp_path / "profile.parquet")
    assert main(
        ["profile", "--input", str(d), "--output", outf,
         "--columns", "i,s"]
    ) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["columns"] == 2 and res["rows"] == 300
    prof = pq.read_table(outf).to_pandas()
    assert list(prof["column"]) == ["i", "s"]
    with pytest.raises(SystemExit, match="not in schema"):
        main(["profile", "--input", str(d), "--columns", "zzz"])
