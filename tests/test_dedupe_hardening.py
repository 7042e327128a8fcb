"""Round-8 dedupe review-pass regressions: full-range uint64 ids
through every wide delivery path, trailing-NUL key aliasing, probe
normalization idempotency, and empty/corrupt-input contracts."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from redpajama_data_ray.dedupe.apply import (
    DigestKeys,
    NormalizedKeys,
    as_key_array,
    membership_mask,
)

# ids straddling 2^63: safe int64 casts raise and Ray's hash shuffle
# pickles them into object columns — every fix under test here
HI_IDS = [2**63 + 7, 2**64 - 2, 5, 2**63 - 1]


def test_as_key_array_idempotent_and_sentinel():
    k = as_key_array(["foo", "bar"])
    assert isinstance(k, NormalizedKeys)
    assert as_key_array(k) is k  # re-normalizing MUST be a no-op
    # trailing-NUL keys do not alias their prefix through S padding
    mem = as_key_array([b"foo\x00", b"barx"])
    probe = pa.chunked_array(
        [pa.array([b"foo", b"foo\x00", b"barx"], pa.binary())]
    )
    assert membership_mask(probe, np.sort(mem)).tolist() == [
        False,
        True,
        True,
    ]


def test_digest_mode_requires_wide_keys(monkeypatch):
    import redpajama_data_ray.dedupe.apply as apply_mod

    monkeypatch.setattr(apply_mod, "FIXED_WIDTH_MASK_LIMIT", 1)
    # narrow keys: digests would be LARGER and slower — stay fixed
    assert isinstance(
        apply_mod.as_key_array(["ab", "cd", "ef"]), np.ndarray
    )
    assert not isinstance(
        apply_mod.as_key_array(["ab", "cd", "ef"]), DigestKeys
    )
    # wide keys past the limit digest
    assert isinstance(
        apply_mod.as_key_array(["x" * 40, "y" * 30]), DigestKeys
    )


def test_as_key_array_numeric_arrow_fast_path():
    arr = pa.chunked_array([pa.array(HI_IDS, pa.uint64())])
    out = as_key_array(arr)
    assert out.dtype == np.uint64
    assert sorted(out.tolist()) == sorted(HI_IDS)


def test_filter_members_join_full_uint64_range(monkeypatch):
    import redpajama_data_ray.dedupe.apply as apply_mod

    corpus = rd.from_arrow(
        pa.table(
            {
                "id_int": pa.array(HI_IDS, pa.uint64()),
                "text": [f"t{i}" for i in range(len(HI_IDS))],
                "tags": [[1], [2], [3], [4]],  # nested payload
            }
        )
    )
    dupes = rd.from_arrow(
        pa.table(
            {"id_int": pa.array([2**63 + 7, 5], pa.uint64())}
        )
    )
    # a zero broadcast limit forces the left_anti join fallback (the
    # path that crashed/mis-joined on raw uint64 keys above int64-max)
    monkeypatch.setattr(apply_mod, "DEFAULT_MASK_BROADCAST_LIMIT", 0)
    out = apply_mod.filter_members(corpus, "id_int", dupes.materialize(), False)
    t = pa.concat_tables(
        out.iter_batches(batch_format="pyarrow")
    )
    assert sorted(t.column("id_int").to_pylist()) == sorted(
        [2**64 - 2, 2**63 - 1]
    )
    assert t.column("id_int").type == pa.uint64()
    assert set(t.column("text").to_pylist()) == {"t1", "t3"}


def test_substring_join_delivery_full_uint64_ids():
    from redpajama_data_ray.dedupe.spans import substring_dedup

    boiler = "SHARED BOILERPLATE " * 6
    docs = rd.from_arrow(
        pa.table(
            {
                "id_int": pa.array(HI_IDS, pa.uint64()),
                "text": [
                    boiler + "alpha",
                    boiler + "beta",
                    "small unique",
                    boiler + "gamma",
                ],
            }
        )
    )
    # broadcast path (reference)
    ref = substring_dedup(
        docs, text_col="text", k=8, winnow_w=0, mode="excise",
        distributed=False,
    )
    # forced join delivery keyed on the uint64 id column (formerly
    # ArrowInvalid from the safe int64 cast at >= 2^63)
    forced = substring_dedup(
        docs, text_col="text", k=8, winnow_w=0, mode="excise",
        id_col="id_int", distributed=True,
    )
    a = ref.to_pandas().sort_values("id_int").reset_index(drop=True)
    b = forced.to_pandas().sort_values("id_int").reset_index(drop=True)
    assert a.equals(b)


def test_explode_bands_inner_null_named_error():
    from redpajama_data_ray.dedupe.lsh import explode_bands

    t = pa.table(
        {
            "id_int": pa.array([1, 2], pa.uint64()),
            "sig": pa.array(
                [[b"12345678", None], [b"87654321"]],
                pa.list_(pa.binary()),
            ),
        }
    )
    with pytest.raises(ValueError, match="null elements inside"):
        explode_bands("sig")(t)


def test_clusters_table_empty_dataset():
    from redpajama_data_ray.dedupe.lsh import clusters_table

    empty = rd.from_arrow(
        pa.table(
            {
                "id_int": pa.array([], pa.uint64()),
                "cluster_id": pa.array([], pa.uint64()),
            }
        )
    )
    t = clusters_table(empty)
    assert t.num_rows == 0
    assert t.schema.field("id_int").type == pa.uint64()
    # matches the dict branch's empty contract
    assert t.schema.equals(clusters_table({}).schema)


def test_combine_block_canary():
    """The keyed-combine canary (dedupe/combine.py): kernels emit one
    null-key sentinel per invocation; _canary_strip drops them and
    raises when combine blocks outnumber the keyed partitions (a
    split partition would under-count keys silently)."""
    from redpajama_data_ray.dedupe.combine import (
        _canary_strip,
        _canary_wrap,
    )

    def kernel(t: pa.Table) -> pa.Table:
        return t.group_by("k").aggregate([("cnt", "sum")]) \
            .rename_columns(["k", "cnt"])

    t = pa.table(
        {
            "k": pa.array(["a", "a", "b"], pa.string()),
            "cnt": pa.array([1, 2, 3], pa.int64()),
        }
    )
    out = _canary_wrap(kernel, "k")(t)
    assert out.num_rows == 3  # 2 combined keys + 1 sentinel
    assert out.column("k").null_count == 1
    ds = rd.from_arrow(out)
    real = _canary_strip(ds, "k", 1, "t")
    df = real.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(df["k"]) == ["a", "b"]
    assert list(df["cnt"]) == [3, 3]
    # two sentinels against one partition -> the invariant broke
    two = pa.concat_tables([out, _canary_wrap(kernel, "k")(t)])
    with pytest.raises(RuntimeError, match="combine blocks"):
        _canary_strip(rd.from_arrow(two), "k", 1, "t")
