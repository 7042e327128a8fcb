"""Vectorized membership delivery (dedupe/apply.py) + the round-2
ADVICE crash repros: nested-column corpora through the forced exact
join path, forced-distributed dedup with zero duplicates, and the
size-adaptive cluster sinks."""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data
from hypothesis import given, settings, strategies as st

import redpajama_data_ray.dedupe.apply as apply_mod
from redpajama_data_ray.dedupe.apply import (
    as_key_array,
    filter_members,
    membership_mask,
)
from redpajama_data_ray.dedupe.exact import duplicate_rows, exact_dedup
from redpajama_data_ray.dedupe.lsh import fuzzy_dedup, write_cluster_outputs


class TestMembershipMask:
    def test_uint64_including_top_bit(self):
        members = np.sort(
            np.array([3, 2**63 + 5, 2**64 - 1], np.uint64)
        )
        col = pa.chunked_array(
            [pa.array([3, 4, 2**63 + 5, None, 2**64 - 1], pa.uint64())]
        )
        mask = membership_mask(col, members)
        assert mask.tolist() == [True, False, True, False, True]

    def test_strings_nulls_and_overwidth(self):
        members = np.sort(as_key_array({"abc", "zz"}))
        col = pa.chunked_array(
            [pa.array(["abc", "abcd", "zz", None, "q"], pa.string())]
        )
        # "abcd" is longer than the widest member: the truncating cast
        # must NOT alias it onto "abc"
        mask = membership_mask(col, members)
        assert mask.tolist() == [True, False, True, False, False]

    def test_empty_members(self):
        col = pa.chunked_array([pa.array([1, 2], pa.uint64())])
        assert membership_mask(col, np.empty(0, np.uint64)).tolist() == [
            False,
            False,
        ]

    def test_filter_members_keep_and_drop(self):
        ds = ray.data.from_arrow(
            pa.table({"k": pa.array([1, 2, 3, 4], pa.uint64())})
        )
        kept = filter_members(ds, "k", {2, 4}, True)
        dropped = filter_members(ds, "k", {2, 4}, False)
        assert sorted(
            r["k"] for r in kept.take_all()
        ) == [2, 4]
        assert sorted(r["k"] for r in dropped.take_all()) == [1, 3]


def _nested_table():
    """50% dup keys + a list<binary> column (the signature shape that
    crashed the round-2 forced join path)."""
    keys = [f"sha{i % 10:03d}" for i in range(20)] + [
        f"uniq{i}" for i in range(10)
    ]
    n = len(keys)
    return pa.table(
        {
            "content_sha256": keys,
            "doc_id": [f"d{i:04d}" for i in range(n)],
            "signature_sim0.8": pa.array(
                [[b"\x00\x01", b"\x02\x03"]] * n, pa.list_(pa.binary())
            ),
        }
    )


def _ids(ds):
    return sorted(
        x
        for b in ds.iter_batches(batch_size=4096, batch_format="pyarrow")
        for x in b.column("doc_id").to_pylist()
    )


class TestExactJoinNestedColumns:
    def test_forced_join_with_list_column(self):
        """ADVICE r2 high: list<binary> payload through distributed=True."""
        t = _nested_table()
        driver = exact_dedup(ray.data.from_arrow(t), distributed=False)
        joined = exact_dedup(ray.data.from_arrow(t), distributed=True)
        assert _ids(driver) == _ids(joined)
        # nested column round-trips intact
        row = joined.take(1)[0]
        assert [bytes(b) for b in row["signature_sim0.8"]] == [
            b"\x00\x01",
            b"\x02\x03",
        ]

    def test_duplicate_rows_forced_join_nested(self):
        t = _nested_table()
        dups = duplicate_rows(ray.data.from_arrow(t), distributed=True)
        assert len(_ids(dups)) == 10  # one winner per 2-member group

    def test_forced_join_zero_dups(self):
        """ADVICE r2 medium: forced distributed=True with no duplicated
        keys must not crash on the empty dup table."""
        t = pa.table(
            {
                "content_sha256": [f"k{i}" for i in range(30)],
                "doc_id": [f"d{i}" for i in range(30)],
                "sig": pa.array([[1, 2]] * 30, pa.list_(pa.int64())),
            }
        )
        out = exact_dedup(ray.data.from_arrow(t), distributed=True)
        assert out.count() == 30
        dups = duplicate_rows(ray.data.from_arrow(t), distributed=True)
        assert dups.count() == 0


class TestFuzzyMaskDelivery:
    def _sig_ds(self):
        from redpajama_data_ray.functions.minhash import MinHasher

        mh = MinHasher()
        base = [f"tok{i}" for i in range(120)]
        ids, sigs = [], []
        for c in range(6):
            words = [f"c{c}{w}" for w in base]
            for m in range(3):
                ids.append(c * 10 + m + 1)
                sigs.append(mh.banded_signatures(words)["signature_sim0.8"])
        return ray.data.from_arrow(
            pa.table(
                {
                    "id_int": pa.array(ids, pa.uint64()),
                    "signature_sim0.8": pa.array(
                        sigs, pa.list_(pa.binary())
                    ),
                }
            )
        )

    def test_mask_path_equals_pack_fallback(self, monkeypatch):
        """The distributed drop stage: searchsorted mask (default) and
        the pack+anti-join fallback (a zero broadcast limit) agree —
        with the nested signature column present both ways."""
        ds = self._sig_ds()
        via_mask, _ = fuzzy_dedup(ds, distributed=True)
        monkeypatch.setattr(apply_mod, "DEFAULT_MASK_BROADCAST_LIMIT", 0)
        via_join, _ = fuzzy_dedup(ds, distributed=True)
        a = sorted(
            x
            for b in via_mask.iter_batches(batch_format="pyarrow")
            for x in b.column("id_int").to_pylist()
        )
        b_ = sorted(
            x
            for b2 in via_join.iter_batches(batch_format="pyarrow")
            for x in b2.column("id_int").to_pylist()
        )
        assert a == b_ == [1, 11, 21, 31, 41, 51]


class TestClusterSinksSizeAdaptive:
    def _annotated(self):
        from redpajama_data_ray.stages import MinHashStage, assign_ids

        base = " ".join(f"tok{i}" for i in range(200))
        rows = {
            "repo": ["r"] * 5,
            "path": list("abcde"),
            "commit": ["c"] * 5,
            "lang": ["python"] * 5,
            "content": [
                base,
                base,
                base.replace("tok100", "x"),
                " ".join(f"other{i}" for i in range(200)),
                " ".join(f"third{i}" for i in range(200)),
            ],
        }
        return (
            ray.data.from_arrow(pa.table(rows))
            .map_batches(assign_ids, batch_format="pyarrow")
            .map_batches(
                MinHashStage, batch_format="pyarrow", concurrency=(1, 1)
            )
            .materialize()
        )

    @staticmethod
    def _read_sink(d):
        files = glob.glob(f"{d}/**/*.parquet", recursive=True)
        t = pa.concat_tables([pq.read_table(f) for f in files])
        return sorted(
            zip(
                t.column("id").to_pylist(),
                t.column("id_int").to_pylist(),
                t.column("cluster_id").to_pylist(),
                t.column("shard_id").to_pylist(),
            )
        )

    def test_driver_and_distributed_sinks_identical(self, tmp_path):
        """VERDICT r2 item 2: the per-threshold sink must produce the
        same rows via the broadcast map and via the labels join."""
        ds = self._annotated()
        out_a = write_cluster_outputs(
            ds, str(tmp_path / "driver"), thresholds=(0.8,),
            distributed=False,
        )
        out_b = write_cluster_outputs(
            ds, str(tmp_path / "dist"), thresholds=(0.8,),
            distributed=True,
        )
        rows_a = self._read_sink(out_a["0.8"])
        rows_b = self._read_sink(out_b["0.8"])
        assert rows_a == rows_b
        assert len(rows_a) >= 3  # a, b, c clustered


class TestExactNarrowJoinDelivery:
    def test_mask_path_equals_pack_fallback(self, monkeypatch):
        """Forced-join exact dedup: broadcast-mask delivery (default)
        and the pack+anti-join fallback (a zero broadcast limit)
        agree, nested column intact both ways."""
        t = _nested_table()
        via_mask = exact_dedup(ray.data.from_arrow(t), distributed=True)
        dup_mask = duplicate_rows(ray.data.from_arrow(t), distributed=True)
        monkeypatch.setattr(apply_mod, "DEFAULT_MASK_BROADCAST_LIMIT", 0)
        via_join = exact_dedup(ray.data.from_arrow(t), distributed=True)
        assert _ids(via_mask) == _ids(via_join)
        row = via_join.take(1)[0]
        assert [bytes(b) for b in row["signature_sim0.8"]] == [
            b"\x00\x01",
            b"\x02\x03",
        ]
        dup_join = duplicate_rows(ray.data.from_arrow(t), distributed=True)
        assert _ids(dup_mask) == _ids(dup_join)
        assert len(_ids(dup_mask)) == 10


class TestDigestFallback:
    """Wide/variable-width string keys must switch the broadcast mask
    to blake2b-16 digests instead of allocating an n x max_len S-dtype
    matrix (observed: a 903 KB content key x 457k members = a 385 GiB
    allocation in incremental dedup at sf1)."""

    def test_as_key_array_switches_on_wide_members(self):
        from redpajama_data_ray.dedupe.apply import DigestKeys

        giant = "g" * 3_000_000
        vals = [giant] + [f"k{i}" for i in range(100)]
        keys = as_key_array(vals)  # 101 x 3 MB > 256 MB limit
        assert isinstance(keys, DigestKeys)
        assert keys.sorted_digests.dtype == np.dtype("S16")
        # narrow sets stay on the exact fixed-width path
        assert isinstance(as_key_array(["a", "bb"]), np.ndarray)
        # arrow input takes the same decision from the buffer lengths
        assert isinstance(
            as_key_array(pa.array(vals, pa.string())), DigestKeys
        )

    def test_digest_mask_equals_fixed_width_mask(self, monkeypatch):
        # one member wider than 16 bytes: digest mode only pays (and
        # only triggers) when digests SHRINK the fixed-width slots
        members = ["abc", "zz", "a key wider than sixteen", "abc"]
        col = pa.chunked_array(
            [
                pa.array(
                    [
                        "abc",
                        "abcd",
                        None,
                        "zz",
                        "",
                        "a key wider than sixteen",
                    ],
                    pa.string(),
                )
            ]
        )
        exact = membership_mask(
            col, np.sort(as_key_array(set(members)))
        )
        monkeypatch.setattr(apply_mod, "FIXED_WIDTH_MASK_LIMIT", 1)
        keys = apply_mod.as_key_array(set(members))
        assert isinstance(keys, apply_mod.DigestKeys)
        digest = membership_mask(
            col,
            apply_mod.DigestKeys(np.sort(keys.sorted_digests)),
        )
        assert digest.tolist() == exact.tolist()
        # empty-string member: digest(b"") must match "" and not null
        m = membership_mask(
            pa.chunked_array([pa.array(["", None], pa.string())]),
            apply_mod.DigestKeys(
                np.sort(
                    apply_mod._digest_values([""])
                )
            ),
        )
        assert m.tolist() == [True, False]

    def test_filter_members_digest_roundtrip(self, monkeypatch):
        monkeypatch.setattr(apply_mod, "FIXED_WIDTH_MASK_LIMIT", 1)
        keys = [k * 20 for k in ("a", "b", "c", "d")]  # wide -> digest
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "k": keys,
                    "v": [1, 2, 3, 4],
                }
            )
        )
        out = filter_members(
            ds, "k", [keys[1], keys[3]], keep_members=False
        )
        assert sorted(out.to_pandas().v.tolist()) == [1, 3]

    def test_incremental_dedup_survives_giant_keys(
        self, tmp_path, monkeypatch
    ):
        """The sf1 crash repro, shrunk: cross-run exact dedup keyed on
        RAW content where one committed key is huge."""
        from redpajama_data_ray.state.incremental import (
            commit_run_keys,
            incremental_exact_dedup,
        )

        monkeypatch.setattr(apply_mod, "FIXED_WIDTH_MASK_LIMIT", 1024)
        state = str(tmp_path / "state")
        giant = "x" * 5000
        r1 = ray.data.from_arrow(
            pa.table(
                {
                    "content": [giant, "one", "two"],
                    "doc_id": ["a", "b", "c"],
                }
            )
        )
        out1, rid1 = incremental_exact_dedup(
            r1, state, key="content", order_col="doc_id", run_id="r1"
        )
        out1 = out1.materialize()
        assert out1.count() == 3
        commit_run_keys(out1, state, rid1, key="content")

        r2 = ray.data.from_arrow(
            pa.table(
                {
                    "content": [giant, "two", "three", "three"],
                    "doc_id": ["d", "e", "f", "g"],
                }
            )
        )
        out2, _ = incremental_exact_dedup(
            r2, state, key="content", order_col="doc_id", run_id="r2"
        )
        got = sorted(out2.to_pandas().doc_id.tolist())
        assert got == ["f"]  # giant + "two" seen in r1; f dedups g


# per key type, a pool both sides draw from: uint64 on both sides of
# 2^63, int64 at its extremes, and strings/binaries that differ only in
# trailing NUL bytes
_KEY_POOLS = {
    "uint64": (pa.uint64(), [0, 5, 2**63 - 1, 2**63, 2**63 + 7, 2**64 - 1]),
    "int64": (pa.int64(), [-(2**63), -1, 0, 7, 2**53 + 1, 2**63 - 1]),
    "string": (pa.string(), ["", "a", "ab", "abc", "zz", "\u00e9"]),
    "binary": (
        pa.binary(),
        [b"", b"\x00", b"foo", b"foo\x00", b"foo\x00\x00", b"\x01"],
    ),
}


@st.composite
def _member_case(draw, pool):
    """(corpus keys, member key blocks): the corpus holds every pool
    value and a null, in a drawn order, plus drawn repeats; members
    come in up to four blocks, empty ones and nulls included."""
    key = st.one_of(st.none(), st.sampled_from(pool))
    corpus = draw(st.permutations(list(pool) + [None]))
    corpus = corpus + draw(st.lists(key, max_size=4))
    blocks = draw(st.lists(st.lists(key, max_size=4), min_size=1, max_size=4))
    return corpus, blocks


def _rows(t: pa.Table) -> list:
    return sorted(zip(*(t.column(c).to_pylist() for c in ("i", "k", "tags"))))


def _member_rows(ds) -> list:
    return sorted(
        row
        for b in ds.iter_batches(batch_format="pyarrow")
        if b.num_rows
        for row in _rows(b)
    )


@pytest.mark.parametrize("kind", sorted(_KEY_POOLS))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_filter_members_dataset_paths_match_is_in(kind, data):
    """A member Dataset through the broadcast side and the join side
    (a zero ``DEFAULT_MASK_BROADCAST_LIMIT``) gives the rows a pyarrow
    ``is_in`` oracle keeps, for both ``keep_members`` values: null keys
    never match, zero-row and schema-less member blocks are harmless,
    the key type survives the join's signed bijection and the nested
    payload its pack/unpack."""
    typ, pool = _KEY_POOLS[kind]
    corpus, blocks = data.draw(_member_case(pool))
    table = pa.table(
        {
            "k": pa.array(corpus, typ),
            "i": pa.array(range(len(corpus)), pa.int64()),
            "tags": pa.array([[i] for i in range(len(corpus))]),
        }
    )
    ds = ray.data.from_arrow([table.slice(0, 3), table.slice(3)])
    # plus one zero-row block and one that lost its schema
    members = ray.data.from_arrow(
        [pa.table({"k": pa.array(b, typ)}) for b in blocks + [[]]]
    ).union(
        ray.data.from_arrow(pa.table({"k": pa.array(pool[:1], typ)}))
        .map_batches(lambda t: pa.table({}), batch_format="pyarrow")
    ).materialize()
    values = pa.array([v for b in blocks for v in b if v is not None], typ)
    hit = pc.fill_null(pc.is_in(table.column("k"), value_set=values), False)
    for keep in (False, True):
        want = table.filter(hit if keep else pc.invert(hit))
        want_rows = _rows(want)
        masked = filter_members(ds, "k", members, keep)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(apply_mod, "DEFAULT_MASK_BROADCAST_LIMIT", 0)
            joined = filter_members(ds, "k", members, keep)
        assert _member_rows(masked) == want_rows
        assert _member_rows(joined) == want_rows
        if want.num_rows:
            assert joined.schema().base_schema.field("k").type == typ
