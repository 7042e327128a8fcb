"""Dedup tests: exact, MinHash-LSH fuzzy, SimHash, Jaccard oracle."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from redpajama_data_ray.dedupe.exact import duplicate_rows, exact_dedup
from redpajama_data_ray.dedupe.jaccard import brute_force_near_dups, jaccard, shingle_set
from redpajama_data_ray.dedupe.lsh import fuzzy_dedup, lsh_clusters
from redpajama_data_ray.dedupe.simhash import add_simhash, simhash_dedup
from redpajama_data_ray.stages import MinHashStage, assign_ids


def _corpus_table():
    # 300 tokens, one changed -> shingle Jaccard ~0.91: clusters at 0.8
    # (deterministic: 4/9 bands shared with seed-42 permutations)
    base = " ".join(f"tok{i}" for i in range(300))
    near = base.replace("tok150 ", "changed ")
    rows = [
        ("r1", "a.py", "c1", base),
        ("r1", "b.py", "c2", base),            # exact dup of a
        ("r2", "c.py", "c3", near),            # near dup of a
        ("r2", "d.py", "c4", " ".join(f"other{i}" for i in range(300))),
        ("r3", "e.py", "c5", "short doc"),
    ]
    return pa.table(
        {
            "repo": [r[0] for r in rows],
            "path": [r[1] for r in rows],
            "commit": [r[2] for r in rows],
            "lang": ["python"] * len(rows),
            "content": [r[3] for r in rows],
        }
    )


@pytest.fixture(scope="module")
def annotated():
    ds = ray.data.from_arrow(_corpus_table())
    ds = ds.map_batches(assign_ids, batch_format="pyarrow")
    ds = ds.map_batches(MinHashStage, batch_format="pyarrow", concurrency=1)
    return ds.materialize()


def test_exact_dedup_keeps_first_by_doc_id(annotated):
    out = exact_dedup(annotated).to_pandas()
    assert len(out) == 4  # one of the two identical docs dropped
    # kept the lexicographically-first doc_id among dups
    assert "r1/a.py@c1" in set(out.doc_id)
    assert "r1/b.py@c2" not in set(out.doc_id)
    dups = duplicate_rows(annotated).to_pandas()
    assert list(dups.doc_id) == ["r1/b.py@c2"]


def test_lsh_clusters_exact_and_near(annotated):
    df = annotated.to_pandas()
    ids = dict(zip(df.doc_id, df.id_int))
    clusters = lsh_clusters(annotated, "signature_sim0.8")
    a, b, c = ids["r1/a.py@c1"], ids["r1/b.py@c2"], ids["r2/c.py@c3"]
    # exact dups always cluster; the near-dup shares bands at 0.8
    assert clusters.get(a) == clusters.get(b) == clusters.get(c)
    # unrelated doc not clustered with them
    d = ids["r2/d.py@c4"]
    assert clusters.get(d, d) != clusters[a]


def test_fuzzy_dedup_drops_non_representatives(annotated):
    deduped, clusters = fuzzy_dedup(annotated, "signature_sim0.8")
    out = deduped.to_pandas()
    # 5 rows - 2 dropped (the a/b/c cluster keeps exactly one member —
    # the min id_int, per run_lsh.py:324-338 representative semantics)
    assert len(out) == 3
    members = {"r1/a.py@c1", "r1/b.py@c2", "r2/c.py@c3"}
    assert len(members & set(out.doc_id)) == 1
    assert {"r2/d.py@c4", "r3/e.py@c5"} <= set(out.doc_id)


def test_jaccard_oracle_and_shingles():
    a = " ".join(f"word{i}" for i in range(30))
    s = shingle_set(a, n=5)
    assert all(len(g.split()) == 5 for g in s)
    assert jaccard(s, s) == 1.0
    assert jaccard(set(), set()) == 1.0
    assert jaccard(s, set()) == 0.0
    texts = {1: a, 2: a + "and something else entirely now", 3: "zzz yyy xxx"}
    pairs = brute_force_near_dups(texts, threshold=0.5, ngram=5)
    assert [(p[0], p[1]) for p in pairs] == [(1, 2)]


def test_simhash_dedup(annotated):
    ds = annotated.map_batches(add_simhash, batch_format="pyarrow")
    out = simhash_dedup(ds, max_hamming=3).to_pandas()
    # exact dup pair collapses (identical simhash -> Hamming 0); the
    # survivor is the min id_int of the component
    assert len({"r1/a.py@c1", "r1/b.py@c2"} & set(out.doc_id)) == 1
    assert len(out) <= 4


def test_key_stats_auto_sizes_pure_reads_from_metadata(tmp_path, monkeypatch):
    """distributed=None on a pure parquet read must pick the single-root
    stats from plan metadata alone — no streaming count pass, no second
    execution of the partial stage (the round-4 exact/line dedup
    regression)."""
    import pyarrow.parquet as pq
    from ray.data import Dataset

    from redpajama_data_ray.dedupe.combine import key_stats

    t = pa.table({"k": ["a", "a", "b"], "o": [2, 1, 5]})
    pq.write_table(t, tmp_path / "x.parquet")
    ds = ray.data.read_parquet(str(tmp_path / "x.parquet"))

    def forbidden(self):
        raise AssertionError("count pass on the metadata fast path")

    monkeypatch.setattr(Dataset, "count", forbidden)
    out = pa.concat_tables(
        key_stats(ds, "k", "o", distributed=None).iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    ).sort_by("k")
    assert out.column("k").to_pylist() == ["a", "b"]
    assert out.column("min_order").to_pylist() == [1, 5]
    assert out.column("cnt").to_pylist() == [2, 1]

    # negative control: a transformed input hides the row count, so
    # auto sizing must still fall back to the streaming count pass
    mapped = ds.map_batches(lambda b: b, batch_format="pyarrow")
    with pytest.raises(AssertionError, match="count pass"):
        key_stats(mapped, "k", "o", distributed=None)


class TestOrderTies:
    """Keep-first with a NON-unique order column: rows tying at the
    min must yield exactly one survivor per key (sf1 repro: dedup by
    raw content ordered by path kept 2-3 rows for 6 contents whose
    min path appeared in several repos)."""

    def _table(self):
        return pa.table(
            {
                "k": ["a", "a", "a", "b", "b", "c", "d", "d"],
                # a: tie at min order 1 (two rows), plus a loser at 2
                # b: unique min          c: singleton
                # d: FULLY identical rows (indistinguishable)
                "o": [1, 1, 2, 5, 6, 9, 7, 7],
                "v": ["x", "y", "z", "p", "q", "r", "s", "s"],
            }
        )

    @pytest.mark.parametrize("distributed", [None, False, True])
    def test_exact_dedup_ties(self, distributed):
        ds = ray.data.from_arrow(self._table())
        out = exact_dedup(
            ds, key="k", order_col="o", distributed=distributed
        ).to_pandas()
        assert sorted(out.k.tolist()) == ["a", "b", "c", "d"]
        a = out[out.k == "a"]
        assert len(a) == 1 and a.o.iloc[0] == 1
        # deterministic resolution: lexicographic over all columns
        assert a.v.iloc[0] == "x"
        d = out[out.k == "d"]
        assert len(d) == 1 and d.v.iloc[0] == "s"

    @pytest.mark.parametrize("distributed", [None, False, True])
    def test_duplicate_rows_ties(self, distributed):
        ds = ray.data.from_arrow(self._table())
        out = duplicate_rows(
            ds, key="k", order_col="o", distributed=distributed
        ).to_pandas()
        # complements: 8 rows total, 4 winners -> 4 duplicates
        assert len(out) == 4
        assert sorted(out.k.tolist()) == ["a", "a", "b", "d"]
        a = out[out.k == "a"]
        assert sorted(a.v.tolist()) == ["y", "z"]

    def test_winner_plus_losers_partition_rows(self):
        ds = ray.data.from_arrow(self._table())
        kept = exact_dedup(ds, key="k", order_col="o").to_pandas()
        dropped = duplicate_rows(ds, key="k", order_col="o").to_pandas()
        assert len(kept) + len(dropped) == 8
        import collections

        all_rows = collections.Counter(
            map(tuple, kept.values.tolist())
        ) + collections.Counter(map(tuple, dropped.values.tolist()))
        orig = collections.Counter(
            map(tuple, self._table().to_pandas().values.tolist())
        )
        assert all_rows == orig


class TestCrossKeyOrderCollision:
    """Join delivery must identify losers by the (key, order) PAIR:
    order values shared across keys used to conflate rows (key B's
    winner dropped because key A's loser had the same order value)."""

    def _table(self):
        # A: orders [1, 2] (2 loses); B: orders [2, 3] (3 loses).
        # B's winner has order 2 == A's loser order.
        return pa.table(
            {
                "k": ["A", "A", "B", "B"],
                "o": [1, 2, 2, 3],
                "v": ["a1", "a2", "b2", "b3"],
                # wide payload forces the narrow-probe path
                "pad": ["x" * 10, "y" * 10, "z" * 10, "w" * 10],
            }
        )

    def test_forced_join_keeps_colliding_winner(self):
        ds = ray.data.from_arrow(self._table())
        out = exact_dedup(
            ds, key="k", order_col="o", distributed=True
        ).to_pandas()
        assert sorted(out.v.tolist()) == ["a1", "b2"]

    def test_forced_join_duplicates_exact_complement(self):
        ds = ray.data.from_arrow(self._table())
        out = duplicate_rows(
            ds, key="k", order_col="o", distributed=True
        ).to_pandas()
        assert sorted(out.v.tolist()) == ["a2", "b3"]

    def test_forced_join_large_loser_set_via_digest_join(self, monkeypatch):
        import redpajama_data_ray.dedupe.apply as apply_mod

        ds = ray.data.from_arrow(self._table())
        # a zero broadcast limit forces the anti/semi JOIN variant
        monkeypatch.setattr(apply_mod, "DEFAULT_MASK_BROADCAST_LIMIT", 0)
        out = exact_dedup(
            ds, key="k", order_col="o", distributed=True
        ).to_pandas()
        assert sorted(out.v.tolist()) == ["a1", "b2"]
        dups = duplicate_rows(
            ds, key="k", order_col="o", distributed=True
        ).to_pandas()
        assert sorted(dups.v.tolist()) == ["a2", "b3"]
