"""Distributed (dataset-side) dedup paths vs the driver-broadcast paths.

VERDICT round-1 item 2: a dup-heavy fixture (>=30% duplicates) must run
end-to-end through the distributed exact + fuzzy paths with output
identical to the driver paths, and the auto mode must pick the right
path on either side of the threshold.
"""

import random

import pyarrow as pa
import pytest
import ray.data

from redpajama_data_ray.dedupe.exact import duplicate_rows, exact_dedup
from redpajama_data_ray.dedupe.lsh import clusters_table, fuzzy_dedup
from redpajama_data_ray.functions.minhash import MinHasher


def _dup_heavy_table(n_groups=60, group_size=4, n_unique=240):
    """~50% duplicated rows: n_groups keys each repeated group_size
    times, plus n_unique singletons."""
    keys, orders = [], []
    i = 0
    for g in range(n_groups):
        for _ in range(group_size):
            keys.append(f"sha{g:04d}")
            orders.append(i)
            i += 1
    for u in range(n_unique):
        keys.append(f"uniq{u:04d}")
        orders.append(i)
        i += 1
    return pa.table(
        {
            "content_sha256": keys,
            "doc_id": [f"d{o:05d}" for o in orders],
            "payload": list(range(len(keys))),
        }
    )


def _ids(ds):
    return sorted(
        x
        for b in ds.iter_batches(batch_size=4096, batch_format="pyarrow")
        for x in b.column("doc_id").to_pylist()
    )


class TestExactDistributed:
    def test_join_path_equals_driver_path(self):
        t = _dup_heavy_table()
        driver = exact_dedup(ray.data.from_arrow(t), distributed=False)
        joined = exact_dedup(ray.data.from_arrow(t), distributed=True)
        assert _ids(driver) == _ids(joined)
        # schema preserved (helper column dropped)
        assert set(joined.schema().names) == set(t.schema.names)

    def test_auto_switches_to_join_above_limit(self):
        t = _dup_heavy_table()
        auto_small = exact_dedup(
            ray.data.from_arrow(t), distributed=None, broadcast_limit=5
        )  # 60 dup keys > 5 -> join path
        auto_big = exact_dedup(
            ray.data.from_arrow(t), distributed=None, broadcast_limit=10_000
        )  # broadcast path
        assert _ids(auto_small) == _ids(auto_big)

    def test_duplicate_rows_complement(self):
        t = _dup_heavy_table()
        ds = ray.data.from_arrow(t)
        kept = set(_ids(exact_dedup(ds, distributed=True)))
        dups = set(_ids(duplicate_rows(ds, distributed=True)))
        assert kept | dups == set(t.column("doc_id").to_pylist())
        assert not (kept & dups)
        # exactly one winner per duplicated key
        assert len(dups) == 60 * 3

    def test_no_dups_passthrough(self):
        t = pa.table(
            {
                "content_sha256": [f"k{i}" for i in range(50)],
                "doc_id": [f"d{i}" for i in range(50)],
            }
        )
        out = exact_dedup(ray.data.from_arrow(t), distributed=None)
        assert out.count() == 50


def _sig_table(n_clusters=25, cluster_size=3, n_singletons=25):
    """Signature table where each cluster shares most 13-gram shingles
    (>=0.9 Jaccard) and singletons are random — dup-heavy: 75 of 100
    rows are near-duplicates."""
    rng = random.Random(7)
    mh = MinHasher()
    ids, sigs = [], []
    next_id = 1
    for c in range(n_clusters):
        base = [f"c{c}tok{i}" for i in range(120)]
        for m in range(cluster_size):
            words = list(base)
            if m:  # one substitution -> shingle Jaccard ~0.89
                words[60 + m] = f"c{c}sub{m}"
            ids.append(next_id)
            sigs.append(mh.banded_signatures(words)["signature_sim0.8"])
            next_id += 1
    for s in range(n_singletons):
        words = [f"s{s}w{rng.randrange(10**9)}" for _ in range(120)]
        ids.append(next_id)
        sigs.append(mh.banded_signatures(words)["signature_sim0.8"])
        next_id += 1
    return pa.table(
        {
            "id_int": pa.array(ids, pa.uint64()),
            "signature_sim0.8": pa.array(sigs, pa.list_(pa.binary())),
        }
    )


class TestFuzzyDistributed:
    def test_distributed_equals_driver(self):
        t = _sig_table()
        d_ds, d_clusters = fuzzy_dedup(
            ray.data.from_arrow(t), distributed=False
        )
        x_ds, x_labels = fuzzy_dedup(
            ray.data.from_arrow(t), distributed=True
        )
        survivors_driver = sorted(
            x
            for b in d_ds.iter_batches(batch_format="pyarrow")
            for x in b.column("id_int").to_pylist()
        )
        survivors_dist = sorted(
            x
            for b in x_ds.iter_batches(batch_format="pyarrow")
            for x in b.column("id_int").to_pylist()
        )
        assert survivors_driver == survivors_dist
        # cluster labels identical (min-id representative per component)
        lbl_tbl = clusters_table(x_labels)
        dist_map = dict(
            zip(
                lbl_tbl.column("id_int").to_pylist(),
                lbl_tbl.column("cluster_id").to_pylist(),
            )
        )
        assert dist_map == d_clusters

    def test_auto_switch_threshold(self, monkeypatch):
        from redpajama_data_ray.dedupe import combine

        t = _sig_table(n_clusters=6, cluster_size=3, n_singletons=4)
        with monkeypatch.context() as m:
            m.setattr(combine, "TREE_STATS_LIMIT", 1)
            ds_lo, cl_lo = fuzzy_dedup(
                ray.data.from_arrow(t), distributed=None
            )  # band rows > 1 -> distributed: labels Dataset
            assert isinstance(cl_lo, ray.data.Dataset)
        ds_hi, cl_hi = fuzzy_dedup(
            ray.data.from_arrow(t), distributed=None
        )  # root path: dict
        assert isinstance(cl_hi, dict)
        a = sorted(
            x
            for b in ds_lo.iter_batches(batch_format="pyarrow")
            for x in b.column("id_int").to_pylist()
        )
        b_ = sorted(
            x
            for b2 in ds_hi.iter_batches(batch_format="pyarrow")
            for x in b2.column("id_int").to_pylist()
        )
        assert a == b_

    def test_no_dup_bands(self):
        t = _sig_table(n_clusters=0, cluster_size=0, n_singletons=8)
        ds, clusters = fuzzy_dedup(ray.data.from_arrow(t), distributed=None)
        assert clusters == {}
        assert ds.count() == 8


class TestSimhashHotBand:
    def test_identical_fingerprint_flood_bounded(self):
        """10k rows with the SAME fingerprint collapse to one survivor
        in O(n) (spanning edges), not O(n^2) pairs."""
        import time

        from redpajama_data_ray.dedupe.simhash import (
            simhash_dedup, simhash_near_dup_pairs,
        )

        n = 10_000
        t = pa.table(
            {
                "id_int": pa.array(range(1, n + 1), pa.uint64()),
                "simhash64": pa.array([0xDEADBEEF] * n, pa.uint64()),
            }
        )
        t0 = time.time()
        out = simhash_dedup(ray.data.from_arrow(t))
        assert out.count() == 1
        assert time.time() - t0 < 60
        # spanning pair list is linear in n
        pairs = simhash_near_dup_pairs(
            ray.data.from_arrow(t), spanning=True
        )
        assert len(pairs) == n - 1

    def test_cross_fingerprint_verify_vectorized(self):
        """Distinct fingerprints within hamming<=3 in a shared band are
        found by the chunked popcount matrix."""
        from redpajama_data_ray.dedupe.simhash import simhash_near_dup_pairs

        base = 0x0123456789ABCDEF
        rows = {
            "id_int": pa.array([1, 2, 3], pa.uint64()),
            "simhash64": pa.array(
                [base, base ^ (1 << 40), base ^ 0x7], pa.uint64()
            ),  # d(1,2)=1, d(1,3)=3, d(2,3)=4
        }
        pairs = simhash_near_dup_pairs(ray.data.from_arrow(pa.table(rows)))
        assert (1, 2) in pairs and (1, 3) in pairs and (2, 3) not in pairs


class TestClusterOutputs:
    def test_per_threshold_cluster_parquet(self, tmp_path):
        """run_lsh.py:340-372 parity: one (id, id_int, cluster_id,
        shard_id) parquet dir per similarity threshold."""
        import glob

        import pyarrow.parquet as pq

        from redpajama_data_ray.dedupe.lsh import write_cluster_outputs
        from redpajama_data_ray.functions.minhash import MinHasher
        from redpajama_data_ray.stages import MinHashStage, assign_ids

        base = " ".join(f"tok{i}" for i in range(200))
        rows = {
            "repo": ["r"] * 4,
            "path": ["a", "b", "c", "d"],
            "commit": ["c"] * 4,
            "lang": ["python"] * 4,
            "content": [
                base,
                base,  # exact dup of a -> same cluster at every threshold
                base.replace("tok100", "x"),  # near dup
                " ".join(f"other{i}" for i in range(200)),
            ],
        }
        ds = (
            ray.data.from_arrow(pa.table(rows))
            .map_batches(assign_ids, batch_format="pyarrow")
            .map_batches(MinHashStage, batch_format="pyarrow",
                         concurrency=(1, 1))
            .materialize()
        )
        outs = write_cluster_outputs(
            ds, str(tmp_path), thresholds=(0.8, 1.0)
        )
        assert set(outs) == {"0.8", "1.0"}
        for t, d in outs.items():
            files = glob.glob(f"{d}/**/*.parquet", recursive=True)
            tbl = pa.concat_tables([pq.read_table(f) for f in files])
            assert tbl.schema.names == [
                "id", "id_int", "cluster_id", "shard_id",
            ]
            # a and b are byte-identical -> clustered at every threshold
            ids = set(tbl.column("id").to_pylist())
            assert {"r/a@c", "r/b@c"} <= ids
            # every member's cluster_id is a member id_int (min rep)
            id_ints = set(tbl.column("id_int").to_pylist())
            assert set(tbl.column("cluster_id").to_pylist()) <= id_ints


def test_keyed_repartition_emits_one_block_per_partition():
    """Load-bearing Ray invariant: the hash-shuffle aggregator
    finalizes each keyed partition as ONE block, even when the
    partition far exceeds target_max_block_size. The per-block
    combine in dup_keys_from_partials' horizontal path (and the
    per-block multi-bucket pack in functions/packing.py) sums within
    a block and would silently under-count keys split across blocks
    of the same partition — this test fails first if a Ray upgrade
    starts splitting partition outputs (measured: Ray 2.49 emits one
    8 MB block per partition under a 1 MB target)."""
    import numpy as np
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    prev = (
        ctx.shuffle_strategy,
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
        ctx.target_max_block_size,
    )
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.25
    ctx.target_max_block_size = 1 << 20  # 1 MB; partitions are ~8 MB
    try:
        n = 2_000_000
        t = pa.table(
            {
                "k": pa.array(np.arange(n) % 100, pa.int64()),
                "cnt": pa.array(np.ones(n, np.int64)),
            }
        )
        ds = ray.data.from_arrow(t).repartition(4, keys=["k"])

        def probe(b: pa.Table) -> pa.Table:
            return pa.table({"n_rows": pa.array([b.num_rows], pa.int64())})

        out = ds.map_batches(
            probe,
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        ).to_pandas()
        # one batch (= one block) per partition, all rows accounted for
        assert len(out) == 4
        assert out.n_rows.sum() == n
    finally:
        (
            ctx.shuffle_strategy,
            ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
            ctx.target_max_block_size,
        ) = prev
