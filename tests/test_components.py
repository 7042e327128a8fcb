"""Distributed label propagation == driver union-find clustering."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from redpajama_data_ray.dedupe.components import propagate_min_labels
from redpajama_data_ray.dedupe.lsh import (
    cluster_labels,
    clusters_table,
    lsh_clusters,
)
from redpajama_data_ray.stages import MinHashStage, assign_ids


def test_propagate_min_labels_chain():
    # hyperedges: {1,2}, {2,3}, {3,4}, {10,11} -> components {1..4}, {10,11}
    pairs = pa.table(
        {
            "band_hash": pa.array(
                [100, 100, 200, 200, 300, 300, 400, 400], pa.uint64()
            ),
            "id_int": pa.array([1, 2, 2, 3, 3, 4, 10, 11], pa.uint64()),
        }
    )
    out = (
        propagate_min_labels(ray.data.from_arrow(pairs), num_partitions=4)
        .to_pandas()
        .set_index("id_int")["cluster_id"]
        .to_dict()
    )
    assert out == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}


def test_propagate_min_labels_raises_at_round_cap():
    """A chain longer than the rounds allowed must not come back split:
    ids 1-6 need five hops, and two rounds raise instead."""
    pairs = pa.table(
        {
            "band_hash": pa.array(
                [b for b in range(5) for _ in range(2)], pa.uint64()
            ),
            "id_int": pa.array(
                [i for b in range(5) for i in (b + 1, b + 2)], pa.uint64()
            ),
        }
    )
    with pytest.raises(RuntimeError, match="max_iters=2"):
        propagate_min_labels(
            ray.data.from_arrow(pairs), num_partitions=2, max_iters=2
        )


def test_distributed_matches_union_find():
    rng = np.random.default_rng(3)
    rows = []
    # several exact-duplicate groups + noise docs
    for g in range(5):
        base = " ".join(
            f"g{g}w{i}" for i in range(40 + int(rng.integers(0, 20)))
        )
        for copy in range(int(rng.integers(2, 4))):
            rows.append((f"r{g}", f"f{copy}.py", f"c{g}{copy}", base))
    for n in range(20):
        rows.append(
            ("rx", f"n{n}.py", f"cn{n}",
             " ".join(f"uniq{n}w{i}" for i in range(50)))
        )
    table = pa.table(
        {
            "repo": [r[0] for r in rows],
            "path": [r[1] for r in rows],
            "commit": [r[2] for r in rows],
            "lang": ["python"] * len(rows),
            "content": [r[3] for r in rows],
        }
    )
    ds = (
        ray.data.from_arrow(table)
        .map_batches(assign_ids, batch_format="pyarrow")
        .map_batches(MinHashStage, batch_format="pyarrow", concurrency=1)
        .materialize()
    )
    uf = lsh_clusters(ds, "signature_sim0.8")
    table = clusters_table(
        cluster_labels(ds, distributed=True, num_partitions=4)
    )
    dist = dict(
        zip(
            table.column("id_int").to_pylist(),
            table.column("cluster_id").to_pylist(),
        )
    )
    assert uf == dist
    # sanity: every exact-dup group collapsed to one cluster
    n_clusters = len(set(uf.values()))
    assert n_clusters == 5
