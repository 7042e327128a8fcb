"""The fuzzy-dedup root labelling against a plain-Python union-find.

Below ``TREE_STATS_LIMIT`` band rows, ``fuzzy_dedup`` labels the
clusters in one numpy root task (``lsh._label_root``). Its labels, and
the survivors, must equal a sequential union-find over the same
``(band, id)`` rows however the graph is shaped and the rows are cut
into blocks: long shuffled paths, stars, mostly singletons, ids above
2^63, an id that repeats a band on its own, null signatures, 1, 3 or
17 blocks with zero-row ones among them, and an empty input.
"""

from collections import Counter
from typing import Dict

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd
from hypothesis import example, given, settings, strategies as st

from redpajama_data_ray.dedupe.lsh import (
    _label_root,
    clusters_table,
    fuzzy_dedup,
)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != x:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # attach larger id under smaller so min ids win representative
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb


def _oracle(rows) -> Dict[int, int]:
    """id -> min id of its component, for every id that some band
    links to another id; rows are ``(band, id)`` in stream order."""
    uf = _UnionFind()
    first: Dict[object, int] = {}
    for band, i in rows:
        if band in first:
            uf.union(first[band], i)
        else:
            first[band] = i
    clusters = {node: uf.find(node) for node in list(uf.parent)}
    for root in set(clusters.values()):
        clusters.setdefault(root, root)
    return clusters


# ids start just above 1, just below 2^63 (so components straddle the
# top bit) and just below 2^64
ID_BASES = [1, 2**63 - 7, 2**64 - 2**12]


@st.composite
def band_graphs(draw, max_size=6):
    """(hyperedges, n_nodes, id of each node): each hyperedge is the
    node list of one band. Component kinds: a path linked pairwise, a
    star whose centre shares one band with each leaf, one band held by
    all members, singletons, and a node repeating a band alone."""
    parts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["path", "star", "band", "single", "self"]),
                st.sampled_from([2, 3, 17, 257]),
            ),
            max_size=max_size,
        )
    )
    edges, n = [], 0
    for kind, size in parts:
        if kind == "path":
            edges += [[n + k, n + k + 1] for k in range(size - 1)]
        elif kind == "star":
            size = min(size, 17)
            edges += [[n, n + k] for k in range(1, size)]
        elif kind == "band":
            edges.append(list(range(n, n + size)))
        elif kind == "single":
            edges += [[n + k] for k in range(size)]
        else:
            size = 1
            edges.append([n, n])
        n += size
    base = draw(st.sampled_from(ID_BASES))
    # shuffled id order, so a path's min id sits anywhere along it
    perm = _rng(draw).permutation(n).tolist()
    return edges, n, [base + p for p in perm]


def _rng(draw) -> np.random.Generator:
    # one drawn seed per shuffle: a drawn permutation of ~1,500 items
    # would overrun hypothesis' choice budget
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _shuffled(draw, items: list) -> list:
    return [items[i] for i in _rng(draw).permutation(len(items))]


def _cut(draw, items, n_blocks):
    """``items`` cut into ``n_blocks`` consecutive runs, empty runs
    allowed."""
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, len(items)),
                min_size=n_blocks - 1,
                max_size=n_blocks - 1,
            )
        )
    )
    bounds = [0] + cuts + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _band_hash(b: int) -> int:
    # spread band numbers over the whole uint64 range, top bit included
    return (b * 0x9E3779B97F4A7C15 + 1) % 2**64


@st.composite
def root_inputs(draw):
    """(rows, blocks): ``(band_hash, id)`` rows in a shuffled stream
    order, and the same rows as 1, 3 or 17 Arrow blocks, some of them
    zero-row (typed or schema-less)."""
    edges, _, ids = draw(band_graphs())
    rows = [(_band_hash(b), ids[v]) for b, e in enumerate(edges) for v in e]
    rows = _shuffled(draw, rows)
    blocks = []
    for part in _cut(draw, rows, draw(st.sampled_from([1, 3, 17]))):
        if not part and draw(st.booleans()):
            blocks.append(pa.table({}))
            continue
        blocks.append(
            pa.table(
                {
                    "band_hash": pa.array([r[0] for r in part], pa.uint64()),
                    "id_int": pa.array([r[1] for r in part], pa.uint64()),
                }
            )
        )
    return rows, blocks


def _path_rows(n: int, base: int = 1):
    return [
        (_band_hash(k), base + v) for k in range(n - 1) for v in (k, k + 1)
    ]


@settings(max_examples=40, deadline=None)
@given(root_inputs())
@example(([], [pa.table({})]))  # empty input
@example(  # one id repeating a band alone links nothing
    (
        [(7, 5), (7, 5)],
        [
            pa.table(
                {
                    "band_hash": pa.array([7, 7], pa.uint64()),
                    "id_int": pa.array([5, 5], pa.uint64()),
                }
            )
        ],
    )
)
def test_root_labels_equal_union_find(data):
    rows, blocks = data
    want = _oracle(rows)
    labels_ref, drop_ref = _label_root.remote(*blocks)
    labels, drop = ray.get([labels_ref, drop_ref])
    ids = labels.column("id_int").to_pylist()
    assert ids == sorted(want)
    assert dict(zip(ids, labels.column("cluster_id").to_pylist())) == want
    assert drop.dtype == np.uint64
    assert drop.tolist() == sorted(i for i, c in want.items() if i != c)


def test_root_labels_long_shuffled_path():
    """A 300-id path (diameter 299), ids above 2^63, rows shuffled."""
    rows = _path_rows(300, base=2**63 + 11)
    order = np.random.default_rng(5).permutation(len(rows))
    rows = [rows[i] for i in order]
    block = pa.table(
        {
            "band_hash": pa.array([r[0] for r in rows], pa.uint64()),
            "id_int": pa.array([r[1] for r in rows], pa.uint64()),
        }
    )
    labels, drop = ray.get(list(_label_root.remote(block)))
    assert set(labels.column("cluster_id").to_pylist()) == {2**63 + 11}
    assert len(drop) == 299


def _sig_rows(edges, n, ids, null_nodes=()):
    """Corpus rows whose band signatures realize ``edges``: each
    hyperedge gets a signature position no member uses for another
    band (greedy colouring), unused positions get a filler band unique
    to the node, and ``null_nodes`` get a null signature."""
    pos_of, used = {}, [set() for _ in range(n)]
    for b, e in enumerate(edges):
        p = 0
        while any(p in used[v] for v in e):
            p += 1
        pos_of[b] = p
        for v in e:
            used[v].add(p)
    sig = [dict() for _ in range(n)]
    for b, e in enumerate(edges):
        for v in e:
            sig[v][pos_of[b]] = b"b" + b.to_bytes(8, "little")
    rows = []
    for v in range(n):
        if v in null_nodes:
            rows.append((ids[v], None))
            continue
        width = max(sig[v], default=0) + 1
        rows.append(
            (
                ids[v],
                [
                    sig[v].get(p, b"f" + (v * 64 + p).to_bytes(8, "little"))
                    for p in range(width)
                ],
            )
        )
    return rows


def _band_stream(rows):
    """The ``(band, id)`` rows the explode emits, in row order."""
    return [
        ((p, band), i)
        for i, s in rows
        if s is not None
        for p, band in enumerate(s)
    ]


def _table(rows) -> pa.Table:
    return pa.table(
        {
            "id_int": pa.array([r[0] for r in rows], pa.uint64()),
            "signature_sim0.8": pa.array(
                [r[1] for r in rows], pa.list_(pa.binary())
            ),
        }
    )


def _dataset(blocks) -> rd.Dataset:
    return rd.from_arrow([_table(b) for b in blocks])


def _survivors(ds) -> list:
    return sorted(
        x
        for b in ds.iter_batches(batch_format="pyarrow")
        for x in b.column("id_int").to_pylist()
    )


def _expected(rows):
    want = _oracle(_band_stream(rows))
    dropped = {i for i, c in want.items() if i != c}
    return want, sorted(i for i, _ in rows if i not in dropped)


@st.composite
def corpora(draw):
    """Corpus rows cut into 1, 3 or 17 blocks (zero-row ones included),
    with some null signatures and a row repeated under its own id."""
    edges, n, ids = draw(band_graphs(max_size=4))
    nulls = set()
    if n:
        nulls = set(draw(st.lists(st.integers(0, n - 1), max_size=2)))
    rows = _sig_rows(edges, n, ids, nulls)
    if rows and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    rows = _shuffled(draw, rows)
    return rows, _cut(draw, rows, draw(st.sampled_from([1, 3, 17])))


@settings(max_examples=10, deadline=None)
@given(corpora())
@example(([], [[]]))  # empty input
def test_fuzzy_dedup_root_equals_union_find(data):
    rows, blocks = data
    want, survivors = _expected(rows)
    deduped, clusters = fuzzy_dedup(_dataset(blocks))
    assert clusters == want
    assert _survivors(deduped) == survivors


# fixed graphs for the distributed path (~15 s a call): a short path
# across the top bit with a null signature, a star, a one-band
# cluster, and (row 4 repeated) an id whose bands repeat only within
# its own rows
_FIXED = [
    (
        [[0, 1], [1, 2], [2, 3], [4, 5], [4, 6], [4, 7], [8]],
        9,
        [2**63 - 2 + k for k in (3, 0, 5, 1, 8, 2, 7, 6, 4)],
        {8},
    ),
    ([[0, 1, 2, 3], [4], [5, 6]], 7, [10, 3, 7, 1, 2**64 - 1, 9, 4], set()),
]


def test_fuzzy_dedup_distributed_equals_union_find():
    for edges, n, ids, nulls in _FIXED:
        rows = _sig_rows(edges, n, ids, nulls)
        rows.append(rows[4])
        want, survivors = _expected(rows)
        blocks = [rows[:3], [], rows[3:]]
        root_ds, root_clusters = fuzzy_dedup(_dataset(blocks))
        dist_ds, dist_labels = fuzzy_dedup(
            _dataset(blocks), distributed=True, num_partitions=2
        )
        assert root_clusters == want
        assert _survivors(root_ds) == survivors == _survivors(dist_ds)
        # the distributed path also labels an id whose only repeated
        # bands are its own, with itself; its multi-id clusters match
        t = clusters_table(dist_labels)
        dist = dict(
            zip(
                t.column("id_int").to_pylist(),
                t.column("cluster_id").to_pylist(),
            )
        )
        sizes = Counter(dist.values())
        assert {i: c for i, c in dist.items() if sizes[c] > 1} == want


def test_26_id_chain_is_one_cluster():
    """Ids 1-26 linked pairwise by one band each: the distributed
    path's 20-round cap once split this chain; the auto path labels
    every id 1."""
    edges = [[k, k + 1] for k in range(25)]
    rows = _sig_rows(edges, 26, list(range(1, 27)))
    deduped, clusters = fuzzy_dedup(rd.from_arrow(_table(rows)))
    assert clusters == {i: 1 for i in range(1, 27)}
    assert _survivors(deduped) == [1]


def test_auto_path_runs_no_member_stream_or_band_count(monkeypatch):
    """The auto path executes the explode once, then hands its blocks
    to the root: no ``MapBatches(members)`` stream to the driver and
    no ``key_stats`` partial stage."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    plans = []
    real = StreamingExecutor.execute

    def spy(self, dag, *a, **kw):
        plans.append(dag.dag_str)
        return real(self, dag, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    rows = _sig_rows([[0, 1, 2], [3, 4], [5]], 6, [6, 5, 4, 3, 2, 1])
    deduped, clusters = fuzzy_dedup(_dataset([rows[:3], rows[3:]]))
    assert _survivors(deduped) == [1, 2, 4]
    assert clusters == {6: 4, 5: 4, 4: 4, 3: 2, 2: 2}
    assert any("_explode" in p for p in plans), plans
    assert not any("members" in p or "partial" in p for p in plans), plans
