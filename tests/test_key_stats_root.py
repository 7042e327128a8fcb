"""Blocking invariance of the per-key stats combines.

The single-root path of ``key_stats`` / ``combine_counts`` must give
the same rows as the shuffle path (``distributed=True``) and as one
pyarrow group_by over the whole input, however the input is cut into
blocks: 1, 3 or 17 blocks, zero-row blocks and schema-less blocks left
by an upstream filter, null keys, all-distinct and single-key inputs,
ties at the min, and an empty input.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd
from hypothesis import example, given, settings, strategies as st

from redpajama_data_ray.dedupe.combine import combine_counts, key_stats

KEY = st.one_of(st.none(), st.integers(0, 5))


@st.composite
def blocked_rows(draw):
    """(rows, per-block flags): rows are (key, order, block, dropped);
    a block flagged schema-less comes out of the upstream map as a
    zero-column table."""
    n_blocks = draw(st.sampled_from([1, 3, 17]))
    rows = draw(
        st.lists(
            st.tuples(
                KEY,
                st.integers(0, 3),
                st.integers(0, n_blocks - 1),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    schemaless = draw(
        st.lists(st.booleans(), min_size=n_blocks, max_size=n_blocks)
    )
    return rows, schemaless


def _upstream(rows, schemaless, str_keys=False) -> rd.Dataset:
    """The rows in their blocks, behind a filter that drops the rows
    flagged ``dropped`` (leaving zero-row blocks) and empties the
    schema-less blocks."""
    tables = []
    for b, sl in enumerate(schemaless):
        mine = [r for r in rows if r[2] == b]
        keys = [r[0] for r in mine]
        if str_keys:
            keys = [None if k is None else f"k{k}" for k in keys]
        tables.append(
            pa.table(
                {
                    "k": pa.array(keys, pa.string() if str_keys else pa.int64()),
                    "o": pa.array([r[1] for r in mine], pa.int64()),
                    "drop": pa.array([r[3] for r in mine], pa.bool_()),
                    "sl": pa.array([sl] * len(mine), pa.bool_()),
                }
            )
        )

    def upstream_filter(t: pa.Table) -> pa.Table:
        if t.num_rows and t["sl"][0].as_py():
            return pa.table({})
        return t.filter(pc.invert(t["drop"])).select(["k", "o"])

    return rd.from_arrow(tables).map_batches(
        upstream_filter, batch_format="pyarrow", batch_size=None
    )


def _kept(rows, schemaless):
    return [r for r in rows if not r[3] and not schemaless[r[2]]]


def _oracle_stats(rows, track_ties, min_cnt):
    """One pyarrow group_by over the whole surviving input."""
    if not rows:
        return []
    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "o": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    g = t.group_by("k").aggregate([("o", "min"), ("o", "count")])
    out = []
    for k, mo, c in zip(
        g["k"].to_pylist(), g["o_min"].to_pylist(), g["o_count"].to_pylist()
    ):
        if min_cnt is not None and c < min_cnt:
            continue
        row = (k, mo, c)
        if track_ties:
            row += (sum(1 for r in rows if r[0] == k and r[1] == mo),)
        out.append(row)
    return _sorted(out)


def _sorted(rows):
    return sorted(rows, key=lambda r: (r[0] is not None, r))


def _rows(ds: rd.Dataset, cols) -> list:
    out = []
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows:
            out.extend(zip(*(b.column(c).to_pylist() for c in cols)))
    return _sorted(out)


@settings(max_examples=12, deadline=None)
@given(
    blocked_rows(),
    st.booleans(),
    st.sampled_from([None, 2, 3]),
)
@example(([], [False]), False, None)  # empty input
@example(([], [False, True, False]), True, 2)  # blocks, but no rows
@example(([(i, 0, i % 3, False) for i in range(5)], [False] * 3), True, None)
@example(([(1, 2, i % 17, False) for i in range(9)], [False] * 17), True, 2)
@example(  # ties at the min, spread over blocks, and a null key
    ([(1, 0, 0, False), (1, 0, 1, False), (1, 2, 2, False),
      (None, 1, 0, False), (None, 1, 2, False), (2, 3, 1, True)],
     [False, False, False]),
    True,
    2,
)
def test_key_stats_root_equals_shuffle_and_oracle(data, track_ties, min_cnt):
    rows, schemaless = data
    want = _oracle_stats(_kept(rows, schemaless), track_ties, min_cnt)
    cols = ["k", "min_order", "cnt"] + (["tie_cnt"] if track_ties else [])
    ds = _upstream(rows, schemaless)
    for distributed in (False, None, True):
        got = key_stats(
            ds, "k", "o", distributed=distributed,
            track_ties=track_ties, min_cnt=min_cnt,
        )
        assert _rows(got, cols) == want, distributed


@settings(max_examples=12, deadline=None)
@given(blocked_rows())
@example(([], [False]))
@example(([(None, 1, 0, False), (None, 2, 0, False)], [False]))
def test_combine_counts_root_equals_shuffle_and_oracle(data):
    rows, schemaless = data
    kept = _kept(rows, schemaless)
    want = []
    if kept:
        t = pa.table(
            {
                "k": pa.array([r[0] for r in kept], pa.int64()),
                "o": pa.array([r[1] for r in kept], pa.int64()),
            }
        )
        g = t.group_by("k").aggregate([("o", "sum")])
        want = _sorted(zip(g["k"].to_pylist(), g["o_sum"].to_pylist()))
    # pre-aggregated partials, as the callers build them: one
    # (key, cnt) row per distinct key per block
    partials = _upstream(rows, schemaless).map_batches(
        lambda t: t.group_by("k")
        .aggregate([("o", "sum")])
        .rename_columns(["k", "cnt"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    for distributed in (False, True):
        got = combine_counts(partials, "k", distributed=distributed)
        assert _rows(got, ["k", "cnt"]) == want, distributed


def test_key_stats_string_null_keys_on_every_path():
    """String keys with nulls: the root and the tracked shuffle keep
    the null key as one group, like pyarrow's group_by."""
    rows = [
        (1, 2, 0, False), (None, 1, 0, False), (1, 1, 1, False),
        (2, 5, 1, False), (None, 1, 2, False), (3, 3, 2, False),
    ]
    ds = _upstream(rows, [False] * 3, str_keys=True)
    want = [(None, 1, 2, 2), ("k1", 1, 2, 1)]
    cols = ["k", "min_order", "cnt", "tie_cnt"]
    for distributed in (False, True):
        got = key_stats(
            ds, "k", "o", distributed=distributed, track_ties=True,
            min_cnt=2,
        )
        assert _rows(got, cols) == want, distributed


def test_untracked_shuffle_stats_on_string_null_keys():
    rows = [(1, 2, 0, False), (None, 1, 1, False), (2, 5, 1, False)]
    ds = _upstream(rows, [False, False], str_keys=True)
    got = key_stats(ds, "k", "o", distributed=True)
    assert _rows(got, ["k", "cnt"]) == [(None, 1), ("k1", 1), ("k2", 1)]


def test_shuffle_counts_on_string_null_keys():
    """``combine_counts``' shuffle keeps a null string key as one group,
    like its root."""
    rows = [(1, 2, 0, False), (None, 1, 1, False), (None, 5, 1, False)]
    partials = _upstream(rows, [False, False], str_keys=True).map_batches(
        lambda t: t.group_by("k")
        .aggregate([("o", "count")])
        .rename_columns(["k", "cnt"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    for distributed in (False, True):
        got = combine_counts(partials, "k", distributed=distributed)
        assert _rows(got, ["k", "cnt"]) == [(None, 2), ("k1", 1)], distributed


def test_root_stats_execution_has_no_repartition(monkeypatch):
    """The root path executes the partial stage once, with no
    Repartition operator, and returns the root task's output."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    plans = []
    real = StreamingExecutor.execute

    def spy(self, dag, *a, **kw):
        plans.append(dag.dag_str)
        return real(self, dag, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    ds = rd.from_arrow(
        [pa.table({"k": [1, 1, 2], "o": [3, 1, 2]}),
         pa.table({"k": [2, 3], "o": [0, 4]})]
    ).map_batches(lambda t: t, batch_format="pyarrow")
    got = key_stats(ds, "k", "o", distributed=False, min_cnt=2)
    assert _rows(got, ["k", "min_order", "cnt"]) == [(1, 1, 2), (2, 0, 2)]
    partial_runs = [p for p in plans if "partial" in p]
    assert len(partial_runs) == 1, plans
    assert not any("Repartition" in p for p in plans), plans
