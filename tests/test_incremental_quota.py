"""Cross-run per-group quota (state/incremental.py
incremental_domain_cap): first-come semantics across snapshots,
same-run_id retry, exhausted-group drop, format guard, compaction,
and the CLI two-run flow."""

import hashlib
import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from redpajama_data_ray.functions.splits import (
    cap_per_group,
    group_kept_counts,
)
from redpajama_data_ray.state.incremental import (
    commit_run_quota_counts,
    compact_quota_state,
    incremental_domain_cap,
    seen_quota_rows,
)

SEED = 11


def _t(rows):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "source": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def _smallest(rows, group, k):
    """ids of the k smallest (md5hex16, str(id)) in `group`."""
    cand = sorted(
        (
            hashlib.md5(f"{SEED}:{i}".encode()).hexdigest()[:16],
            str(i),
            i,
        )
        for i, g in rows
        if g == group
    )
    return {i for _, _, i in cand[:k]}


def _run_and_commit(t, state, cap, run_id):
    out, rid = incremental_domain_cap(
        rd.from_arrow(t), str(state), cap,
        seed=SEED, run_id=run_id,
    )
    kept = out.to_pandas()
    # an exhausted run keeps zero rows; to_pandas drops the columns,
    # so rebuild the typed empty (the CLI path gets this from
    # _write_then_reread)
    kt = (
        pa.Table.from_pandas(kept, preserve_index=False)
        if len(kept)
        else t.schema.empty_table()
    )
    commit_run_quota_counts(
        group_kept_counts(rd.from_arrow(kt), "source"),
        str(state), rid, group_col="source",
    )
    return set(kept["doc_id"]) if len(kept) else set()


def test_two_run_first_come_semantics(tmp_path):
    state = tmp_path / "q"
    a = [(i, "x") for i in range(8)] + [(100 + i, "y") for i in range(3)]
    b = [(20 + i, "x") for i in range(4)] + [
        (200 + i, "y") for i in range(4)
    ] + [(300 + i, "z") for i in range(6)]

    kept1 = _run_and_commit(_t(a), state, 5, "r1")
    # run 1 == the plain (stateless) cap on snapshot A
    plain = cap_per_group(
        rd.from_arrow(_t(a)), 5, seed=SEED
    ).to_pandas()
    assert kept1 == set(plain["doc_id"])
    assert kept1 == _smallest(a, "x", 5) | _smallest(a, "y", 3)

    kept2 = _run_and_commit(_t(b), state, 5, "r2")
    # x exhausted (5 banked) -> drop-all; y keeps 2 = 5-3; z under cap
    assert kept2 == _smallest(b, "y", 2) | _smallest(b, "z", 5)


def test_same_run_id_retry_is_idempotent(tmp_path):
    state = tmp_path / "q"
    a = [(i, "x") for i in range(6)]
    b = [(50 + i, "x") for i in range(6)]
    _run_and_commit(_t(a), state, 4, "r1")
    kept2 = _run_and_commit(_t(b), state, 7, "r2")
    assert len(kept2) == 3  # 7 - 4 banked
    rows_after = seen_quota_rows(str(state), group_col="source")
    # retry r2: prior r2 commit excluded -> identical output; the
    # re-commit overwrites, leaving state rows unchanged
    kept2_retry = _run_and_commit(_t(b), state, 7, "r2")
    assert kept2_retry == kept2
    assert seen_quota_rows(str(state), group_col="source") == rows_after


def test_format_stamp_rejected(tmp_path):
    state = tmp_path / "q"
    d = state / "quota"
    d.mkdir(parents=True)
    (d / "FORMAT").write_text("grpquota-other-v0")
    with pytest.raises(ValueError, match="re-run from scratch"):
        incremental_domain_cap(
            rd.from_arrow(_t([(1, "x")])), str(state), 3, run_id="r1"
        )


def test_compaction_preserves_semantics_and_retry_contract(tmp_path):
    state = tmp_path / "q"
    snaps = [
        [(100 * r + i, "x") for i in range(3)] for r in range(4)
    ]
    for r, snap in enumerate(snaps[:3]):
        _run_and_commit(_t(snap), state, 10, f"r{r}")
    # 3 runs x 3 rows banked = 9; compact to fewer files
    n = compact_quota_state(str(state), max_files=1, group_col="source")
    assert n < 3
    # retry of a FOLDED run raises loudly
    with pytest.raises(ValueError, match="folded"):
        incremental_domain_cap(
            rd.from_arrow(_t(snaps[0])), str(state), 10, run_id="r0"
        )
    # a new run sees the same banked total: 10 - 9 = 1 kept
    kept = _run_and_commit(_t(snaps[3]), state, 10, "r9")
    assert kept == _smallest(snaps[3], "x", 1)


def test_cli_two_run_flow(tmp_path, capsys):
    from redpajama_data_ray.cli import main

    def snap(name, rows):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(_t(rows), str(d / "a.parquet"))
        return str(d)

    s1 = snap("s1", [(i, "x") for i in range(5)])
    s2 = snap("s2", [(10 + i, "x") for i in range(5)])
    state = str(tmp_path / "state")

    assert main(
        ["domain-cap", "--input", s1, "--output",
         str(tmp_path / "o1"), "--cap", "6", "--state-dir", state,
         "--run-id", "r1"]
    ) == 0
    r1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r1["rows"] == 5 and r1["run_id"] == "r1"

    assert main(
        ["domain-cap", "--input", s2, "--output",
         str(tmp_path / "o2"), "--cap", "6", "--state-dir", state,
         "--run-id", "r2"]
    ) == 0
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["rows"] == 1  # 6 - 5 banked
    total = rd.read_parquet(r1["output"]).count() + rd.read_parquet(
        r2["output"]
    ).count()
    assert total == 6


# ---- cross-run token budget ---------------------------------------

from redpajama_data_ray.functions.splits import group_kept_tokens  # noqa: E402
from redpajama_data_ray.state.incremental import (  # noqa: E402
    commit_run_token_budget,
    compact_token_budget_state,
    incremental_token_budget,
    seen_budget_rows,
)


def _tt(rows):
    """(doc_id, source, n_chars) fixture table."""
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "source": pa.array([r[1] for r in rows], pa.string()),
            "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _budget_prefix(rows, group, budget):
    """ids of the md5-order prefix of `group` under exclusive budget."""
    cand = sorted(
        (
            hashlib.md5(f"{SEED}:{i}".encode()).hexdigest()[:16],
            str(i),
            i,
            tk,
        )
        for i, g, tk in rows
        if g == group
    )
    keep, cum = set(), 0
    for _, _, i, tk in cand:
        if cum < budget:
            keep.add(i)
        cum += tk
    return keep


def _run_budget_and_commit(t, state, budget, run_id):
    out, rid = incremental_token_budget(
        rd.from_arrow(t), str(state), budget, "n_chars",
        seed=SEED, run_id=run_id,
    )
    kept = out.to_pandas()
    kt = (
        pa.Table.from_pandas(kept, preserve_index=False)
        if len(kept)
        else t.schema.empty_table()
    )
    commit_run_token_budget(
        group_kept_tokens(rd.from_arrow(kt), "source", "n_chars"),
        str(state), rid, token_col="n_chars", group_col="source",
    )
    return kept


def test_token_budget_two_run_first_come(tmp_path):
    state = tmp_path / "tb"
    a = [(i, "x", 100) for i in range(10)] + [
        (100 + i, "y", 100) for i in range(3)
    ]
    b = [(20 + i, "x", 100) for i in range(6)] + [
        (200 + i, "y", 100) for i in range(6)
    ]
    kept1 = _run_budget_and_commit(_tt(a), state, 500, "r1")
    assert set(kept1["doc_id"]) == _budget_prefix(a, "x", 500) | set(
        i for i, g, _ in a if g == "y"
    )  # y total 300 < 500: all kept
    banked_x = kept1[kept1.source == "x"]["n_chars"].sum()
    banked_y = kept1[kept1.source == "y"]["n_chars"].sum()
    assert banked_x == 500 and banked_y == 300

    kept2 = _run_budget_and_commit(_tt(b), state, 500, "r2")
    # x exhausted (banked 500) -> nothing; y keeps 200 more
    assert set(kept2["doc_id"]) == _budget_prefix(b, "y", 500 - 300)
    assert (kept2.source != "x").all()


def test_token_budget_retry_and_compaction(tmp_path):
    state = tmp_path / "tb"
    snaps = [
        [(100 * r + i, "x", 60) for i in range(3)] for r in range(4)
    ]
    for r, snap in enumerate(snaps[:3]):
        _run_budget_and_commit(_tt(snap), state, 10_000, f"r{r}")
    cols = dict(token_col="n_chars", group_col="source")
    rows_after = seen_budget_rows(str(state), **cols)
    # same-run_id retry: identical output, state rows unchanged
    k = _run_budget_and_commit(_tt(snaps[2]), state, 10_000, "r2")
    assert len(k) == 3
    assert seen_budget_rows(str(state), **cols) == rows_after
    # compaction folds older runs; retry-of-folded raises
    n = compact_token_budget_state(str(state), max_files=1, **cols)
    assert n < 3
    with pytest.raises(ValueError, match="folded"):
        incremental_token_budget(
            rd.from_arrow(_tt(snaps[0])), str(state), 10_000,
            "n_chars", run_id="r0",
        )
    # banked total 9 x 60 = 540 charges the next run's budget of 600:
    # 60 remaining -> exactly one 60-char doc kept
    kept = _run_budget_and_commit(_tt(snaps[3]), state, 600, "r9")
    assert len(kept) == 1


def test_token_budget_cli_two_run(tmp_path, capsys):
    from redpajama_data_ray.cli import main

    def snap(name, rows):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(_tt(rows), str(d / "a.parquet"))
        return str(d)

    s1 = snap("s1", [(i, "x", 100) for i in range(5)])
    s2 = snap("s2", [(10 + i, "x", 100) for i in range(5)])
    state = str(tmp_path / "state")
    assert main(
        ["token-budget", "--input", s1, "--output",
         str(tmp_path / "o1"), "--budget", "600",
         "--state-dir", state, "--run-id", "r1"]
    ) == 0
    r1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r1["rows"] == 5  # 500 < 600: all kept
    assert main(
        ["token-budget", "--input", s2, "--output",
         str(tmp_path / "o2"), "--budget", "600",
         "--state-dir", state, "--run-id", "r2"]
    ) == 0
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["rows"] == 1  # 100 remaining -> one 100-char doc


def test_token_budget_empty_run_commit_keeps_state_readable(
    tmp_path, capsys
):
    """A fully-exhausted run writes NOTHING; its (empty) state commit
    must stay float64-typed or the parquet-dir schema merge wedges
    every later run."""
    from redpajama_data_ray.cli import main

    def snap(name, rows):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(_tt(rows), str(d / "a.parquet"))
        return str(d)

    state = str(tmp_path / "state")
    s1 = snap("s1", [(i, "x", 100) for i in range(5)])
    s2 = snap("s2", [(10 + i, "x", 100) for i in range(5)])
    s3 = snap("s3", [(20 + i, "x", 100) for i in range(5)])
    assert main(
        ["token-budget", "--input", s1, "--output",
         str(tmp_path / "o1"), "--budget", "300",
         "--state-dir", state, "--run-id", "r1"]
    ) == 0
    capsys.readouterr()
    # exhausted: writes an EMPTY dataset, commits an empty state file
    assert main(
        ["token-budget", "--input", s2, "--output",
         str(tmp_path / "o2"), "--budget", "300",
         "--state-dir", state, "--run-id", "r2"]
    ) == 0
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["rows"] == 0
    # a third run must still read the state dir (schema merge intact)
    assert main(
        ["token-budget", "--input", s3, "--output",
         str(tmp_path / "o3"), "--budget", "300",
         "--state-dir", state, "--run-id", "r3"]
    ) == 0
    r3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r3["rows"] == 0  # still exhausted


# ---- fuzz: cross-run invariants under random snapshot splits ------

from hypothesis import given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402

_spec = st.tuples(
    st.integers(min_value=5, max_value=60),   # n rows
    st.integers(min_value=1, max_value=4),    # n groups
    st.integers(min_value=1, max_value=3),    # n snapshots
    st.integers(min_value=1, max_value=9),    # cap / budget scale
    st.randoms(use_true_random=False),
)


@settings(max_examples=12, deadline=None)
@given(spec=_spec)
def test_fuzz_incremental_quota_union_invariant(spec, tmp_path_factory):
    n, n_groups, n_snaps, cap, rnd = spec
    state = tmp_path_factory.mktemp("qf")
    rows = [
        (i, f"g{rnd.randrange(n_groups)}") for i in range(n)
    ]
    parts = [rows[i::n_snaps] for i in range(n_snaps)]
    kept_all = []
    for r, part in enumerate(parts):
        if not part:
            continue
        kept_all.append(
            _run_and_commit(_t(part), state, cap, f"r{r}")
        )
    union = set().union(*kept_all)
    import collections

    total = collections.Counter(g for _, g in rows)
    got = collections.Counter(
        g for i, g in rows if i in union
    )
    for g, tot in total.items():
        assert got[g] == min(cap, tot), (g, cap, tot, got[g])


@settings(max_examples=10, deadline=None)
@given(spec=_spec)
def test_fuzz_incremental_budget_window_invariant(
    spec, tmp_path_factory
):
    n, n_groups, n_snaps, scale, rnd = spec
    budget = scale * 40
    state = tmp_path_factory.mktemp("bf")
    rows = [
        (i, f"g{rnd.randrange(n_groups)}", rnd.randrange(0, 30))
        for i in range(n)
    ]
    parts = [rows[i::n_snaps] for i in range(n_snaps)]
    kept_tokens: dict = {}
    for r, part in enumerate(parts):
        if not part:
            continue
        kept = _run_budget_and_commit(_tt(part), state, budget, f"r{r}")
        for _, row in kept.iterrows():
            kept_tokens[row["source"]] = kept_tokens.get(
                row["source"], 0
            ) + int(row["n_chars"])
    import collections

    totals = collections.Counter()
    for _, g, tk in rows:
        totals[g] += tk
    for g, tot in totals.items():
        got = kept_tokens.get(g, 0)
        if tot < budget:
            assert got == tot, (g, got, tot)
        else:
            # combined kept lands in [budget, budget + one doc), and
            # zero-token boundary rows never push past it
            assert budget <= got + 1e-9 or got == tot, (g, got)
            assert got - budget < 30 or got == tot, (g, got)
