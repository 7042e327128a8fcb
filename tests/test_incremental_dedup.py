"""Cross-run incremental exact dedup (the reference bloomfilter.py
role: dedup new snapshots against persistent state)."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from redpajama_data_ray.cli import main
from redpajama_data_ray.state.incremental import (
    commit_run_keys,
    incremental_exact_dedup,
    seen_key_count,
)


def _table(keys, start=0):
    return pa.table(
        {
            "content_sha256": keys,
            "doc_id": [f"d{start + i:04d}" for i in range(len(keys))],
        }
    )


def _ids(ds):
    return sorted(
        x
        for b in ds.iter_batches(batch_format="pyarrow")
        for x in b.column("doc_id").to_pylist()
    )


def test_two_run_flow(tmp_path):
    state = str(tmp_path / "state")
    # run 1: within-run dup on k1
    t1 = _table(["k1", "k1", "k2", "k3"])
    d1, rid1 = incremental_exact_dedup(
        ray.data.from_arrow(t1), state, run_id="run1"
    )
    d1 = d1.materialize()
    assert len(_ids(d1)) == 3  # k1 deduped within run
    commit_run_keys(d1, state, rid1)
    assert seen_key_count(state) == 3

    # run 2: k2/k3 seen before -> dropped; k4 new; k5 within-run dup
    t2 = _table(["k2", "k3", "k4", "k5", "k5"], start=10)
    d2, rid2 = incremental_exact_dedup(
        ray.data.from_arrow(t2), state, run_id="run2"
    )
    d2 = d2.materialize()
    keys2 = sorted(
        x
        for b in d2.iter_batches(batch_format="pyarrow")
        for x in b.column("content_sha256").to_pylist()
    )
    assert keys2 == ["k4", "k5"]
    commit_run_keys(d2, state, rid2)
    assert seen_key_count(state) == 5

    # rerunning run2 (same run_id) is a RETRY: the state read excludes
    # run2's own committed file, so the snapshot dedups against run1
    # only and reproduces the first attempt's output; the re-commit
    # overwrites with the same keys (round 7 — previously the retry
    # emitted nothing and the overwrite WIPED run2's keys from state)
    d2b, _ = incremental_exact_dedup(
        ray.data.from_arrow(t2), state, run_id="run2"
    )
    d2b = d2b.materialize()
    assert sorted(
        x
        for b in d2b.iter_batches(batch_format="pyarrow")
        for x in b.column("content_sha256").to_pylist()
    ) == ["k4", "k5"]
    commit_run_keys(d2b, state, "run2")
    assert seen_key_count(state) == 5  # overwrite, not add


def test_join_path_above_broadcast_limit(tmp_path):
    state = str(tmp_path / "state")
    t1 = _table([f"k{i}" for i in range(50)])
    d1, rid = incremental_exact_dedup(
        ray.data.from_arrow(t1), state, run_id="a"
    )
    commit_run_keys(d1.materialize(), state, rid)
    # force the anti-join path with a tiny broadcast limit
    t2 = _table([f"k{i}" for i in range(40, 60)], start=100)
    d2, _ = incremental_exact_dedup(
        ray.data.from_arrow(t2), state, run_id="b", broadcast_limit=1
    )
    keys = sorted(
        x
        for b in d2.iter_batches(batch_format="pyarrow")
        for x in b.column("content_sha256").to_pylist()
    )
    assert keys == [f"k{i}" for i in range(50, 60)]


def test_approximate_mode_drops_seen(tmp_path):
    state = str(tmp_path / "state")
    t1 = _table([f"k{i}" for i in range(30)])
    d1, rid = incremental_exact_dedup(
        ray.data.from_arrow(t1), state, run_id="a"
    )
    commit_run_keys(d1.materialize(), state, rid)
    t2 = _table(["k0", "k1", "new1", "new2"], start=50)
    d2, _ = incremental_exact_dedup(
        ray.data.from_arrow(t2), state, run_id="b", approximate=True,
        error_rate=0.001,
    )
    keys = sorted(
        x
        for b in d2.iter_batches(batch_format="pyarrow")
        for x in b.column("content_sha256").to_pylist()
    )
    # bloom never keeps a true dup; at this capacity/error rate the
    # two new keys survive
    assert "k0" not in keys and "k1" not in keys
    assert keys == ["new1", "new2"]


def test_cli_incremental(tmp_path, capsys):
    src1 = tmp_path / "in1"
    src1.mkdir()
    pq.write_table(_table(["a", "b", "c"]), str(src1 / "p.parquet"))
    src2 = tmp_path / "in2"
    src2.mkdir()
    pq.write_table(_table(["b", "c", "d"], start=10), str(src2 / "p.parquet"))
    state = str(tmp_path / "state")

    assert main(
        [
            "dedup-exact", "--input", str(src1),
            "--output", str(tmp_path / "o1"), "--state-dir", state,
            "--run-id", "r1",
        ]
    ) == 0
    r1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r1["rows"] == 3 and r1["state_keys"] == 3

    assert main(
        [
            "dedup-exact", "--input", str(src2),
            "--output", str(tmp_path / "o2"), "--state-dir", state,
            "--run-id", "r2",
        ]
    ) == 0
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["rows"] == 1 and r2["state_keys"] == 4  # only "d" new

    # the state commit is derived from the WRITTEN parquet (no
    # corpus-sized materialize on the CLI path): committed keys must
    # equal the union of keys in the written outputs
    import glob

    import pyarrow.parquet as pqr

    written = set()
    for d in ("o1", "o2"):
        for f in glob.glob(str(tmp_path / d / "*.parquet")):
            written.update(
                pqr.read_table(f, columns=["content_sha256"])
                .column("content_sha256")
                .to_pylist()
            )
    state_keys = set()
    for f in glob.glob(str(tmp_path / "state" / "keys" / "*.parquet")):
        state_keys.update(
            pqr.read_table(f).column("key").to_pylist()
        )
    assert state_keys == written == {"a", "b", "c", "d"}

    # reusing a non-empty output dir must be refused (the state commit
    # re-reads the written files; mixing runs would corrupt it)
    import pytest as _pytest

    with _pytest.raises(SystemExit):
        main(
            [
                "dedup-exact", "--input", str(src2),
                "--output", str(tmp_path / "o2"), "--state-dir", state,
                "--run-id", "r3",
            ]
        )


# ---------------- incremental FUZZY dedup ----------------

from redpajama_data_ray.state.incremental import (
    commit_run_bands,
    incremental_fuzzy_dedup,
    seen_band_count,
)


def _sig_rows(clusters, prefix, start_id):
    """Near-dup cluster signature rows (>=0.9 shingle Jaccard)."""
    from redpajama_data_ray.functions.minhash import MinHasher

    mh = MinHasher()
    ids, sigs = [], []
    nid = start_id
    for c, size in clusters:
        base = [f"{prefix}{c}tok{i}" for i in range(150)]
        for m in range(size):
            w = list(base)
            if m:
                w[70 + m] = f"{prefix}{c}sub{m}"
            ids.append(nid)
            sigs.append(mh.banded_signatures(w)["signature_sim0.8"])
            nid += 1
    return pa.table(
        {
            "id_int": pa.array(ids, pa.uint64()),
            "signature_sim0.8": pa.array(
                sigs, pa.list_(pa.binary())
            ),
        }
    ), nid


def test_incremental_fuzzy_two_runs(tmp_path):
    state = str(tmp_path / "state")
    # run 1: two clusters of 3 near-dups
    t1, next_id = _sig_rows([("a", 3), ("b", 3)], "r1", 1)
    d1, rid1 = incremental_fuzzy_dedup(
        ray.data.from_arrow(t1), state, run_id="f1"
    )
    d1 = d1.materialize()
    n1 = d1.count()
    assert n1 < 6  # within-run near-dups collapsed
    commit_run_bands(d1, state, rid1)
    assert seen_band_count(state) > 0

    # run 2: a NEAR-DUP of run-1 cluster "a" + a brand new cluster
    from redpajama_data_ray.functions.minhash import MinHasher

    mh = MinHasher()
    base_a = [f"r1atok{i}" for i in range(150)]
    near_a = list(base_a)
    near_a[100] = "changed"
    t2 = pa.table(
        {
            "id_int": pa.array([100, 101], pa.uint64()),
            "signature_sim0.8": pa.array(
                [
                    mh.banded_signatures(near_a)["signature_sim0.8"],
                    mh.banded_signatures(
                        [f"fresh{i}" for i in range(150)]
                    )["signature_sim0.8"],
                ],
                pa.list_(pa.binary()),
            ),
        }
    )
    d2, rid2 = incremental_fuzzy_dedup(
        ray.data.from_arrow(t2), state, run_id="f2"
    )
    d2 = d2.materialize()
    ids2 = sorted(
        x
        for b in d2.iter_batches(batch_format="pyarrow")
        for x in b.column("id_int").to_pylist()
    )
    # near-dup of run-1 content dropped; fresh doc kept
    assert 101 in ids2 and 100 not in ids2
    commit_run_bands(d2, state, rid2)


def test_incremental_fuzzy_join_path(tmp_path):
    state = str(tmp_path / "state")
    t1, next_id = _sig_rows([("x", 2)], "j", 1)
    d1, rid = incremental_fuzzy_dedup(
        ray.data.from_arrow(t1), state, run_id="a"
    )
    commit_run_bands(d1.materialize(), state, rid)
    # force the join path with a tiny broadcast limit
    t2, _ = _sig_rows([("x", 1), ("new", 1)], "j", 50)
    d2, _ = incremental_fuzzy_dedup(
        ray.data.from_arrow(t2), state, run_id="b", broadcast_limit=1
    )
    ids = sorted(
        x
        for b in d2.iter_batches(batch_format="pyarrow")
        for x in b.column("id_int").to_pylist()
    )
    # the jx-cluster doc (id 50) matches committed bands; jnew (51) kept
    assert ids == [51]


def test_incremental_fuzzy_both_joins_match_broadcast(tmp_path, monkeypatch):
    """Both size switches of incremental_fuzzy_dedup forced to their
    join side (band state by ``broadcast_limit``, hit-id delivery by
    ``DEFAULT_MASK_BROADCAST_LIMIT``) drop the same rows as the
    broadcast side, with ids on both sides of 2^63 and a nested
    payload column carried through."""
    import redpajama_data_ray.dedupe.apply as apply_mod

    state = str(tmp_path / "state")
    t1, _ = _sig_rows([("x", 1), ("y", 1)], "j", 1)
    d1, rid = incremental_fuzzy_dedup(
        ray.data.from_arrow(t1), state, run_id="a"
    )
    commit_run_bands(d1.materialize(), state, rid)
    # x and y repeat run a's documents exactly: x below 2^63, y above
    t2, _ = _sig_rows(
        [("x", 1), ("new", 1), ("y", 1), ("new2", 1)], "j", 2**63 - 2
    )
    t2 = t2.append_column(
        "tags", pa.array([[i, i + 1] for i in range(t2.num_rows)])
    )

    def rows(ds):
        return sorted(
            row
            for b in ds.iter_batches(batch_format="pyarrow")
            for row in zip(
                b.column("id_int").to_pylist(), b.column("tags").to_pylist()
            )
        )

    via_mask, _ = incremental_fuzzy_dedup(
        ray.data.from_arrow(t2), state, run_id="b"
    )
    monkeypatch.setattr(apply_mod, "DEFAULT_MASK_BROADCAST_LIMIT", 0)
    via_join, _ = incremental_fuzzy_dedup(
        ray.data.from_arrow(t2), state, run_id="b", broadcast_limit=1
    )
    assert rows(via_join) == rows(via_mask) == [
        (2**63 - 1, [1, 2]),
        (2**63 + 1, [3, 4]),
    ]
    assert via_join.schema().base_schema.field("id_int").type == pa.uint64()


def test_join_path_pack_fallback(tmp_path, monkeypatch):
    """Round 3: the large-state delivery is a narrow semi-join + mask;
    a zero DEFAULT_MASK_BROADCAST_LIMIT forces the full-width
    pack+anti-join fallback — both must drop the same rows (with a
    nested column present)."""
    import pyarrow as pa
    import ray.data

    import redpajama_data_ray.dedupe.apply as apply_mod
    from redpajama_data_ray.state.incremental import (
        commit_run_keys,
        incremental_exact_dedup,
    )

    state = str(tmp_path / "st")
    t1 = pa.table(
        {
            "content_sha256": [f"k{i}" for i in range(20)],
            "doc_id": [f"a{i}" for i in range(20)],
            "sig": pa.array([[b"x"]] * 20, pa.list_(pa.binary())),
        }
    )
    d1, r1 = incremental_exact_dedup(
        ray.data.from_arrow(t1), state, run_id="a"
    )
    d1 = d1.materialize()
    commit_run_keys(d1, state, r1)
    t2 = pa.table(
        {
            "content_sha256": [f"k{i}" for i in range(10, 30)],
            "doc_id": [f"b{i}" for i in range(20)],
            "sig": pa.array([[b"y"]] * 20, pa.list_(pa.binary())),
        }
    )

    def _ids(ds):
        return sorted(
            x
            for b in ds.iter_batches(batch_format="pyarrow")
            for x in b.column("doc_id").to_pylist()
        )

    via_mask, _ = incremental_exact_dedup(
        ray.data.from_arrow(t2), state, run_id="b", broadcast_limit=1
    )
    monkeypatch.setattr(apply_mod, "DEFAULT_MASK_BROADCAST_LIMIT", 0)
    via_pack, _ = incremental_exact_dedup(
        ray.data.from_arrow(t2), state, run_id="b", broadcast_limit=1
    )
    assert _ids(via_mask) == _ids(via_pack) == [f"b{i}" for i in range(10, 20)]


def test_band_state_format_guard(tmp_path):
    """Band state written under a different band-hash format must be
    rejected loudly (silent under-dedup otherwise)."""
    import os

    import pytest as _pytest

    from redpajama_data_ray.state.incremental import (
        BAND_HASH_FORMAT,
        _bands_dir,
    )

    state = str(tmp_path / "st")
    d = _bands_dir(state)  # stamps the current format
    assert open(os.path.join(d, "FORMAT")).read() == BAND_HASH_FORMAT
    _bands_dir(state)  # idempotent re-open OK

    with open(os.path.join(d, "FORMAT"), "w") as f:
        f.write("blake2b-v1")
    with _pytest.raises(ValueError, match="band-hash format"):
        _bands_dir(state)

    # unstamped legacy state with data also rejected
    state2 = str(tmp_path / "st2")
    d2 = os.path.join(state2, "bands")
    os.makedirs(d2)
    open(os.path.join(d2, "old.parquet"), "wb").close()
    with _pytest.raises(ValueError, match="predates"):
        _bands_dir(state2)


def test_exact_dedup_rejects_foreign_state_dir(tmp_path):
    """Pointing dedup-exact at another family's state dir (e.g. the
    fuzzy band state) must fail naming the problem, not as a deep
    ArrowInvalid about FieldRef 'key'."""
    import os

    import pytest

    os.makedirs(tmp_path / "keys", exist_ok=True)
    pq.write_table(
        pa.table({"band_hash": [1, 2, 3]}),
        tmp_path / "keys" / "r0.parquet",
    )
    ds = ray.data.from_arrow(
        pa.table({"content": ["a", "b"], "doc_id": ["1", "2"]})
    )
    with pytest.raises(ValueError, match="state dir"):
        incremental_exact_dedup(
            ds, str(tmp_path), key="content", order_col="doc_id",
            run_id="r1",
        )


def test_counts_state_format_guard(tmp_path):
    """The count-partial state families (line / substring-fingerprint /
    vocab) share _counts_dir; a dir stamped under a different key
    format — or unstamped legacy data — must be rejected loudly
    through the PUBLIC incremental entry points, not just the helper
    (silent cross-format mixing would under-deduplicate)."""
    import os

    import pytest as _pytest

    from redpajama_data_ray.state.incremental import (
        LINE_KEY_FORMAT,
        _counts_dir,
        incremental_line_dedup,
        incremental_substring_dedup,
    )

    ds = ray.data.from_arrow(
        pa.table({"content": ["a\nb", "b\nc"], "doc_id": ["1", "2"]})
    )

    # stamped mismatch: rewrite the marker to an older format
    state = str(tmp_path / "st")
    d = _counts_dir(state, "lines", LINE_KEY_FORMAT)
    assert open(os.path.join(d, "FORMAT")).read() == LINE_KEY_FORMAT
    with open(os.path.join(d, "FORMAT"), "w") as f:
        f.write("sha1x8le-flip-v0")
    with _pytest.raises(ValueError, match="key format"):
        incremental_line_dedup(
            ds, state, text_col="content", run_id="r1"
        )

    # unstamped legacy dir with data
    state2 = str(tmp_path / "st2")
    d2 = os.path.join(state2, "lines")
    os.makedirs(d2)
    open(os.path.join(d2, "old.parquet"), "wb").close()
    with _pytest.raises(ValueError, match="predates"):
        incremental_line_dedup(
            ds, state2, text_col="content", run_id="r1"
        )

    # the fingerprint family's stamp additionally pins (k, winnow_w):
    # same dir re-opened with different span parameters must reject
    state3 = str(tmp_path / "st3")
    out3, rid3, _counts3 = incremental_substring_dedup(
        ds, state3, text_col="content", id_col="doc_id",
        run_id="r1", k=8, winnow_w=0,
    )
    out3.materialize()
    with _pytest.raises(ValueError, match="key format"):
        incremental_substring_dedup(
            ds, state3, text_col="content", id_col="doc_id",
            run_id="r2", k=12, winnow_w=0,
        )


def test_same_run_id_retry_is_idempotent(tmp_path):
    # an orchestrator retry recomputes the SAME snapshot under the
    # SAME run_id after a successful commit; the state read must
    # exclude the run's own prior file or the snapshot dedups against
    # its own keys and emits nothing
    state = str(tmp_path / "st")
    ds = ray.data.from_arrow(_table(["a", "b", "c", "a"]))
    d1, rid = incremental_exact_dedup(ds, state, run_id="r1")
    first = _ids(d1)
    assert len(first) == 3
    commit_run_keys(d1.materialize(), state, "r1")
    d1b, _ = incremental_exact_dedup(ds, state, run_id="r1")
    assert _ids(d1b) == first  # was: [] before the exclude fix
    commit_run_keys(d1b.materialize(), state, "r1")  # overwrite, not add
    assert seen_key_count(state) == 3
    # a DIFFERENT run_id on the same snapshot still dedups fully
    d2, _ = incremental_exact_dedup(ds, state, run_id="r2")
    assert _ids(d2) == []


def test_same_run_id_retry_vocab_and_topk(tmp_path):
    from redpajama_data_ray.state.incremental import (
        commit_run_token_counts,
        commit_run_top_summary,
        incremental_top_tokens,
        incremental_vocab,
    )

    texts = ["x x y", "y z"] * 4
    ds = ray.data.from_arrow(pa.table({"text": texts}))

    state = str(tmp_path / "vocab")
    tot1, rid, rc = incremental_vocab(ds, state, run_id="v1")
    t1 = sorted(
        zip(
            tot1.to_pandas()["token"], tot1.to_pandas()["cnt"]
        )
    )
    commit_run_token_counts(rc, state, "v1")
    tot2, _, _ = incremental_vocab(ds, state, run_id="v1")
    t2 = sorted(
        zip(
            tot2.to_pandas()["token"], tot2.to_pandas()["cnt"]
        )
    )
    assert t1 == t2  # was: doubled counts before the exclude fix

    state = str(tmp_path / "topk")
    r1, _, summ = incremental_top_tokens(ds, state, k=5, run_id="t1")
    commit_run_top_summary(summ, state, "t1")
    r2, _, _ = incremental_top_tokens(ds, state, k=5, run_id="t1")
    assert r1.equals(r2)  # was: ~2x est_count before the exclude fix


def test_same_run_id_retry_fuzzy(tmp_path):
    # retry contract for the band-state variant (same mechanism as
    # exact/vocab/topk but its own listing): rerunning a committed
    # run_id must reproduce the first attempt, not drop everything
    # against its own bands
    state = str(tmp_path / "state")
    t1, _ = _sig_rows([("a", 3), ("b", 2)], "q1", 1)
    d1, rid = incremental_fuzzy_dedup(
        ray.data.from_arrow(t1), state, run_id="fr1"
    )
    d1 = d1.materialize()
    ids_first = sorted(
        x
        for b in d1.iter_batches(batch_format="pyarrow")
        for x in b.column("id_int").to_pylist()
    )
    assert ids_first  # within-run survivors exist
    commit_run_bands(d1, state, "fr1")
    n_bands = seen_band_count(state)
    d1b, _ = incremental_fuzzy_dedup(
        ray.data.from_arrow(t1), state, run_id="fr1"
    )
    ids_retry = sorted(
        x
        for b in d1b.materialize().iter_batches(batch_format="pyarrow")
        for x in b.column("id_int").to_pylist()
    )
    assert ids_retry == ids_first  # was: [] before the exclude fix
    commit_run_bands(d1b.materialize(), state, "fr1")
    assert seen_band_count(state) == n_bands  # overwrite, not add
