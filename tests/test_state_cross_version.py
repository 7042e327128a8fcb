"""Cross-version / cross-parameter incremental-state rejection at the
CLI surface.

The library guards are unit-tested (tests/test_incremental_dedup.py
rewrites FORMAT markers around the private helpers); these tests model
the flow a real user hits: a state dir committed by an OLDER engine
version (same parquet layout, different hash semantics — exactly the
splitmix64-v1 → v2 history) or by the SAME engine with different
parameters, probed through ``python -m redpajama_data_ray.cli``. Every
case must fail loudly with the named provenance error BEFORE any
output is written — silent acceptance would under-deduplicate (the
old hashes never match the new ones)."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from redpajama_data_ray.cli import main


def _fuzzy_input(d, ids, salt=b"A"):
    """Annotated-shaped minhash input: id_int + one signature column
    (9 bands of 8 raw bytes — the LSH layer only compares band
    bytes, so synthetic distinct signatures exercise the real path)."""
    os.makedirs(d)
    sigs = [
        [salt + bytes([i]) * 7 + bytes([b]) for b in range(9)]
        for i in ids
    ]
    pq.write_table(
        pa.table(
            {
                "id_int": pa.array(ids, pa.uint64()),
                "signature_sim0.8": pa.array(
                    sigs, pa.large_list(pa.binary())
                ),
            }
        ),
        os.path.join(d, "part.parquet"),
    )
    return str(d)


def _run(argv, capsys):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_fuzzy_band_state_from_older_engine_rejected(tmp_path, capsys):
    state = str(tmp_path / "state")
    _run(
        ["dedup-fuzzy", "--input", _fuzzy_input(tmp_path / "in1", [1, 2]),
         "--output", str(tmp_path / "o1"), "--state-dir", state,
         "--run-id", "r1"],
        capsys,
    )
    marker = os.path.join(state, "bands", "FORMAT")
    assert open(marker).read() == "splitmix64-v2"

    # the v1-era engine wrote the same (band_hash) parquet layout with
    # a different collapse hash — only the stamp distinguishes them
    with open(marker, "w") as f:
        f.write("splitmix64-v1")
    out2 = str(tmp_path / "o2")
    with pytest.raises(ValueError, match="band-hash format"):
        main(
            ["dedup-fuzzy", "--input",
             _fuzzy_input(tmp_path / "in2", [3, 4], salt=b"B"),
             "--output", out2, "--state-dir", state, "--run-id", "r2"]
        )
    assert not os.path.exists(out2)  # rejected before any write


def test_fuzzy_unstamped_legacy_band_state_rejected(tmp_path, capsys):
    state = str(tmp_path / "state")
    _run(
        ["dedup-fuzzy", "--input", _fuzzy_input(tmp_path / "in1", [1, 2]),
         "--output", str(tmp_path / "o1"), "--state-dir", state,
         "--run-id", "r1"],
        capsys,
    )
    os.remove(os.path.join(state, "bands", "FORMAT"))
    with pytest.raises(ValueError, match="predates"):
        main(
            ["dedup-fuzzy", "--input",
             _fuzzy_input(tmp_path / "in2", [3, 4], salt=b"B"),
             "--output", str(tmp_path / "o2"), "--state-dir", state,
             "--run-id", "r2"]
        )


def _text_input(d, texts):
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "doc_id": list(range(len(texts))),
                "text": texts,
            }
        ),
        os.path.join(d, "docs.parquet"),
    )
    return str(d)


def test_line_state_from_older_engine_rejected(tmp_path, capsys):
    state = str(tmp_path / "state")
    _run(
        ["dedup-lines", "--input",
         _text_input(tmp_path / "in1", ["a\nb", "c"]),
         "--output", str(tmp_path / "o1"), "--state-dir", state,
         "--run-id", "r1"],
        capsys,
    )
    marker = os.path.join(state, "lines", "FORMAT")
    assert open(marker).read() == "sha1x8le-flip-v1"
    with open(marker, "w") as f:
        f.write("sha1x8le-flip-v0")
    out2 = str(tmp_path / "o2")
    with pytest.raises(ValueError, match="key format"):
        main(
            ["dedup-lines", "--input",
             _text_input(tmp_path / "in2", ["d\ne"]),
             "--output", out2, "--state-dir", state, "--run-id", "r2"]
        )
    assert not os.path.exists(out2)


def test_spans_state_parameter_change_rejected(tmp_path, capsys):
    """Same engine, different (k, winnow_w): winnowing selection is
    content-defined PER parameter set, so counts from a k=50 run must
    never merge with a k=30 probe."""
    state = str(tmp_path / "state")
    doc = " ".join(f"tok{i}" for i in range(40))  # > k chars
    _run(
        ["dedup-spans", "--input", _text_input(tmp_path / "in1", [doc]),
         "--output", str(tmp_path / "o1"), "--state-dir", state,
         "--run-id", "r1"],
        capsys,
    )
    with pytest.raises(ValueError, match="key format"):
        main(
            ["dedup-spans", "--input",
             _text_input(tmp_path / "in2", [doc + " tail"]),
             "--output", str(tmp_path / "o2"), "--state-dir", state,
             "--run-id", "r2", "--k", "30"]
        )
    with pytest.raises(ValueError, match="key format"):
        main(
            ["dedup-spans", "--input",
             _text_input(tmp_path / "in3", [doc + " tail"]),
             "--output", str(tmp_path / "o3"), "--state-dir", state,
             "--run-id", "r3", "--winnow-w", "4"]
        )


def _content_input(d, texts):
    os.makedirs(d)
    pq.write_table(
        pa.table({"content": texts}), os.path.join(d, "docs.parquet")
    )
    return str(d)


def test_vocab_state_lowercase_change_rejected(tmp_path, capsys):
    """Token counts accumulated case-sensitive are a different
    histogram from lowercased ones; flipping --lowercase against the
    same state dir must be refused, not silently mixed."""
    state = str(tmp_path / "state")
    _run(
        ["vocab", "--input", _content_input(tmp_path / "in1", ["A b A"]),
         "--output", str(tmp_path / "o1"), "--state-dir", state,
         "--run-id", "r1"],
        capsys,
    )
    with pytest.raises(ValueError, match="key format"):
        main(
            ["vocab", "--input",
             _content_input(tmp_path / "in2", ["a c"]),
             "--output", str(tmp_path / "o2"), "--state-dir", state,
             "--run-id", "r2", "--lowercase"]
        )


def _keyed_input(d, rows):
    """Exact-dedup input: (doc_id, path, content_sha256) rows."""
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "doc_id": [r[0] for r in rows],
                "path": [r[1] for r in rows],
                "content_sha256": [r[2] for r in rows],
            }
        ),
        os.path.join(d, "docs.parquet"),
    )
    return str(d)


def test_exact_key_state_other_key_column_rejected(tmp_path, capsys):
    """The key state keeps only a ``key`` column: keys committed from
    --key content_sha256 compared against --key path values would
    match nothing and keep every duplicate, so the state dir records
    the key column and its type and refuses another."""
    state = str(tmp_path / "state")
    rows = [("d1", "a.py", "h1"), ("d2", "b.py", "h2")]
    _run(
        ["dedup-exact", "--input", _keyed_input(tmp_path / "in1", rows),
         "--output", str(tmp_path / "o1"), "--state-dir", state,
         "--run-id", "r1", "--key", "content_sha256",
         "--order-col", "doc_id"],
        capsys,
    )
    marker = os.path.join(state, "keys", "FORMAT")
    assert open(marker).read() == (
        "exact-keys-v1 key=content_sha256 type=string"
    )
    again = _keyed_input(tmp_path / "in2", rows)
    out2 = str(tmp_path / "o2")
    with pytest.raises(ValueError, match="key column"):
        main(
            ["dedup-exact", "--input", again, "--output", out2,
             "--state-dir", state, "--run-id", "r2", "--key", "path",
             "--order-col", "doc_id"]
        )
    assert not os.path.exists(out2)  # rejected before any write

    # unstamped state from before the stamp is refused like band state
    os.remove(marker)
    with pytest.raises(ValueError, match="predates"):
        main(
            ["dedup-exact", "--input", again, "--output", out2,
             "--state-dir", state, "--run-id", "r2",
             "--key", "content_sha256", "--order-col", "doc_id"]
        )
    assert not os.path.exists(out2)


def _grouped_input(d, rows):
    """Quota / budget input: (doc_id, source, lang, n_chars, n_lines)."""
    os.makedirs(d)
    names = ("doc_id", "source", "lang", "n_chars", "n_lines")
    pq.write_table(
        pa.table({n: [r[i] for r in rows] for i, n in enumerate(names)}),
        os.path.join(d, "docs.parquet"),
    )
    return str(d)


_GROUPED = [(i, "web", "en" if i % 2 else "fr", 100, 3) for i in range(6)]


def test_quota_state_other_group_column_rejected(tmp_path, capsys):
    """Quota state keeps (group_key, cnt) rows only: counts banked per
    --group-column source, read by a --group-column lang run, would
    match no group and grant every language its full cap again, so
    the state dir records the group column and refuses another."""
    state = str(tmp_path / "state")

    def cap(i, *extra):
        out = str(tmp_path / f"o{i}")
        argv = ["domain-cap", "--input",
                _grouped_input(tmp_path / f"in{i}", _GROUPED),
                "--output", out, "--cap", "4", "--state-dir", state,
                "--run-id", f"r{i}", *extra]
        return argv, out

    argv, _ = cap(1)
    assert _run(argv, capsys)["rows"] == 4
    marker = os.path.join(state, "quota", "FORMAT")
    assert open(marker).read() == "grpquota-str-v1 group=source"
    argv, out = cap(2, "--group-column", "lang")
    with pytest.raises(SystemExit, match="group=source"):
        main(argv)
    assert not os.path.exists(out)  # rejected before any write
    # the same column still runs against its banked counts
    argv, _ = cap(3)
    assert _run(argv, capsys)["rows"] == 0
    # a stamp from before the column was recorded is refused
    with open(marker, "w") as f:
        f.write("grpquota-str-v1")
    argv, out = cap(4)
    with pytest.raises(SystemExit, match="grpquota-str-v1"):
        main(argv)
    assert not os.path.exists(out)


def test_budget_state_other_group_or_token_column_rejected(
    tmp_path, capsys
):
    """Token-budget state keeps (group_key, cnt) sums only: it records
    the group and token columns and refuses a run over either other
    column, and a stamp from before they were recorded."""
    state = str(tmp_path / "state")

    def budget(i, *extra):
        out = str(tmp_path / f"o{i}")
        argv = ["token-budget", "--input",
                _grouped_input(tmp_path / f"in{i}", _GROUPED),
                "--output", out, "--budget", "300", "--state-dir", state,
                "--run-id", f"r{i}", *extra]
        return argv, out

    argv, _ = budget(1)
    assert _run(argv, capsys)["rows"] == 3
    marker = os.path.join(state, "token_budget", "FORMAT")
    assert open(marker).read() == (
        "grptok-str-f64-v1 group=source tokens=n_chars"
    )
    for i, extra in (
        (2, ["--group-column", "lang"]),
        (3, ["--token-column", "n_lines"]),
    ):
        argv, out = budget(i, *extra)
        with pytest.raises(SystemExit, match="tokens=n_chars"):
            main(argv)
        assert not os.path.exists(out)
    argv, _ = budget(4)
    assert _run(argv, capsys)["rows"] == 0  # 300 of 300 banked
    with open(marker, "w") as f:
        f.write("grptok-str-f64-v1")
    argv, out = budget(5)
    with pytest.raises(SystemExit, match="grptok-str-f64-v1"):
        main(argv)
    assert not os.path.exists(out)
