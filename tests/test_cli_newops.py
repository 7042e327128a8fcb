"""CLI surface of the round-3 operators (mix / pack / chunk / vocab /
semdedup)."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from redpajama_data_ray.cli import main


def _docs_dir(tmp_path, n=60):
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "source": pa.array(
                [f"s{i % 3}" for i in range(n)], pa.string()
            ),
            "text": pa.array(
                [f"tok{i} alpha beta gamma delta" for i in range(n)],
                pa.string(),
            ),
        }
    )
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    return str(d)


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_mix(tmp_path, capsys):
    src = _docs_dir(tmp_path)
    out = str(tmp_path / "mix")
    assert main(
        ["mix", "--input", src, "--output", out,
         "--weight", "s0=1.0", "--weight", "s1=0.0",
         "--default-weight", "0.5"]
    ) == 0
    df = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    assert set(df[df.source == "s0"].doc_id) == set(range(0, 60, 3))
    assert (df.source != "s1").all()


def test_cli_pack_chunk_vocab(tmp_path, capsys):
    src = _docs_dir(tmp_path)

    out = str(tmp_path / "pack")
    assert main(
        ["pack", "--input", src, "--output", out, "--seq-len", "16",
         "--n-buckets", "2", "--text-column", "text"]
    ) == 0
    packed = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    # 60 docs x (5 tokens + EOS) = 360 stream tokens
    assert packed.n_tokens.sum() == 360

    out = str(tmp_path / "chunk")
    assert main(
        ["chunk", "--input", src, "--output", out, "--chunk-size", "10",
         "--overlap", "2", "--text-column", "text"]
    ) == 0
    chunks = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    assert chunks.chunk_idx.max() >= 1
    assert (chunks.chunk_text.str.len() <= 10).all()

    out = str(tmp_path / "vocab")
    assert main(
        ["vocab", "--input", src, "--output", out,
         "--text-column", "text", "--min-count", "2"]
    ) == 0
    vocab = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    got = dict(zip(vocab.token, vocab.cnt))
    assert got == {
        "alpha": 60, "beta": 60, "gamma": 60, "delta": 60
    }

    out = str(tmp_path / "heavy")
    assert main(
        ["vocab", "--input", src, "--output", out,
         "--text-column", "text", "--heavy-min-count", "60"]
    ) == 0
    hh = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    assert dict(zip(hh.token, hh.cnt)) == {
        "alpha": 60, "beta": 60, "gamma": 60, "delta": 60
    }
    with pytest.raises(SystemExit):
        main(
            ["vocab", "--input", src, "--output", out,
             "--text-column", "text", "--heavy-min-count", "60",
             "--approx-top", "5"]
        )


def test_cli_semdedup(tmp_path, capsys):
    rng = np.random.default_rng(2)
    base = rng.normal(size=8)
    vecs = [base + rng.normal(scale=0.001, size=8) for _ in range(3)]
    vecs += [rng.normal(size=8) for _ in range(30)]
    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float64())
            ),
        }
    )
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    out = str(tmp_path / "sd")
    assert main(
        ["semdedup", "--input", str(d), "--output", out,
         "--n-centroids", "4", "--threshold", "0.9"]
    ) == 0
    res = _result(capsys)
    assert res["dropped"] == 2
    kept = ray.data.read_parquet(res["output"]).to_pandas()
    assert len(kept) == len(vecs) - 2


def test_cli_embedding_pairs(tmp_path, capsys):
    rng = np.random.default_rng(4)
    base = rng.normal(size=8)
    # planted near-dup pair (ids 0, 1) + noise vectors
    vecs = [base, base + rng.normal(scale=0.001, size=8)]
    vecs += [rng.normal(size=8) for _ in range(30)]
    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float64())
            ),
        }
    )
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    out = str(tmp_path / "pairs")
    assert main(
        ["embedding-pairs", "--input", str(d), "--output", out,
         "--threshold", "0.99", "--bits", "8"]
    ) == 0
    res = _result(capsys)
    pairs = ray.data.read_parquet(res["output"]).to_pandas()
    assert res["pairs"] == len(pairs)
    assert {"a", "b", "cos"} <= set(pairs.columns)
    assert ((pairs.a == 0) & (pairs.b == 1)).any()
    with pytest.raises(SystemExit, match="missing column"):
        main(["embedding-pairs", "--input", str(d), "--output", out,
              "--vec-column", "nope"])


def test_cli_split(tmp_path, capsys):
    src = _docs_dir(tmp_path)
    out = str(tmp_path / "split")
    assert main(
        ["split", "--input", src, "--output", out,
         "--fraction", "train=0.8", "--fraction", "val=0.1",
         "--fraction", "test=0.1"]
    ) == 0
    df = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    assert len(df) == 60
    assert (df.groupby("source")["split"].nunique() == 1).all()
    # --only writes one split; the split column survives for lineage.
    # seed 1 puts exactly source s1 in val (md5('1:s1') >= 'e6666666')
    out2 = str(tmp_path / "split_only")
    assert main(
        ["split", "--input", src, "--output", out2,
         "--fraction", "train=0.9", "--fraction", "val=0.1",
         "--only", "val", "--seed", "1"]
    ) == 0
    only = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    assert set(only["split"]) == {"val"}
    assert set(only["source"]) == {"s1"}
    assert len(only) == 20
    # bad fractions / unknown --only fail at the surface
    with pytest.raises(SystemExit, match="sum to 1"):
        main(["split", "--input", src, "--output", out,
              "--fraction", "train=0.5"])
    with pytest.raises(SystemExit, match="not a declared split"):
        main(["split", "--input", src, "--output", out,
              "--fraction", "train=1.0", "--only", "dev"])
    with pytest.raises(SystemExit, match="NAME=FRACTION"):
        main(["split", "--input", src, "--output", out,
              "--fraction", "train"])


def test_cli_domain_cap(tmp_path, capsys):
    src = _docs_dir(tmp_path)
    out = str(tmp_path / "cap")
    assert main(
        ["domain-cap", "--input", src, "--output", out, "--cap", "4"]
    ) == 0
    df = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    assert df.groupby("source").size().max() <= 4
    assert len(df) == 12  # 3 sources x cap 4, all over quota
    # cap validation surfaces as a CLI error, not a Ray traceback
    with pytest.raises(SystemExit, match="cap must be >= 1"):
        main(["domain-cap", "--input", src, "--output", out,
              "--cap", "0"])
    # missing group column fails at the surface with the schema hint
    with pytest.raises(SystemExit, match="missing column"):
        main(["domain-cap", "--input", src, "--output", out,
              "--cap", "2", "--group-column", "domain"])


def test_cli_split_bad_fraction_number(tmp_path):
    src = _docs_dir(tmp_path)
    with pytest.raises(SystemExit, match="is not a number"):
        main(["split", "--input", src, "--output",
              str(tmp_path / "o"), "--fraction", "train=0.9x"])


def test_cli_token_budget(tmp_path, capsys):
    t = pa.table(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "source": pa.array([f"s{i % 2}" for i in range(40)]),
            "n_chars": pa.array([100] * 40, pa.int64()),
        }
    )
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    out = str(tmp_path / "tb")
    assert main(
        ["token-budget", "--input", str(d), "--output", out,
         "--budget", "500"]
    ) == 0
    df = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    # 20 docs x 100 chars per source; budget 500 -> exactly 5 kept each
    assert df.groupby("source").size().to_dict() == {"s0": 5, "s1": 5}
    # per-group override: s0 keeps 2, s1 falls back to --budget
    out2 = str(tmp_path / "tb2")
    assert main(
        ["token-budget", "--input", str(d), "--output", out2,
         "--budget", "500", "--group-budget", "s0=200"]
    ) == 0
    df2 = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    assert df2.groupby("source").size().to_dict() == {"s0": 2, "s1": 5}
    with pytest.raises(SystemExit, match="needs --budget"):
        main(["token-budget", "--input", str(d), "--output", out])
    with pytest.raises(SystemExit, match="not a whole"):
        main(["token-budget", "--input", str(d), "--output", out,
              "--group-budget", "s0=abc"])
    # infinite scientific input: int(float('1e999')) raises
    # OverflowError — must surface as a clean argparse/SystemExit
    # error, not a raw traceback (ADVICE r4)
    with pytest.raises(SystemExit):
        main(["token-budget", "--input", str(d), "--output", out,
              "--budget", "1e999"])
    with pytest.raises(SystemExit, match="not a whole"):
        main(["token-budget", "--input", str(d), "--output", out,
              "--group-budget", "s0=1e999"])
    with pytest.raises(SystemExit, match="missing column"):
        main(["token-budget", "--input", str(d), "--output", out,
              "--budget", "10", "--token-column", "n_tokens"])


def test_cli_token_budget_derives_n_chars_on_raw_corpus(
    tmp_path, capsys
):
    """n_chars is derived by corpus id assignment — a raw corpus
    (repo/path/commit/content) must pass CLI validation and budget on
    the derived column."""
    t = pa.table(
        {
            "repo": pa.array([f"r{i % 2}" for i in range(20)]),
            "path": pa.array([f"src/f{i}.py" for i in range(20)]),
            "commit": pa.array(["c" * 40] * 20),
            "content": pa.array(["x" * 100] * 20),
        }
    )
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    out = str(tmp_path / "tb")
    assert main(
        ["token-budget", "--input", str(d), "--output", out,
         "--budget", "500", "--group-column", "repo"]
    ) == 0
    df = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    # 10 files x 100 chars per repo; budget 500 -> 5 kept each
    assert df.groupby("repo").size().to_dict() == {"r0": 5, "r1": 5}
    # a non-derivable token column still fails at the surface
    with pytest.raises(SystemExit, match="missing column"):
        main(["token-budget", "--input", str(d), "--output", out,
              "--budget", "10", "--token-column", "n_tokens"])


def _pack_summaries(src, out, corpus):
    return main(
        ["pack", "--input", src, "--output", out, "--seq-len", "16",
         "--n-buckets", "2", "--text-column", "text",
         "--summaries-only", "--seg-delivery", "segjoin",
         "--corpus-path", corpus]
    )


def test_cli_pack_corpus_path_must_match_input(tmp_path, capsys):
    """The segjoin re-read takes each window's text from --corpus-path
    by id: a directory whose text differs from --input at the same id
    is refused before any output; a byte-identical copy is accepted
    and packs the same windows as the input itself."""
    import shutil

    src = _docs_dir(tmp_path)
    same = str(tmp_path / "same")
    assert _pack_summaries(src, same, src) == 0
    want = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()

    copy = tmp_path / "copy"
    shutil.copytree(src, copy)
    out = str(tmp_path / "from_copy")
    assert _pack_summaries(src, out, str(copy)) == 0
    got = ray.data.read_parquet(_result(capsys)["output"]).to_pandas()
    keys = ["bucket", "seq_idx"]
    assert got.sort_values(keys).reset_index(drop=True).equals(
        want.sort_values(keys).reset_index(drop=True)
    )

    t = pq.read_table(str(copy / "a.parquet"))
    text = t["text"].to_pylist()
    text[7] = "tok7 alpha beta gamma CHANGED"  # same id, other text
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(text))
    pq.write_table(t, str(copy / "a.parquet"))
    out = str(tmp_path / "changed")
    with pytest.raises(SystemExit, match="--corpus-path"):
        _pack_summaries(src, out, str(copy))
    assert not (tmp_path / "changed").exists()
