"""End-to-end CLI smoke: drive EVERY subcommand once against tiny
inputs through the real argparse surface (`main(argv)`), one Ray
session. Catches wiring regressions (flag plumbing, schema
assumptions, empty-output paths) that unit tests of the library
functions cannot.

Run: ``ray stop --force && python scripts/cli_smoke.py``
Exit code 0 iff every command succeeds.
"""
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

import ray  # noqa: E402

ray.init(
    address="local",
    num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
    include_dashboard=False,
    logging_level="ERROR",
)

from redpajama_data_ray.cli import main  # noqa: E402
from redpajama_data_ray.sources.corpus import (  # noqa: E402
    ensure_corpus_parquet,
)

CORPUS = ensure_corpus_parquet(0.001)
SF = "/root/testdata/sf0.001"
WORK = tempfile.mkdtemp(prefix="cli_smoke_")
failures = []


def run(name, argv):
    out = os.path.join(WORK, name.replace(" ", "_"))
    argv = [a.replace("{OUT}", out) for a in argv]
    try:
        main(["--num-cpus", "8"] + argv)
        print(f"ok   {name}")
    except SystemExit as e:
        if e.code in (0, None):
            print(f"ok   {name}")
        else:
            failures.append((name, f"exit {e.code}"))
            print(f"FAIL {name}: exit {e.code}")
    except Exception as e:  # noqa: BLE001
        failures.append((name, f"{type(e).__name__}: {e}"))
        print(f"FAIL {name}: {type(e).__name__}: {str(e)[:200]}")


# artifacts for model-path flags
import numpy as np  # noqa: E402

from redpajama_data_ray.functions.fasttext_bin import (  # noqa: E402
    write_fasttext_bin,
)

lid_bin = os.path.join(WORK, "lid.bin")
write_fasttext_bin(
    lid_bin,
    ["</s>", "def", "la"],
    ["__label__en", "__label__fr"],
    np.array([[0, 0], [3, 0], [0, 3]], dtype=np.float32),
    np.array([[1, 0], [0, 1]], dtype=np.float32),
    dim=2,
)
tok_json = os.path.join(WORK, "tok.json")
with open(tok_json, "w") as f:
    json.dump(
        {
            "model": {
                "type": "BPE",
                "vocab": {chr(c): i for i, c in enumerate(range(33, 127))},
                "merges": [],
                "unk_token": None,
            },
            "pre_tokenizer": {"type": "Whitespace"},
        },
        f,
    )

run("quality", ["quality", "--input", SF, "--output", "{OUT}"])
run(
    "quality resume",
    ["quality", "--input", SF, "--output", "{OUT}", "--resume"],
)
# one committed partition per synthesized corpus shard, not the sf
# dir's own tables
from redpajama_data_ray.state.manifest import Manifest  # noqa: E402

_shards = sorted(
    os.path.splitext(f)[0] for f in os.listdir(CORPUS) if f.endswith(".parquet")
)
_parts = sorted(Manifest(os.path.join(WORK, "quality_resume")).committed())
if _parts != _shards:
    failures.append(("quality resume", f"partitions {_parts} != shards {_shards}"))
    print(f"FAIL quality resume manifest: {_parts} != {_shards}")
run(
    "quality with models",
    [
        "quality", "--input", SF, "--output", "{OUT}",
        "--langid-model", lid_bin,
    ],
)
ANN = os.path.join(WORK, "quality", "annotated")
run(
    "redecide default",
    ["redecide", "--input", ANN, "--output", "{OUT}"],
)
run(
    "redecide tightened",
    [
        "redecide", "--input", ANN, "--output", "{OUT}",
        "--min-word-count", "100", "--max-pii-total", "0",
    ],
)
run(
    "dedup-exact",
    ["dedup-exact", "--input", ANN, "--output", "{OUT}"],
)
state = os.path.join(WORK, "state")
run(
    "dedup-exact incr r1",
    [
        "dedup-exact", "--input", ANN, "--output", "{OUT}",
        "--state-dir", state, "--run-id", "r1",
    ],
)
run(
    "dedup-exact incr r2 all-dup",
    [
        "dedup-exact", "--input", ANN, "--output", "{OUT}",
        "--state-dir", state, "--run-id", "r2",
    ],
)
run(
    "dedup-fuzzy",
    [
        "dedup-fuzzy", "--input", os.path.join(WORK, "quality", "minhash"),
        "--output", "{OUT}",
    ],
)
run(
    "dedup-lines",
    ["dedup-lines", "--input", ANN, "--output", "{OUT}",
     "--text-col", "content"],
)
run(
    "dedup-spans",
    ["dedup-spans", "--input", ANN, "--output", "{OUT}", "--k", "20",
     "--text-col", "content"],
)
run(
    "decontaminate",
    [
        "decontaminate", "--input", ANN, "--output", "{OUT}",
        "--benchmark", ANN, "--text-col", "content", "--ngram", "13",
        "--mode", "annotate",
    ],
)
run(
    "code-signals",
    ["code-signals", "--input", CORPUS, "--output", "{OUT}"],
)
run(
    "mix",
    [
        "mix", "--input", ANN, "--output", "{OUT}",
        "--key-column", "lang", "--default-weight", "0.5",
    ],
)
run(
    "split",
    [
        "split", "--input", CORPUS, "--output", "{OUT}",
        "--group-column", "repo",
        "--fraction", "train=0.9", "--fraction", "val=0.1",
    ],
)
run(
    "domain-cap",
    [
        "domain-cap", "--input", CORPUS, "--output", "{OUT}",
        "--cap", "3", "--group-column", "repo",
    ],
)
run(
    "token-budget",
    [
        "token-budget", "--input", ANN, "--output", "{OUT}",
        "--budget", "20000", "--group-column", "repo",
        "--group-budget", "repo_00=5000",
    ],
)
tbstate = os.path.join(WORK, "tb_state")
run(
    "token-budget incr r1",
    [
        "token-budget", "--input", ANN, "--output", "{OUT}",
        "--budget", "8000", "--group-column", "repo",
        "--state-dir", tbstate, "--run-id", "r1",
    ],
)
run(
    "token-budget incr r2 exhausted",
    [
        "token-budget", "--input", ANN, "--output", "{OUT}",
        "--budget", "8000", "--group-column", "repo",
        "--state-dir", tbstate, "--run-id", "r2",
    ],
)
qstate = os.path.join(WORK, "quota_state")
run(
    "domain-cap incr r1",
    [
        "domain-cap", "--input", CORPUS, "--output", "{OUT}",
        "--cap", "3", "--group-column", "repo",
        "--state-dir", qstate, "--run-id", "r1",
    ],
)
run(
    "domain-cap incr r2 exhausted",
    [
        "domain-cap", "--input", CORPUS, "--output", "{OUT}",
        "--cap", "3", "--group-column", "repo",
        "--state-dir", qstate, "--run-id", "r2",
    ],
)
run("pack", ["pack", "--input", CORPUS, "--output", "{OUT}",
             "--text-column", "content"])
run(
    "pack summaries",
    [
        "pack", "--input", CORPUS, "--output", "{OUT}",
        "--text-column", "content", "--summaries-only",
    ],
)
run(
    "chunk",
    ["chunk", "--input", CORPUS, "--output", "{OUT}",
     "--text-column", "content"],
)
run(
    "vocab",
    ["vocab", "--input", CORPUS, "--output", "{OUT}",
     "--text-column", "content", "--top-k", "100"],
)
run(
    "vocab approx",
    [
        "vocab", "--input", CORPUS, "--output", "{OUT}",
        "--text-column", "content", "--approx-top", "50",
    ],
)
run(
    "vocab approx incremental",
    [
        "vocab", "--input", CORPUS, "--output", "{OUT}",
        "--text-column", "content", "--approx-top", "50",
        "--state-dir", os.path.join(WORK, "topk_state"),
    ],
)
run(
    "vocab heavy",
    [
        "vocab", "--input", CORPUS, "--output", "{OUT}",
        "--text-column", "content", "--heavy-min-count", "500",
    ],
)
run(
    "semdedup",
    [
        "semdedup", "--input", os.path.join(SF, "embeddings.parquet"),
        "--output", "{OUT}", "--n-centroids", "8",
        "--vec-column", "embedding", "--id-column", "vec_id",
    ],
)
run(
    "embedding-pairs",
    [
        "embedding-pairs", "--input",
        os.path.join(SF, "embeddings.parquet"), "--output", "{OUT}",
        "--threshold", "0.45", "--vec-column", "embedding",
        "--id-column", "vec_id",
    ],
)
run(
    "profile",
    [
        "profile", "--input", os.path.join(SF, "documents.parquet"),
        "--columns", "doc_id,lang,n_chars,text",
    ],
)
run("token-count", ["token-count", "--input", CORPUS])
run(
    "token-count tokenizer",
    ["token-count", "--input", CORPUS, "--tokenizer", tok_json],
)
trained_json = os.path.join(WORK, "trained_bpe", "tokenizer.json")
run(
    "train-bpe",
    [
        "train-bpe", "--input", CORPUS, "--output", trained_json,
        "--vocab-size", "600", "--special-token", "<unk>",
    ],
)
run(
    "token-count trained-bpe",
    ["token-count", "--input", CORPUS, "--tokenizer", trained_json],
)
trained_eos = os.path.join(WORK, "trained_bpe_eos", "tokenizer.json")
run(
    "train-bpe with EOS special",
    [
        "train-bpe", "--input", CORPUS, "--output", trained_eos,
        "--vocab-size", "600", "--special-token", "<|endofdoc|>",
        "--max-docs", "200",
    ],
)
run(
    "pack real-tokenizer ids",
    [
        "pack", "--input", CORPUS, "--output", "{OUT}",
        "--seq-len", "128", "--n-buckets", "4", "--emit-tokens",
        "--tokenizer", trained_eos, "--max-docs", "200",
    ],
)
run(
    "pack summaries real-tokenizer",
    [
        "pack", "--input", CORPUS, "--output", "{OUT}",
        "--seq-len", "128", "--n-buckets", "4", "--summaries-only",
        "--text-column", "content",
        "--tokenizer", trained_eos, "--max-docs", "200",
    ],
)
run(
    "prep-artifacts",
    [
        "prep-artifacts", "--input", CORPUS, "--output", "{OUT}",
        "--fasttext", "--samples-per-class", "100",
    ],
)
run("query", ["query", "doc_signal_summary", "--sf-dir", SF])

print(f"\n{('FAIL: ' + str(failures)) if failures else 'ALL OK'}")
shutil.rmtree(WORK, ignore_errors=True)
ray.shutdown()
sys.exit(1 if failures else 0)
