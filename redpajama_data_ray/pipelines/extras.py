"""Driver queries whose DuckDB oracles are PRECOMPUTED tables: model
inference, minhash/fuzzy dedup, simhash, ANN, sketches, multimodal and
the flagship code-corpus pipeline. Each ``q_*`` first runs an
independent sequential kernel (or a sequential driver-side pass of the
deterministic stand-in model) that writes the expected parquet under
/tmp/rpray_oracle; the paired ``oracle_sql`` entry reads it, so the
driver's three-way check (rows+schema+hash) covers every query — 57/57
SQL-oracled (even the HLL estimate and media stats are deterministic
w.r.t. inputs, so sequential same-kernel passes oracle them exactly;
their accuracy/roundtrip properties live in tests/)."""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Mean

from . import analysis as _an
from ..dedupe.lsh import fuzzy_dedup
from ..dedupe.simhash import add_simhash, simhash_near_dup_pairs
from ..pipelines.quality import QualityConfig, annotate, read_corpus
from ..similarity.knn import add_lsh_bucket
from ..stages import MinHashStage, assign_ids
from ..stages.langid import LangIdStage
from ..stages.perplexity import PerplexityStage


def q_langid_distribution(sf_dir: str) -> "pa.Table":
    """Predicted-language distribution over documents.text (actor-pool
    model stage). SQL-oracled: the deterministic stand-in model runs
    SEQUENTIALLY driver-side into a per-doc expected table and DuckDB
    aggregates both sides (write_langid_oracle)."""
    from .analysis import drop_null_keys

    write_langid_oracle(sf_dir)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = drop_null_keys(ds, ["doc_id"])  # _oracle_docs lockstep
    ds = ds.map_batches(
        LangIdStage,
        fn_constructor_kwargs=dict(text_column="text"),
        batch_format="pyarrow",
        batch_size=512,
        concurrency=(1, 4),
    )
    out = (
        ds.groupby("lang_pred")
        .aggregate(Count(alias_name="n"), Mean("lang_score", alias_name="avg_score"))
        .to_pandas()
    )
    from .analysis import typed_pandas

    out = typed_pandas(
        out,
        pa.schema(
            [
                ("lang_pred", pa.string()),
                ("n", pa.int64()),
                ("avg_score", pa.float64()),
            ]
        ),
    )
    out["avg_score"] = out["avg_score"].round(6)
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_perplexity_buckets(sf_dir: str) -> "pa.Table":
    """Perplexity bucket distribution over documents.text. SQL-oracled
    via a sequential driver-side run (write_ppl_oracle)."""
    from .analysis import drop_null_keys

    write_ppl_oracle(sf_dir)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = drop_null_keys(ds, ["doc_id"])  # _oracle_docs lockstep
    ds = ds.map_batches(
        PerplexityStage,
        fn_constructor_kwargs=dict(text_column="text"),
        batch_format="pyarrow",
        batch_size=512,
        concurrency=(1, 4),
    )
    out = (
        ds.groupby("ppl_bucket")
        .aggregate(Count(alias_name="n"), Mean("ppl", alias_name="avg_ppl"))
        .to_pandas()
    )
    from .analysis import typed_pandas

    out = typed_pandas(
        out,
        pa.schema(
            [
                ("ppl_bucket", pa.string()),
                ("n", pa.int64()),
                ("avg_ppl", pa.float64()),
            ]
        ),
    )
    out["avg_ppl"] = out["avg_ppl"].round(4)
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def _docs_with_ids(sf_dir: str) -> Dataset:
    """documents table adapted to the corpus id/minhash schema.
    Dirty-input policy matches _oracle_docs: null doc_id rows dropped,
    null text/source read as empty strings."""
    import pyarrow.compute as pc

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def adapt(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["doc_id"]))
        return pa.table(
            {
                "repo": pc.fill_null(t["source"], ""),
                "path": pc.cast(t["doc_id"], pa.string()),
                "commit": pc.cast(t["doc_id"], pa.string()),
                "lang": pa.array(["en"] * t.num_rows, pa.string()),
                "content": pc.fill_null(t["text"], ""),
            }
        )

    return ds.map_batches(adapt, batch_format="pyarrow").map_batches(
        assign_ids, batch_format="pyarrow"
    )


# ------------------------------------------------------------------
# Sequential DuckDB oracle tables (VERDICT r1 item 5): an INDEPENDENT
# reference-shaped kernel (plain `%` modulo, set-deduped shingles,
# per-shingle struct.unpack, pure-python union-find) precomputes the
# expected minhash / fuzzy-dedup results into /tmp parquet; the
# oracle_sql entries read those tables, so the driver's three-way
# check (rows+schema+hash) now covers these formerly rows-only queries.
# ------------------------------------------------------------------

# Keep in sync with analysis._ORACLE_DIR: the ORACLE_SQL strings bake
# this path in at import time, and the writers here must target the
# same dir. Env override isolates concurrent runs (race-safety).
_ORACLE_DIR = os.environ.get("RPRAY_ORACLE_DIR", "/tmp/rpray_oracle")


def _seq_banded_signatures(text: str, perms_a, perms_b, hashranges):
    """Sequential minhash (reference semantics, independent of the
    engine's chunked/Mersenne fast path)."""
    import hashlib
    import struct

    import numpy as np

    from ..text import normalize
    from ..text.normalization import ngrams_zip

    P = np.uint64((1 << 61) - 1)
    M32 = np.uint64((1 << 32) - 1)
    tokens = normalize(text if text is not None else "").split()
    if len(tokens) < 13:
        return None
    shingles = set(
        " ".join(g).encode("utf-8") for g in ngrams_zip(tokens, 13)
    )
    h = np.fromiter(
        (
            struct.unpack("<I", hashlib.sha1(s).digest()[:4])[0]
            for s in shingles
        ),
        dtype=np.uint64,
        count=len(shingles),
    )
    phv = np.bitwise_and(
        (h[:, None] * perms_a[None, :] + perms_b[None, :]) % P, M32
    )
    be = phv.min(axis=0).astype(np.uint32).byteswap()
    return {
        key: [be[s:e].tobytes() for s, e in ranges]
        for key, ranges in hashranges.items()
    }


def _seq_perms():
    """Re-draw the permutation pairs from the pinned seed (independent
    of MinHasher's internals; dedupe/minhash.py:35-57 semantics)."""
    import numpy as np

    from ..config import MINHASH_NUM_PERMUTATIONS, MINHASH_SEED

    P = np.uint64((1 << 61) - 1)
    rng = np.random.RandomState(MINHASH_SEED)
    a, b = [], []
    for _ in range(MINHASH_NUM_PERMUTATIONS):
        a.append(rng.randint(1, P, dtype=np.uint64))
        b.append(rng.randint(0, P, dtype=np.uint64))
    return np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)


def _oracle_docs(sf_dir: str):
    """documents as (doc_ids, texts, sources) for the sequential oracle
    writers. Dirty-input policy (mirrored by the Ray-side readers so
    both sides of a driver compare stay in lockstep): rows with a null
    doc_id are dropped — a null primary key has no dedup identity —
    and null text/source read as the empty string."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    t = t.filter(pc.is_valid(t["doc_id"]))
    return (
        t.column("doc_id").to_pylist(),
        [x or "" for x in t.column("text").to_pylist()],
        [s or "" for s in t.column("source").to_pylist()],
    )


def _oracle_embeddings(sf_dir: str):
    """embeddings as (ids, matrix) for the sequential oracle writers,
    with null vec_id / null embedding rows dropped (same policy as
    _oracle_docs; the Ray-side ANN queries drop them identically)."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    t = t.filter(
        pc.and_(pc.is_valid(t["vec_id"]), pc.is_valid(t["embedding"]))
    )
    ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    return ids, mat


def _oracle_path(sf_dir: str, name: str) -> str:
    # fixed path (no sf suffix): the paired query writes it immediately
    # before the oracle SQL reads it, so it always reflects the sf
    # under comparison
    import os

    os.makedirs(_ORACLE_DIR, exist_ok=True)
    return f"{_ORACLE_DIR}/{name}.parquet"


def write_minhash_oracle(sf_dir: str) -> str:
    """Expected (doc_id, band0_sim08) via the sequential kernel."""
    import pyarrow.parquet as pq

    from ..functions.minhash import MinHasher

    a, b = _seq_perms()
    ranges = {"signature_sim0.8": MinHasher().hashranges["signature_sim0.8"]}
    doc_ids, texts, _ = _oracle_docs(sf_dir)
    band0 = []
    for text in texts:
        sigs = _seq_banded_signatures(text, a, b, ranges)
        band0.append(
            None if sigs is None else sigs["signature_sim0.8"][0].hex()
        )
    out = _oracle_path(sf_dir, "minhash_signatures")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([str(d) for d in doc_ids], pa.string()),
                "band0_sim08": pa.array(band0, pa.string()),
            }
        ),
        out,
    )
    return out


def write_fuzzy_dedup_oracle(sf_dir: str) -> str:
    """Expected surviving doc ids: sequential signatures, exact band
    grouping on the raw band bytes (no 8-byte band hashing), pure-python
    connected components, representative = min id_int."""
    import hashlib

    import pyarrow.parquet as pq

    from ..functions.minhash import MinHasher

    a, b = _seq_perms()
    ranges = {"signature_sim0.8": MinHasher().hashranges["signature_sim0.8"]}
    doc_ids, texts, sources = _oracle_docs(sf_dir)
    id_ints, bands_per_doc = [], []
    for d, text, src in zip(doc_ids, texts, sources):
        doc_key = f"{src}/{d}@{d}"
        id_ints.append(
            int.from_bytes(
                hashlib.sha1(doc_key.encode("utf-8")).digest()[:8], "little"
            )
        )
        sigs = _seq_banded_signatures(text, a, b, ranges)
        bands_per_doc.append(
            None if sigs is None else sigs["signature_sim0.8"]
        )
    # group docs by identical (band_idx, band_bytes)
    band_members = {}
    for doc_i, bands in enumerate(bands_per_doc):
        if bands is None:
            continue
        for b_idx, b_bytes in enumerate(bands):
            band_members.setdefault((b_idx, b_bytes), []).append(doc_i)
    # connected components (plain union-find, then explicit min rep)
    parent = list(range(len(doc_ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in band_members.values():
        for m in members[1:]:
            ra, rb = find(members[0]), find(m)
            if ra != rb:
                parent[rb] = ra
    comps = {}
    for i in range(len(doc_ids)):
        comps.setdefault(find(i), []).append(i)
    survivors = []
    for members in comps.values():
        rep = min(members, key=lambda i: id_ints[i])
        survivors.append(rep)
    out = _oracle_path(sf_dir, "fuzzy_dedup_docs")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(
                    sorted(int(doc_ids[i]) for i in survivors), pa.int64()
                )
            }
        ),
        out,
    )
    return out


def _seq_simhash64(tokens):
    """Independent sequential SimHash: unpackbits bit-vote (the engine
    votes via a shift matrix — functions/fingerprint.py simhash64)."""
    import hashlib

    import numpy as np

    if len(tokens) < 2:
        feats = [" ".join(tokens)] if tokens else []
    else:
        feats = [
            f"{a} {b}" for a, b in zip(tokens[:-1], tokens[1:])
        ]
    if not feats:
        return 0
    hs = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(f.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            for f in feats
        ),
        dtype=np.uint64,
        count=len(feats),
    )
    # pin little-endian byte order before the byte view so the bit
    # positions match functions/fingerprint.simhash64's (h >> i) & 1
    # votes on any host
    bits = np.unpackbits(
        np.ascontiguousarray(hs.astype("<u8"))
        .view(np.uint8)
        .reshape(len(hs), 8),
        axis=1,
        bitorder="little",
    )
    ones = bits.sum(axis=0)
    set_bits = np.nonzero(2 * ones.astype(np.int64) > len(hs))[0]
    return int(sum(1 << int(b) for b in set_bits))


_POP_LUT = None


def _hamming_matrix(a, b):
    """Byte-LUT popcount of pairwise xor (independent of the engine's
    SWAR kernel in dedupe/simhash.py)."""
    import numpy as np

    global _POP_LUT
    if _POP_LUT is None:
        _POP_LUT = np.array(
            [bin(i).count("1") for i in range(256)], np.uint8
        )
    x = a[:, None] ^ b[None, :]
    by = x.view(np.uint8).reshape(x.shape[0], x.shape[1], 8)
    return _POP_LUT[by].sum(axis=2)


def write_simhash_oracle(sf_dir: str) -> str:
    """Expected near-dup pairs by BRUTE-FORCE all-pairs Hamming <= 3.

    Within Hamming distance 3, two 64-bit fingerprints banded into
    4 x 16 bits always share a band (pigeonhole), so the engine's
    band-candidate + verify pipeline must find EXACTLY the brute-force
    pair set — making the exhaustive scan a complete oracle, not a
    recall bound."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    from ..text import normalize

    doc_ids, texts, sources = _oracle_docs(sf_dir)
    id_ints = np.array(
        [
            int.from_bytes(
                hashlib.sha1(
                    f"{src}/{d}@{d}".encode("utf-8")
                ).digest()[:8],
                "little",
            )
            for d, src in zip(doc_ids, sources)
        ],
        dtype=np.uint64,
    )
    hashes = np.array(
        [
            _seq_simhash64(
                normalize(t if t is not None else "").split()
            )
            for t in texts
        ],
        dtype=np.uint64,
    )
    n = len(hashes)
    pairs = set()
    chunk = 1024
    for s in range(0, n, chunk):
        d = _hamming_matrix(hashes[s : s + chunk], hashes)
        ii, jj = np.nonzero(d <= 3)
        ii = ii + s
        for i, j in zip(ii[ii < jj], jj[ii < jj]):
            a, b = int(id_ints[i]), int(id_ints[j])
            pairs.add((min(a, b), max(a, b)))
    out = _oracle_path(sf_dir, "simhash_near_dups")
    rows = sorted(pairs)
    pq.write_table(
        pa.table(
            {
                "a_hex": pa.array(
                    [f"{a:016x}" for a, _ in rows], pa.string()
                ),
                "b_hex": pa.array(
                    [f"{b:016x}" for _, b in rows], pa.string()
                ),
            }
        ),
        out,
    )
    return out


def write_ann_lsh_oracle(sf_dir: str) -> str:
    """Expected LSH bucket histogram via a sequential kernel (same
    seeded hyperplane draw — the only shared surface is the RNG spec)."""
    from collections import Counter

    import numpy as np
    import pyarrow.parquet as pq

    _, mat = _oracle_embeddings(sf_dir)
    if len(mat) == 0:
        out = _oracle_path(sf_dir, "ann_lsh_buckets")
        pq.write_table(
            pa.schema(
                [("bucket", pa.int64()), ("n", pa.int64())]
            ).empty_table(),
            out,
        )
        return out
    h = np.random.default_rng(42).standard_normal((64, 10))
    signs = (mat @ h) > 0
    weights = (1 << np.arange(10)).astype(np.uint32)
    buckets = (signs @ weights).astype(np.int64)
    counts = Counter(buckets.tolist())
    items = sorted(counts.items())
    out = _oracle_path(sf_dir, "ann_lsh_buckets")
    pq.write_table(
        pa.table(
            {
                "bucket": pa.array([b for b, _ in items], pa.int64()),
                "n": pa.array([c for _, c in items], pa.int64()),
            }
        ),
        out,
    )
    return out


def write_ivf_knn_oracle(sf_dir: str) -> str:
    """Expected IVF top-10 via a sequential reimplementation of the
    deterministic hash-sampled k-means + probe/rerank (independent of
    the Ray fan-out in similarity/ivf.py)."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    ids, mat = _oracle_embeddings(sf_dir)
    out = _oracle_path(sf_dir, "ann_ivf_knn")
    if len(ids) == 0 or not (ids == 0).any():
        pq.write_table(
            pa.schema(
                [("vec_id", pa.int64()), ("score", pa.float64())]
            ).empty_table(),
            out,
        )
        return out

    # deterministic sample: smallest blake2b(id) keys, tie-broken by id
    cents = _seq_sample_kmeans(ids, mat)

    # assign all vectors; probe the 4 nearest centroid lists for vec 0.
    # Float math mirrors similarity/knn._cosine exactly (both sides
    # re-normalize the already-unit rows, so the last-ulp scale factors
    # match bit for bit).
    mn = np.linalg.norm(mat, axis=1, keepdims=True)
    mn[mn == 0] = 1.0
    cn = np.linalg.norm(cents, axis=1, keepdims=True)
    cn[cn == 0] = 1.0
    all_assign = ((mat / mn) @ (cents / cn).T).argmax(axis=1)
    q = mat[ids == 0][0]
    qn = q / (np.linalg.norm(q) or 1.0)
    # cosine probe ranking, mirroring similarity/ivf.ivf_knn exactly
    # (both sides normalize the centroid rows before the dot)
    pcn = np.linalg.norm(cents, axis=1, keepdims=True)
    pcn[pcn == 0] = 1.0
    probe = set(
        np.argsort(-((cents / pcn) @ qn))[:4].astype(int).tolist()
    )
    cand = np.array(
        [i for i in range(len(ids)) if int(all_assign[i]) in probe]
    )
    qhat = qn / (np.linalg.norm(qn) or 1.0)
    scores = (mat[cand] / mn[cand]) @ qhat
    keep = ids[cand] != 0
    cand, scores = cand[keep], scores[keep]
    top = np.lexsort((ids[cand], -scores))[:10]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids[cand][top], pa.int64()),
                "score": pa.array(
                    np.round(scores[top], 6), pa.float64()
                ),
            }
        ),
        out,
    )
    return out


def write_langid_oracle(sf_dir: str) -> str:
    """Per-doc language predictions, run SEQUENTIALLY driver-side (the
    stand-in model is deterministic); DuckDB aggregates both sides."""
    import pyarrow.parquet as pq

    from ..functions.langid import NGramLangId

    model = NGramLangId()
    doc_ids, texts, _ = _oracle_docs(sf_dir)
    langs, scores = [], []
    for t in texts:
        lang, p = model.predict(t if t is not None else "")
        langs.append(lang)
        scores.append(p)
    out = _oracle_path(sf_dir, "langid_docs")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(
                    [int(d) for d in doc_ids], pa.int64()
                ),
                "lang_pred": pa.array(langs, pa.string()),
                "lang_score": pa.array(scores, pa.float64()),
            }
        ),
        out,
    )
    return out


def write_ppl_oracle(sf_dir: str) -> str:
    """Per-doc perplexity, sequential driver-side run."""
    import pyarrow.parquet as pq

    from ..functions.perplexity import PerplexityScorer

    scorer = PerplexityScorer()
    doc_ids, texts, _ = _oracle_docs(sf_dir)
    ppls, buckets = [], []
    for t in texts:
        ppl, bucket = scorer.score(t if t is not None else "")
        ppls.append(ppl)
        buckets.append(bucket)
    out = _oracle_path(sf_dir, "ppl_docs")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(
                    [int(d) for d in doc_ids], pa.int64()
                ),
                "ppl": pa.array(ppls, pa.float64()),
                "ppl_bucket": pa.array(buckets, pa.string()),
            }
        ),
        out,
    )
    return out


def write_flagship_oracle(sf_dir: str) -> str:
    """Expected flagship columns by a SEQUENTIAL driver-side pass of the
    same kernels the fused actor stage runs (langid -> per-language
    SignalKernel -> perplexity -> scrub -> decide), over the synthesized
    code corpus — proving the Ray plumbing (id assignment, actor fusion,
    batch boundaries, unordered execution) changes nothing."""
    import glob as _glob
    import hashlib

    import pyarrow.parquet as pq

    from ..functions.doc_signals import DocView, SignalKernel
    from ..functions.langid import NGramLangId
    from ..functions.perplexity import PerplexityScorer
    from ..functions.pii import scrub_text
    from ..functions.rules import RuleConfig, decide
    from ..sources.corpus import ensure_corpus_parquet, sf_from_dir

    corpus_dir = ensure_corpus_parquet(sf_from_dir(sf_dir))
    files = sorted(_glob.glob(f"{corpus_dir}/*.parquet"))
    kernels = {
        lang: SignalKernel(language=lang)
        for lang in ("en", "fr", "de", "es", "it")
    }
    langid = NGramLangId()
    pplx = PerplexityScorer()
    rules = RuleConfig()
    cols = {
        "doc_id": [],
        "lang_pred": [],
        "lang_score": [],
        "ppl": [],
        "ppl_bucket": [],
        "rps_doc_word_count": [],
        "rps_doc_frac_unique_words": [],
        "rps_doc_ldnoobw_words": [],
        "keep": [],
        "content_scrubbed_sha256": [],
    }
    for f in files:
        t = pq.read_table(
            f, columns=["repo", "path", "commit", "content"]
        )
        for repo, path, commit, content in zip(
            t.column("repo").to_pylist(),
            t.column("path").to_pylist(),
            t.column("commit").to_pylist(),
            t.column("content").to_pylist(),
        ):
            text = content if content is not None else ""
            v = DocView(text)
            lang, ls = langid.predict(text)
            kernel = kernels.get(lang, kernels["en"])
            doc = kernel.doc_signals_view(v)
            ppl, bucket = pplx.score(text)
            scrubbed, pii = scrub_text(text)
            row = dict(doc)
            row["lang_score"] = ls
            row["ppl_bucket"] = bucket
            row.update(pii)
            keep, _ = decide(row, rules)
            cols["doc_id"].append(f"{repo}/{path}@{commit}")
            cols["lang_pred"].append(lang)
            cols["lang_score"].append(ls)
            cols["ppl"].append(ppl)
            cols["ppl_bucket"].append(bucket)
            for name in (
                "rps_doc_word_count",
                "rps_doc_frac_unique_words",
                "rps_doc_ldnoobw_words",
            ):
                cols[name].append(doc[name])
            cols["keep"].append(keep)
            cols["content_scrubbed_sha256"].append(
                hashlib.sha256(scrubbed.encode("utf-8")).hexdigest()
            )
    out = _oracle_path(sf_dir, "corpus_flagship")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(cols["doc_id"], pa.string()),
                "lang_pred": pa.array(cols["lang_pred"], pa.string()),
                "lang_score": pa.array(cols["lang_score"], pa.float64()),
                "ppl": pa.array(cols["ppl"], pa.float64()),
                "ppl_bucket": pa.array(cols["ppl_bucket"], pa.string()),
                "rps_doc_word_count": pa.array(
                    cols["rps_doc_word_count"], pa.float64()
                ),
                "rps_doc_frac_unique_words": pa.array(
                    cols["rps_doc_frac_unique_words"], pa.float64()
                ),
                "rps_doc_ldnoobw_words": pa.array(
                    cols["rps_doc_ldnoobw_words"], pa.float64()
                ),
                "keep": pa.array(cols["keep"], pa.bool_()),
                "content_scrubbed_sha256": pa.array(
                    cols["content_scrubbed_sha256"], pa.string()
                ),
            }
        ),
        out,
    )
    return out


def q_minhash_signatures(sf_dir: str) -> Dataset:
    """Banded minhash signatures over documents (hex of first 0.8 band).
    SQL-oracled: the sequential kernel writes the expected table for
    DuckDB (see write_minhash_oracle)."""
    write_minhash_oracle(sf_dir)
    ds = _docs_with_ids(sf_dir).map_batches(
        MinHashStage, batch_format="pyarrow", batch_size=256,
        concurrency=(1, 4),
    )

    def summarize(t: pa.Table) -> pa.Table:
        sigs = t["signature_sim0.8"].to_pylist()
        first_band = [
            bytes(s[0]).hex() if s is not None else None for s in sigs
        ]
        return pa.table(
            {
                "doc_id": t["path"],
                "band0_sim08": pa.array(first_band, pa.string()),
            }
        )

    return ds.map_batches(summarize, batch_format="pyarrow")


def q_fuzzy_dedup_docs(sf_dir: str) -> "pa.Table":
    """MinHash-LSH fuzzy dedup over documents; returns surviving ids.
    SQL-oracled against the sequential union-find oracle
    (write_fuzzy_dedup_oracle)."""
    write_fuzzy_dedup_oracle(sf_dir)
    ds = _docs_with_ids(sf_dir).map_batches(
        MinHashStage, batch_format="pyarrow", batch_size=256,
        concurrency=(1, 4),
    ).materialize()
    if ds.count() == 0:  # select_columns has no schema to resolve
        return pa.schema([("doc_id", pa.int64())]).empty_table()
    deduped, _ = fuzzy_dedup(ds, "signature_sim0.8")
    out = deduped.select_columns(["path"]).to_pandas()
    out = out.rename(columns={"path": "doc_id"})
    out["doc_id"] = out["doc_id"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_simhash_near_dups(sf_dir: str) -> "pa.Table":
    """SimHash near-dup pairs over documents. SQL-oracled against an
    independent brute-force all-pairs Hamming scan — complete, not a
    recall bound, because Hamming<=3 guarantees a shared band
    (write_simhash_oracle). Ids as hex so the compare is uint64-safe."""
    write_simhash_oracle(sf_dir)
    ds = _docs_with_ids(sf_dir).map_batches(
        add_simhash, batch_format="pyarrow"
    ).materialize()
    pairs = simhash_near_dup_pairs(ds, max_hamming=3)
    return pa.table(
        {
            "a_hex": pa.array([f"{p[0]:016x}" for p in pairs], pa.string()),
            "b_hex": pa.array([f"{p[1]:016x}" for p in pairs], pa.string()),
        }
    )


def _seq_sample_kmeans(ids, mat):
    """Deterministic hash-ranked sample + sequential mini k-means: the
    ONE train_centroids-parity kernel shared by the IVF and SemDeDup
    oracle writers (blake2b key ranking tie-broken by id, id-sorted
    4096-sample, seeded init, 10 renormalized-mean iterations).
    Sequential and independent of similarity/ivf.train_centroids —
    a fix to this float-parity code lands in both oracles at once."""
    import hashlib

    import numpy as np

    keys = np.array(
        [
            int.from_bytes(
                hashlib.blake2b(
                    str(int(i)).encode(), digest_size=8
                ).digest(),
                "little",
            )
            for i in ids
        ],
        dtype=np.uint64,
    )
    order = np.lexsort((ids, keys))[:4096]
    order = order[np.argsort(ids[order], kind="stable")]
    x = mat[order]
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    x = x / norms
    rng = np.random.default_rng(42)
    cents = x[rng.choice(len(x), size=min(16, len(x)), replace=False)]
    for _ in range(10):
        sims = x @ cents.T
        assign = sims.argmax(axis=1)
        for c in range(len(cents)):
            members = x[assign == c]
            if len(members):
                m = members.mean(axis=0)
                nm = np.linalg.norm(m)
                if nm > 0:
                    cents[c] = m / nm
    return cents


def q_ann_lsh_buckets(sf_dir: str) -> "pa.Table":
    """LSH-bucketed ANN index stats over embeddings (scale path).
    SQL-oracled against a sequential hyperplane kernel
    (write_ann_lsh_oracle)."""
    from .analysis import drop_null_keys, typed_pandas

    write_ann_lsh_oracle(sf_dir)
    emb = drop_null_keys(
        rd.read_parquet(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding"],
        ),
        ["vec_id", "embedding"],
    )
    bucketed = add_lsh_bucket(emb, dim=64, bits=10, seed=42)
    out = (
        bucketed.groupby("bucket")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    out = typed_pandas(
        out, pa.schema([("bucket", pa.int64()), ("n", pa.int64())])
    )
    out["bucket"] = out["bucket"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_corpus_flagship(sf_dir: str) -> Dataset:
    """Full quality pipeline over the synthetic code corpus: id, keep,
    scrubbed-content sha256, and headline signals. SQL-oracled against
    a sequential driver-side pass of the same kernels
    (write_flagship_oracle) — batch/actor/order invariance, end to
    end."""
    from .quality import _default_actors

    write_flagship_oracle(sf_dir)

    # at most 8 concurrent annotate tasks, two below the cluster's CPUs
    ds = annotate(
        read_corpus(sf_dir),
        QualityConfig(max_actors=max(1, min(8, _default_actors()))),
    )
    return ds.select_columns(
        [
            "doc_id", "lang_pred", "lang_score", "ppl", "ppl_bucket",
            "rps_doc_word_count", "rps_doc_frac_unique_words",
            "rps_doc_ldnoobw_words", "keep", "content_scrubbed_sha256",
        ]
    )


def q_ivf_knn(sf_dir: str) -> "pa.Table":
    """IVF approximate top-10 for the vec_id=0 query (scale ANN path:
    k-means centroids -> bucket assignment -> probe-and-rerank).
    SQL-oracled against a sequential reimplementation
    (write_ivf_knn_oracle)."""
    import numpy as np

    from ..similarity.ivf import assign_ivf_buckets, ivf_knn, train_centroids
    from .analysis import drop_null_keys

    write_ivf_knn_oracle(sf_dir)
    emb = drop_null_keys(
        rd.read_parquet(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding"],
        ),
        ["vec_id", "embedding"],
    )
    # the query-vector lookup applies the SAME null policy as the
    # oracle (_oracle_embeddings): a null-embedding vec 0 means "no
    # query", not a crash on a 0-d nan array
    q = (
        drop_null_keys(
            rd.read_parquet(
                f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"],
            ),
            ["vec_id", "embedding"],
        )
        .filter(lambda r: r["vec_id"] == 0)
        .to_pandas()
    )
    if q.shape[1] == 0 or q.empty:
        return pa.schema(
            [("vec_id", pa.int64()), ("score", pa.float64())]
        ).empty_table()
    qvec = np.array(q.embedding.iloc[0], dtype=np.float64)
    cents = train_centroids(emb, dim=64, n_centroids=16, seed=42)
    indexed = assign_ivf_buckets(emb, cents)
    out = ivf_knn(indexed, cents, qvec, k=10, n_probe=4, exclude_ids=[0])
    df = out.to_pandas()[["vec_id", "score"]]
    df["score"] = df["score"].round(6)
    return pa.Table.from_pandas(df, preserve_index=False)


def write_profile_oracle(sf_dir: str) -> str:
    """Expected column profile via the SEQUENTIAL single-batch
    reference kernel (functions/profile.py profile_arrow_table).
    Every profile statistic is blocking-invariant by construction —
    integer-exact sums, register-max HLL merge, canonical min/max —
    so the sequential pass is an exact oracle for the distributed
    one (the write_hll_oracle precedent)."""
    import pyarrow.parquet as pq

    from ..functions.profile import profile_arrow_table

    t = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "lang", "n_chars", "text"],
    )
    out = _oracle_path(sf_dir, "profile_documents")
    pq.write_table(profile_arrow_table(t), out)
    return out


def q_profile_documents(sf_dir: str) -> "pa.Table":
    """Single-pass column profiling of the documents table
    (functions/profile.py): counts, nulls, HLL distinct estimates,
    min/max, exact integer means, string lengths — one streaming
    pass, fixed-size mergeable partials."""
    from ..functions.profile import profile_table

    write_profile_oracle(sf_dir)
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "lang", "n_chars", "text"],
    )
    return profile_table(ds)


def write_hll_oracle(sf_dir: str) -> str:
    """Expected HLL estimate via a SEQUENTIAL single-sketch pass.

    The estimate is approximate w.r.t. the true distinct count but
    DETERMINISTIC w.r.t. the inputs (blake2b hashing; register merge =
    elementwise max is associative/commutative, layout-independence
    tested in tests/test_sketches.py), so the sequential sketch is an
    exact oracle for the distributed merge."""
    import pyarrow.parquet as pq

    from ..functions.sketches import HyperLogLog

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    h = HyperLogLog(12)
    h.update(x for x in t.column("text").to_pylist() if x is not None)
    out = _oracle_path(sf_dir, "approx_distinct_texts")
    pq.write_table(
        pa.table(
            {
                "metric": pa.array(["approx_distinct_texts"], pa.string()),
                "estimate": pa.array(
                    [round(h.estimate(), 1)], pa.float64()
                ),
            }
        ),
        out,
    )
    return out


def write_media_decode_oracle(sf_dir: str) -> str:
    """Expected media stats via a sequential driver-side pass of the
    same decode kernels (decode_image + resize_nearest are
    deterministic; the synthetic payload table is seed-pinned)."""
    import pyarrow.parquet as pq

    from ..multimodal.stages import (
        decode_image,
        make_media_table,
        resize_nearest,
    )

    media = make_media_table(200, real_formats=True)
    ids, means, stds = [], [], []
    for mid, payload in zip(
        media.column("media_id").to_pylist(),
        media.column("payload").to_pylist(),
    ):
        px = resize_nearest(decode_image(payload or b""), 32)
        ids.append(mid)
        means.append(round(float(px.mean()), 6))
        stds.append(round(float(px.std()), 6))
    out = _oracle_path(sf_dir, "media_decode")
    pq.write_table(
        pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "pixel_mean": pa.array(means, pa.float64()),
                "pixel_std": pa.array(stds, pa.float64()),
            }
        ),
        out,
    )
    return out


def q_approx_distinct_texts(sf_dir: str) -> "pa.Table":
    """HyperLogLog distinct-text estimate (mergeable-sketch operator).
    SQL-oracled: the estimate is approximate w.r.t. truth but
    deterministic w.r.t. inputs, so a sequential single-sketch pass is
    an exact oracle (write_hll_oracle); accuracy bounds live in
    tests/test_sketches.py."""
    from ..functions.sketches import approx_distinct

    write_hll_oracle(sf_dir)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    est = approx_distinct(ds, "text", p=12)
    return pa.table(
        {
            "metric": pa.array(["approx_distinct_texts"], pa.string()),
            "estimate": pa.array([round(est, 1)], pa.float64()),
        }
    )


def q_media_decode(sf_dir: str) -> "pa.Table":
    """Multimodal: REAL image decode (pure-numpy BMP/PPM/PNG/JPEG
    codecs + nearest resize) of genuine encoded payloads through the
    actor stage. SQL-oracled against a sequential pass of the same
    decode kernels (write_media_decode_oracle)."""
    from ..multimodal.stages import DecodeImageStage, make_media_table

    write_media_decode_oracle(sf_dir)
    media = rd.from_arrow(make_media_table(200, real_formats=True))
    out = media.map_batches(
        DecodeImageStage,
        fn_constructor_kwargs=dict(decode_fn="real"),
        batch_format="pyarrow",
        batch_size=32,
        concurrency=(1, 2),
    )
    df = out.select_columns(["media_id", "pixel_mean", "pixel_std"]).to_pandas()
    df["pixel_mean"] = df["pixel_mean"].round(6)
    df["pixel_std"] = df["pixel_std"].round(6)
    return pa.Table.from_pandas(df, preserve_index=False)


_SPAN_BOILER = (
    "/* Copyright 2026 Example Corp. Licensed under the Apache "
    "License, Version 2.0; boilerplate header injected for the "
    "substring-dedup gate. */ "
)
_SPAN_K = 25


def _span_corpus(sf_dir: str):
    """Deterministic dup-injected corpus for the substring gate, as
    ``(doc_id, text)`` pairs: doc_id%4==0 docs get a shared boilerplate
    header prepended (partial leading span) and doc_id%3==0 docs are
    cloned under doc_id+10_000_000 (whole-doc spans) — same shape as
    q_line_dedup_docs' injection, mirrored exactly in both the Ray
    query and the sequential oracle."""
    doc_ids, texts, _ = _oracle_docs(sf_dir)
    out = []
    for d, t in zip(doc_ids, texts):
        t = (_SPAN_BOILER + (t or "")) if d % 4 == 0 else (t or "")
        out.append((int(d), t))
        if d % 3 == 0:
            out.append((int(d) + 10_000_000, t))
    return out


def write_substring_oracle(sf_dir: str) -> str:
    """Expected span table via an INDEPENDENT sequential kernel: counts
    ACTUAL k-char substrings in a python dict (no rolling hash, no
    winnowing — the query runs winnow_w=0, where selection is total and
    semantics are hash-free), marks positions whose substring occurs
    >=2x corpus-wide, merges consecutive starts with diff <= k. A
    64-bit fingerprint collision on the Ray side would surface here as
    a mismatch (probability ~1e-7 at this corpus size)."""
    import collections

    import numpy as np
    import pyarrow.parquet as pq

    corpus = _span_corpus(sf_dir)
    k = _SPAN_K
    cnt = collections.Counter()
    for _, t in corpus:
        for i in range(len(t) - k + 1):
            cnt[t[i : i + k]] += 1
    ids, spans_str, n_spans, fracs = [], [], [], []
    for d, t in corpus:
        spans = []
        for s in range(len(t) - k + 1):
            if cnt[t[s : s + k]] < 2:
                continue
            if spans and s - spans[-1][2] <= k:
                spans[-1][1] = s + k
                spans[-1][2] = s
            else:
                spans.append([s, s + k, s])
        covered = sum(b - a for a, b, _ in spans)
        ids.append(d)
        spans_str.append(";".join(f"{a}-{b}" for a, b, _ in spans))
        n_spans.append(len(spans))
        fracs.append(
            float(np.round(covered / len(t), 6)) if t else 0.0
        )
    out = _oracle_path(sf_dir, "substring_dedup_docs")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "dup_spans": pa.array(spans_str, pa.string()),
                "n_dup_spans": pa.array(n_spans, pa.int64()),
                "dup_char_frac": pa.array(fracs, pa.float64()),
            }
        ),
        out,
    )
    return out


def q_substring_dedup_docs(sf_dir: str) -> Dataset:
    """ExactSubstr-style duplicated-substring spans (dedupe/spans.py)
    over the dup-injected corpus, winnow_w=0 (exact mode) so the
    substring-counting oracle is hash-independent; winnowing's
    detection guarantee is covered by tests/test_spans.py."""
    from ..dedupe.spans import substring_dedup

    write_substring_oracle(sf_dir)
    rows = _span_corpus(sf_dir)
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in rows], pa.int64()),
            "text": pa.array([t for _, t in rows], pa.string()),
        }
    )
    ds = rd.from_arrow(t)
    out = substring_dedup(
        ds, k=_SPAN_K, winnow_w=0, mode="annotate"
    )
    return out.select_columns(
        ["doc_id", "dup_spans", "n_dup_spans", "dup_char_frac"]
    )


def write_semdedup_oracle(sf_dir: str) -> str:
    """Expected SemDeDup dropped ids via a sequential reimplementation:
    mirrored k-means training/assignment floats (as write_ivf_knn_oracle),
    then per cluster a plain-python pairwise scan, dict union-find and
    per-component min-(centroid_sim, id) keeper selection — independent
    of the vectorized chunked-block/lexsort machinery in
    similarity/semdedup.py."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    ids, mat = _oracle_embeddings(sf_dir)
    if len(ids) == 0:
        out = _oracle_path(sf_dir, "semdedup_docs")
        pq.write_table(
            pa.schema([("vec_id", pa.int64())]).empty_table(), out
        )
        return out

    # deterministic hash-ranked sample + mini k-means (train_centroids
    # semantics, sequential)
    cents = _seq_sample_kmeans(ids, mat)

    # assignment mirrors knn._cosine (both sides renormalized)
    mn = np.linalg.norm(mat, axis=1, keepdims=True)
    mn[mn == 0] = 1.0
    cn = np.linalg.norm(cents, axis=1, keepdims=True)
    cn[cn == 0] = 1.0
    all_assign = ((mat / mn) @ (cents / cn).T).argmax(axis=1)

    dropped: list = []
    for b in range(len(cents)):
        idx = np.nonzero(all_assign == b)[0]
        if len(idx) <= 1:
            continue
        unit = mat[idx] / mn[idx]
        sims = unit @ unit.T
        parent = {int(i): int(i) for i in range(len(idx))}

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                if sims[i, j] >= 0.45:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        comps: dict = {}
        for i in range(len(idx)):
            comps.setdefault(find(i), []).append(i)
        c_sim = unit @ cents[b]
        for members in comps.values():
            if len(members) < 2:
                continue
            keeper = min(
                members, key=lambda i: (c_sim[i], int(ids[idx[i]]))
            )
            dropped.extend(
                int(ids[idx[i]]) for i in members if i != keeper
            )

    out = _oracle_path(sf_dir, "semdedup_docs")
    pq.write_table(
        pa.table({"vec_id": pa.array(sorted(dropped), pa.int64())}), out
    )
    return out


def q_semdedup_docs(sf_dir: str) -> "pa.Table":
    """SemDeDup semantic dedup (similarity/semdedup.py) over the
    embeddings table: k-means buckets, in-cluster cosine components,
    paper keep policy (furthest-from-centroid survives). Returns the
    sorted dropped vec_ids; SQL-oracled against the sequential
    plain-python kernel (write_semdedup_oracle)."""
    import pyarrow.parquet as pq

    from ..similarity.ivf import train_centroids
    from ..similarity.semdedup import semdedup
    from .analysis import drop_null_keys

    write_semdedup_oracle(sf_dir)
    if pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows == 0:
        return pa.schema([("vec_id", pa.int64())]).empty_table()
    emb = drop_null_keys(
        rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        ["vec_id", "embedding"],
    )
    cents = train_centroids(emb, dim=0, n_centroids=16)
    _, dropped = semdedup(
        emb, dim=0, threshold=0.45, keep="centroid_far",
        centroids=cents,
    )
    return pa.table({"vec_id": pa.array(dropped, pa.int64())})


def write_pack_oracle(sf_dir: str) -> str:
    """Expected packed-window table via a sequential plain-python
    kernel: per-bucket python-list token streams, window slicing, and
    per-window doc sets — independent of the vectorized
    reduceat/searchsorted machinery in functions/packing.py."""
    import zlib

    import numpy as np
    import pyarrow.parquet as pq

    from ..functions.packing import EOS_TOKEN

    seq_len, n_buckets = 256, 8
    doc_ids, texts, _ = _oracle_docs(sf_dir)
    buckets: dict = {b: [] for b in range(n_buckets)}
    for d, tx in zip(doc_ids, texts):
        b = zlib.crc32(str(d).encode("utf-8")) % n_buckets
        buckets[b].append((int(d), tx or ""))
    rows = []
    for b in range(n_buckets):
        stream: list = []   # (token_hash, doc_id)
        for d, tx in sorted(buckets[b]):
            for tok in tx.split():
                stream.append((zlib.crc32(tok.encode("utf-8")), d))
            stream.append((zlib.crc32(EOS_TOKEN.encode("utf-8")), d))
        for s, start in enumerate(range(0, len(stream), seq_len)):
            window = stream[start : start + seq_len]
            csum = 0
            docs = set()
            for h, d in window:
                csum = (csum + h) % (1 << 64)
                docs.add(d)
            rows.append(
                (b, s, len(window), len(docs), format(csum, "016x"))
            )
    out = _oracle_path(sf_dir, "pack_sequences_docs")
    pq.write_table(
        pa.table(
            {
                "bucket": pa.array(
                    [r[0] for r in rows], pa.int32()
                ),
                "seq_idx": pa.array([r[1] for r in rows], pa.int64()),
                "n_tokens": pa.array([r[2] for r in rows], pa.int64()),
                "n_docs": pa.array([r[3] for r in rows], pa.int64()),
                "checksum": pa.array([r[4] for r in rows], pa.string()),
            }
        ),
        out,
    )
    return out


def q_pack_sequences_docs(sf_dir: str) -> Dataset:
    """Sequence packing (functions/packing.py): 256-token windows over
    8 hash buckets of the documents table. SQL-oracled against the
    sequential python kernel (write_pack_oracle)."""
    import pyarrow.compute as pc

    from ..functions.packing import pack_sequences

    write_pack_oracle(sf_dir)
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def sanitize(t: pa.Table) -> pa.Table:  # the _oracle_docs policy
        t = t.filter(pc.is_valid(t["doc_id"]))
        return pa.table(
            {"doc_id": t["doc_id"], "text": pc.fill_null(t["text"], "")}
        )

    ds = ds.map_batches(sanitize, batch_format="pyarrow")
    return pack_sequences(ds, seq_len=256, n_buckets=8)


def write_cms_oracle(sf_dir: str) -> str:
    """Expected CMS token estimates via ONE sequential sketch over all
    documents (merge is addition, so the distributed batch-wise build
    is layout-independent and must agree exactly)."""
    import re

    import numpy as np
    import pyarrow.parquet as pq

    from ..functions.code_signals import WS_REGEX_CLASS
    from ..functions.sketches import CountMinSketch

    token_re = re.compile(WS_REGEX_CLASS)
    _, texts, _ = _oracle_docs(sf_dir)
    cms = CountMinSketch(4, 1 << 16)
    all_tokens: list = []
    for tx in texts:
        all_tokens.extend(token_re.findall(tx or ""))
    uniq, cnt = np.unique(
        np.asarray(all_tokens, dtype=object), return_counts=True
    )
    cms.update(uniq.tolist(), cnt)
    probes = sorted(uniq.tolist())
    est = cms.estimate(probes)
    out = _oracle_path(sf_dir, "cms_token_counts")
    pq.write_table(
        pa.table(
            {
                "token": pa.array(probes, pa.string()),
                "est": pa.array(est.astype("int64"), pa.int64()),
            }
        ),
        out,
    )
    return out


def q_cms_token_counts(sf_dir: str) -> "pa.Table":
    """Count-Min token-frequency estimates (functions/sketches.py
    CountMinSketch): one fixed-size sketch per batch, driver merge,
    probe the corpus's distinct tokens. SQL-oracled against one
    sequential sketch (write_cms_oracle) — addition-merge makes the
    distributed build layout-independent."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..functions.sketches import approx_token_counts

    # deterministic probe list (input-derived; at 100 TB you'd probe a
    # fixed external candidate list instead of the full vocabulary) —
    # the oracle writer just tokenized the corpus to build the same
    # sorted vocabulary, so read it back instead of re-tokenizing
    oracle_path = write_cms_oracle(sf_dir)
    probes = (
        pq.read_table(oracle_path, columns=["token"])
        .column("token")
        .to_pylist()
    )
    from .analysis import drop_null_keys

    # the sketch must cover exactly the rows the oracle's sketch
    # covered (_oracle_docs drops null doc_id rows)
    ds = drop_null_keys(
        rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
        ["doc_id"],
    ).select_columns(["text"])
    est = approx_token_counts(ds, "text", probes)
    return pa.table(
        {
            "token": pa.array(probes, pa.string()),
            "est": pa.array(np.asarray(est).astype("int64"), pa.int64()),
        }
    )


def _refresh_code_corpus_link(sf_dir: str) -> str:
    """Synthesize (cached) the code corpus for this sf and expose it at
    the stable /tmp symlink the static oracle SQL reads."""
    import os

    from ..sources.corpus import ensure_corpus_parquet, sf_from_dir

    corpus_dir = ensure_corpus_parquet(sf_from_dir(sf_dir))
    os.makedirs(_ORACLE_DIR, exist_ok=True)
    link = f"{_ORACLE_DIR}/code_corpus"
    import uuid

    # pid alone is not crash-safe: a stale .tmp.<recycled-pid> from an
    # earlier crashed run would make os.symlink raise FileExistsError
    tmp = f"{link}.tmp.{os.getpid()}.{uuid.uuid4().hex[:6]}"
    os.symlink(corpus_dir, tmp)
    os.replace(tmp, link)  # atomic refresh; points at the current sf
    return corpus_dir


def q_code_quality_docs(sf_dir: str) -> Dataset:
    """Source-code quality signals + RedPajama-V1-GitHub/StarCoder
    keep/drop rules over the synthesized code corpus
    (functions/code_signals.py, one vectorized Arrow batch kernel).

    Unlike the precomputed-table oracles above, the paired SQL is a
    fully INDEPENDENT DuckDB computation (regexp class counts, list
    kernels over split lines, token unnest) reading the corpus through
    the stable symlink."""
    from ..functions.code_signals import code_signal_batch

    corpus_dir = _refresh_code_corpus_link(sf_dir)
    ds = rd.read_parquet(
        corpus_dir, columns=["repo", "path", "lang", "content"]
    )
    ds = ds.map_batches(code_signal_batch, batch_format="pyarrow")
    return ds.drop_columns(["content"])


def q_repo_stats(sf_dir: str) -> "pa.Table":
    """Repo-level rollup (functions/repostats.py): per-repo file count,
    distinct languages, size, largest file and corpus-wide
    duplicate-file share. Fully independent DuckDB oracle over the
    corpus symlink (group-bys + a HAVING dup subquery)."""
    from ..functions.repostats import repo_stats

    corpus_dir = _refresh_code_corpus_link(sf_dir)
    ds = rd.read_parquet(
        corpus_dir, columns=["repo", "lang", "content"]
    )
    return repo_stats(ds)


def q_heavy_hitter_tokens(sf_dir: str) -> "pa.Table":
    """Tokens whose exact corpus frequency >= the document count,
    computed WITHOUT the full vocabulary histogram
    (functions/sketches.py exact_heavy_hitters: CMS-pruned candidates
    + exact recount of candidates only). Direct SQL oracle: GROUP BY
    token HAVING count(*) >= (select count(*) from documents) — the
    sketch prunes, the output is exact, so the oracle needs no
    tolerance."""
    from ..functions.sketches import exact_heavy_hitters

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    n_docs = ds.count()  # parquet metadata, no scan
    return exact_heavy_hitters(ds, "text", threshold=max(n_docs, 1))


def q_grouped_split_docs(sf_dir: str) -> Dataset:
    """Leakage-safe train/val/test assignment by GROUP key
    (functions/splits.py grouped_split): every row of a source lands
    in the same split via a pure md5-of-group predicate. Direct SQL
    oracle: identical md5 + substr + cumulative hex-threshold CASE."""
    from ..functions.splits import grouped_split
    from .analysis import drop_null_keys

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    ds = drop_null_keys(ds, ["source"])  # SQL lockstep on dirty inputs
    return grouped_split(
        ds,
        {"train": 0.8, "val": 0.1, "test": 0.1},
        group_col="source",
        seed=7,
    )


def q_domain_cap_docs(sf_dir: str) -> Dataset:
    """Per-domain quota (functions/splits.py cap_per_group): keep the
    7 deterministically-sampled docs per source (smallest
    md5(seed:id); narrow partials shuffle, text never moves). Direct
    SQL oracle: row_number() over (partition by source order by the
    identical md5 prefix, id) <= 7."""
    from ..functions.splits import cap_per_group
    from .analysis import drop_null_keys

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    ds = drop_null_keys(ds, ["doc_id", "source"])  # SQL lockstep
    return cap_per_group(
        ds, cap=7, group_col="source", id_col="doc_id", seed=42
    )


def q_token_budget_docs(sf_dir: str) -> Dataset:
    """Token-budget sampling (functions/splits.py
    token_budget_sample): per source, keep documents in deterministic
    md5 order while the running n_chars total (exclusive) stays below
    4000 — how training mixes are actually specified (tokens, not row
    counts). Direct SQL oracle: the identical cumulative-window rule
    (sum over the md5-ordered window, rows unbounded preceding to 1
    preceding, < budget)."""
    from ..functions.splits import token_budget_sample
    from .analysis import drop_null_keys

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    ds = drop_null_keys(ds, ["doc_id", "source"])  # SQL lockstep
    return token_budget_sample(
        ds, 4000, token_col="n_chars", group_col="source",
        id_col="doc_id", seed=42,
    )


EXTRA_QUERIES = {
    "code_quality_docs": q_code_quality_docs,
    "repo_stats": q_repo_stats,
    "cms_token_counts": q_cms_token_counts,
    "semdedup_docs": q_semdedup_docs,
    "pack_sequences_docs": q_pack_sequences_docs,
    "substring_dedup_docs": q_substring_dedup_docs,
    "langid_distribution": q_langid_distribution,
    "perplexity_buckets": q_perplexity_buckets,
    "minhash_signatures": q_minhash_signatures,
    "fuzzy_dedup_docs": q_fuzzy_dedup_docs,
    "simhash_near_dups": q_simhash_near_dups,
    "ann_lsh_buckets": q_ann_lsh_buckets,
    "ann_ivf_knn": q_ivf_knn,
    "approx_distinct_texts": q_approx_distinct_texts,
    "corpus_flagship": q_corpus_flagship,
    "media_decode": q_media_decode,
    # inside the driver's 50-query window since round 5 (VERDICT r4
    # item 1): the five TPC-H-style relational queries merged into
    # analysis.py's relational_summary, freeing exactly these slots
    "heavy_hitter_tokens": q_heavy_hitter_tokens,
    "grouped_split_docs": q_grouped_split_docs,
    "domain_cap_docs": q_domain_cap_docs,
    "token_budget_docs": q_token_budget_docs,
    # registered PAST the driver's 50-query report window — each is a
    # section of relational_summary (driver-verified); kept registered
    # so gate_preflight + the adversarial soak still exercise them
    # individually. Do not reorder the first 50.
    "orders_by_mktsegment": _an.q_orders_by_mktsegment,
    "order_priority_revenue": _an.q_order_priority_revenue,
    "lineitem_pricing": _an.q_lineitem_pricing,
    "supplier_region_stats": _an.q_supplier_region_stats,
    "part_brand_stats": _an.q_part_brand_stats,
    "profile_documents": q_profile_documents,
}
