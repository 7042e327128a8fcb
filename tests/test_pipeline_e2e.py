"""End-to-end golden test: full Ray pipeline vs the row-at-a-time oracle.

The oracle recomputes every signal, model score, scrub, and keep/drop
decision per row with the pure-Python kernels (the same formulas the
reference implements row-at-a-time): doc and line signals through
``SignalKernel``, the classifier and DSIR scores from the text, and
minhash from the normalized words. The pipeline must match labels at
F1 >= 0.99 (expect 1.0), per-row sha256 of retained scrubbed content
(BASELINE.json acceptance criteria), and every oracle column exactly.
"""

import hashlib

import pytest
import ray.data

from redpajama_data_ray.config import BUCKET_TO_INT
from redpajama_data_ray.functions.classifier import QualityClassifier
from redpajama_data_ray.functions.doc_signals import (
    LINE_SIGNAL_NAMES,
    SignalKernel,
)
from redpajama_data_ray.functions.importance import (
    DSIRScorer,
    build_hash_dist,
)
from redpajama_data_ray.functions.langid import _SEED_TEXT, NGramLangId
from redpajama_data_ray.functions.minhash import MinHasher
from redpajama_data_ray.functions.perplexity import PerplexityScorer
from redpajama_data_ray.functions.pii import scrub_text
from redpajama_data_ray.functions.rules import RuleConfig, decide
from redpajama_data_ray.pipelines.quality import QualityConfig, annotate
from redpajama_data_ray.sources.corpus import generate_corpus_table
from redpajama_data_ray.text import normalize

N_ROWS = 300


def _dsir_scorer():
    """The stage's default DSIR distributions: the embedded natural
    language seed text as target, the code seed text as source."""
    tgt, lam_t = build_hash_dist(
        [_SEED_TEXT[k] for k in ("en", "fr", "de", "es", "it")], 10_000
    )
    src, lam_s = build_hash_dist([_SEED_TEXT["code"]], 10_000)
    return DSIRScorer(tgt, src, lam_t, lam_s)


def oracle_row(content: str, kernels, langid, pplx, clf, dsir, hasher):
    lang, score = langid.predict(content)
    kernel = kernels.get(lang, kernels["en"])
    sigs = kernel.doc_signals(content)
    ppl, bucket = pplx.score(content)
    scrubbed, pii_counts = scrub_text(content)
    row = dict(sigs)
    row["lang_score"] = score
    row["ppl_bucket"] = bucket
    row.update(pii_counts)
    keep, reasons = decide(row, RuleConfig())
    return {
        "lang_pred": lang,
        "lang_score": score,
        "ppl": ppl,
        "ppl_bucket": bucket,
        "keep": keep,
        "drop_reasons": reasons,
        "scrubbed_sha256": hashlib.sha256(
            scrubbed.encode("utf-8")
        ).hexdigest(),
        "line_signals": kernel.line_signals(content),
        "rps_doc_ml_quality_score": clf.score(content),
        "rps_doc_importance_weight": dsir.score(content),
        "signatures": hasher.banded_signatures(normalize(content).split()),
        **sigs,
    }


@pytest.fixture(scope="module")
def pipeline_and_oracle():
    table = generate_corpus_table(N_ROWS, seed=7)
    ds = ray.data.from_arrow(table)
    out = annotate(
        ds, QualityConfig(max_actors=2, include_minhash=True)
    ).to_pandas()

    kernels = {
        lang: SignalKernel(language=lang)
        for lang in ("en", "fr", "de", "es", "it")
    }
    models = (
        NGramLangId(), PerplexityScorer(), QualityClassifier(),
        _dsir_scorer(), MinHasher(),
    )
    oracle = [
        oracle_row(c, kernels, *models)
        for c in table.column("content").to_pylist()
    ]
    out = out.set_index("doc_id")
    # order oracle rows by the same key
    keys = [
        f"{r}/{p}@{c}"
        for r, p, c in zip(
            table.column("repo").to_pylist(),
            table.column("path").to_pylist(),
            table.column("commit").to_pylist(),
        )
    ]
    return out, dict(zip(keys, oracle))


def test_keep_labels_f1(pipeline_and_oracle):
    out, oracle = pipeline_and_oracle
    assert len(out) == len(oracle)
    tp = fp = fn = agree = 0
    for doc_id, row in out.iterrows():
        o = oracle[doc_id]
        if row.keep and o["keep"]:
            tp += 1
        elif row.keep and not o["keep"]:
            fp += 1
        elif not row.keep and o["keep"]:
            fn += 1
        if bool(row.keep) == o["keep"]:
            agree += 1
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    assert f1 >= 0.99, f"keep/drop F1 {f1}"
    assert agree == len(out)  # expect exact agreement


def test_signal_values_match_oracle_exactly(pipeline_and_oracle):
    out, oracle = pipeline_and_oracle
    from redpajama_data_ray.functions.doc_signals import DOC_SIGNAL_NAMES

    for doc_id, row in out.iterrows():
        o = oracle[doc_id]
        for name in DOC_SIGNAL_NAMES:
            got = row[name]
            want = o[name]
            if want is None:
                assert got != got or got is None, (doc_id, name, got)
            else:
                assert got == pytest.approx(want, abs=1e-12), (
                    doc_id, name, got, want,
                )


def _null(v):
    return v is None or (isinstance(v, float) and v != v)


def test_line_classifier_dsir_minhash_match_oracle_exactly(
    pipeline_and_oracle,
):
    """The columns the batch path computes apart from the doc signals,
    each against its per-document function: line signals through
    ``SignalKernel.line_signals``, the classifier and DSIR scores from
    the text, minhash from the normalized words."""
    out, oracle = pipeline_and_oracle
    hashed = 0
    for doc_id, row in out.iterrows():
        o = oracle[doc_id]
        for name in LINE_SIGNAL_NAMES:
            want = o["line_signals"][name]
            got = None if _null(row[name]) else list(row[name])
            assert got == want, (doc_id, name)
        for name in ("rps_doc_ml_quality_score", "rps_doc_importance_weight"):
            want = o[name]
            if want is None:
                assert _null(row[name]), (doc_id, name)
            else:
                assert row[name] == want, (doc_id, name, row[name], want)
        for key, want in o["signatures"].items():
            got = row[key]
            if want is None:
                assert _null(got), (doc_id, key)
            else:
                assert [bytes(b) for b in got] == want, (doc_id, key)
                hashed += 1
    assert hashed > 100


def test_scrubbed_sha256_equality_on_retained(pipeline_and_oracle):
    out, oracle = pipeline_and_oracle
    checked = 0
    for doc_id, row in out.iterrows():
        o = oracle[doc_id]
        if o["keep"]:
            assert row.content_scrubbed_sha256 == o["scrubbed_sha256"], doc_id
            checked += 1
    assert checked > 50


def test_drop_reasons_match(pipeline_and_oracle):
    out, oracle = pipeline_and_oracle
    for doc_id, row in out.iterrows():
        assert list(row.drop_reasons) == oracle[doc_id]["drop_reasons"], doc_id


def test_bucket_int_mapping(pipeline_and_oracle):
    out, _ = pipeline_and_oracle
    for _, row in out.iterrows():
        expected = BUCKET_TO_INT.get(row.ppl_bucket)
        got = row.ppl_bucket_int
        assert (got != got and expected is None) or got == expected


def test_batchsize_invariance():
    """Pipeline output is identical across batch sizes / block counts
    (order-independence of ids + signatures; SURVEY §5 property 4)."""
    table = generate_corpus_table(60, seed=11)
    outs = []
    for bs, blocks in ((16, 8), (64, 2)):
        ds = ray.data.from_arrow(table).repartition(blocks)
        cfg = QualityConfig(
            actor_batch_size=bs, max_actors=2,
            include_minhash=True, include_classifier=False,
            include_dsir=False, include_line_signals=False,
        )
        df = (
            annotate(ds, cfg)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        outs.append(df)
    a, b = outs
    assert list(a.doc_id) == list(b.doc_id)
    assert list(a.keep) == list(b.keep)
    assert list(a.content_scrubbed_sha256) == list(b.content_scrubbed_sha256)
    # minhash signatures identical
    for col in ("signature_sim0.8",):
        for x, y in zip(a[col], b[col]):
            if x is None or (isinstance(x, float) and x != x):
                assert y is None or (isinstance(y, float) and y != y)
            else:
                assert [bytes(i) for i in x] == [bytes(i) for i in y]


def test_max_content_chars_guard():
    """Giant-row guard: oversized content truncated + flagged before
    annotation; normal rows untouched (SURVEY §4 cap/truncate policy)."""
    import pyarrow as pa
    import ray.data as rd

    from redpajama_data_ray.pipelines.quality import QualityConfig, annotate

    t = pa.table(
        {
            "repo": ["r", "r"],
            "path": ["big", "small"],
            "commit": ["c", "c"],
            "lang": ["python", "python"],
            "content": ["x " * 50_000, "def f(): return 1"],
        }
    )
    out = annotate(
        rd.from_arrow(t),
        QualityConfig(max_actors=1, max_content_chars=1000),
    )
    rows = {
        r["path"]: r
        for b in out.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    }
    assert rows["big"]["content_truncated"] is True
    assert len(rows["big"]["content"]) <= 1000
    assert rows["big"]["rps_doc_word_count"] == 500.0
    assert rows["small"]["content_truncated"] is False
    assert rows["small"]["content"] == "def f(): return 1"
