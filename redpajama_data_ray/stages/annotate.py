"""Fused annotation stage: every model + signal table in one callable.

``AnnotateStage`` holds the language-ID model, perplexity LM, signal
kernel, classifier, DSIR scorer and minhash permutations (all loaded
once in ``__init__``) and computes the full annotation row-set in one
call per batch. The models (language ID, perplexity, minhash, PII
scrub) run per document; the doc signals, line signals and the
classifier / DSIR token hashes run over the whole batch, one column at
a time, through ``functions.doc_signals.BatchView`` (one word
dictionary per batch, each row reading the stop-word and LDNOOBW
tables of its predicted language); keep/drop is one ``decide_table``
over the built columns. The per-document ``DocView`` +
``SignalKernel`` path, ``importance.token_hashes`` and the scalar
``rules.decide`` are the oracles the batch path is tested against.

``pipelines.quality.annotate`` runs it as Ray Data *tasks* through
``CachedAnnotateStage``: a small picklable callable that builds the
stage at most once per worker process and keeps it in a module-level
slot, keyed by a digest taken on the driver. Ray then fuses
read -> ids -> annotate -> write into one task per read block, which
uses every CPU, starts no actor and hands no batch between operators.

The per-model stages in ``langid.py`` / ``perplexity.py`` /
``minhash.py`` serve the side pipelines of ``pipelines/extras.py``.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterator, Optional

import numpy as np
import pyarrow as pa

from ..functions.classifier import QualityClassifier
from ..functions.doc_signals import (
    DOC_SIGNAL_NAMES,
    BatchView,
    SignalKernel,
)
from ..functions.importance import DSIRScorer, build_hash_dist
from ..functions.langid import NGramLangId, _SEED_TEXT
from ..functions.minhash import MinHasher
from ..functions.perplexity import PerplexityScorer
from ..config import BUCKET_TO_INT


class AnnotateStage:
    def __init__(
        self,
        text_column: str = "content",
        include_line_signals: bool = True,
        include_minhash: bool = True,
        include_classifier: bool = True,
        include_dsir: bool = True,
        include_scrub: bool = False,
        rules=None,
        extra_signals=None,
        dsir_buckets: int = 10_000,
        artifacts_dir=None,
        langid_model_path=None,
        ppl_model_path=None,
        classifier_model_path=None,
        minhash_shingle_hash: str = "sha1",
    ):
        """``*_model_path``: optional user-supplied model artifacts
        (fastText ``.bin`` / KenLM binary via try-import hooks, or this
        repo's ``.npz``/``.npy`` offline formats — see
        functions/model_loading.py). They override both the embedded
        stand-ins and any ``artifacts_dir`` equivalents."""
        self.artifacts_dir = artifacts_dir
        self.text_column = text_column
        self.include_scrub = include_scrub
        self.rules = rules
        # plugin signals are captured at pipeline-construction time and
        # shipped by value (cloudpickle) — a module-level registry would
        # be empty inside fresh worker processes
        self.extra_signals = list(extra_signals or [])
        # per-language signal tables (stopwords / LDNOOBW), selected per
        # row by predicted language — the reference selects them per
        # language job (content.py:24-45); "code"/unknown fall back to en
        self.kernels = {
            lang: SignalKernel(language=lang)
            for lang in ("en", "fr", "de", "es", "it")
        }
        self.kernel = self.kernels["en"]
        if langid_model_path:
            from ..functions.model_loading import load_langid_model

            self.langid = load_langid_model(langid_model_path)
        else:
            self.langid = NGramLangId()
        if ppl_model_path:
            from ..functions.model_loading import load_perplexity_model

            self.pplx = load_perplexity_model(ppl_model_path)
        else:
            ppl_thresholds = None
            if artifacts_dir:
                from ..pipelines.artifacts import load_ppl_thresholds

                ppl_thresholds = load_ppl_thresholds(artifacts_dir)
            if ppl_thresholds is not None:
                self.pplx = PerplexityScorer(
                    head_threshold=ppl_thresholds[0],
                    middle_threshold=ppl_thresholds[1],
                )
            else:
                self.pplx = PerplexityScorer()
        self.include_line_signals = include_line_signals
        self.hasher = (
            MinHasher(shingle_hash=minhash_shingle_hash)
            if include_minhash
            else None
        )
        if include_classifier:
            if classifier_model_path:
                from ..functions.model_loading import load_classifier_model

                self.classifier = load_classifier_model(
                    classifier_model_path
                )
            else:
                clf_weights = None
                if artifacts_dir:
                    from ..pipelines.artifacts import (
                        load_classifier_weights,
                    )

                    clf_weights = load_classifier_weights(artifacts_dir)
                self.classifier = QualityClassifier(weights=clf_weights)
        else:
            self.classifier = None
        if include_dsir:
            loaded = None
            if artifacts_dir:
                # offline-prepared corpus distributions (the reference's
                # artifacts lifecycle: prep_artifacts.py -> serving load)
                from ..pipelines.artifacts import load_dsir_artifacts

                loaded = load_dsir_artifacts(artifacts_dir)
            if loaded is not None:
                tgt, src, lam_t, lam_s = loaded
            else:
                tgt, lam_t = build_hash_dist(
                    [_SEED_TEXT[k] for k in ("en", "fr", "de", "es", "it")],
                    dsir_buckets,
                )
                src, lam_s = build_hash_dist(
                    [_SEED_TEXT["code"]], dsir_buckets
                )
            self.dsir = DSIRScorer(tgt, src, lam_t, lam_s)
        else:
            self.dsir = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [
            t if t is not None else ""
            for t in batch.column(self.text_column).to_pylist()
        ]
        n = len(texts)
        preds = [self.langid.predict(t) for t in texts]
        langs = [lang for lang, _ in preds]
        lang_scores = [score for _, score in preds]
        scores = [self.pplx.score(t) for t in texts]
        ppls = [ppl for ppl, _ in scores]
        buckets = [bucket for _, bucket in scores]
        bucket_ints = [BUCKET_TO_INT.get(b) for b in buckets]

        # doc and line signals over the whole batch; each row reads the
        # stop-word / LDNOOBW tables of its predicted language (en for
        # any other)
        view = BatchView(texts)
        order = {lang: j for j, lang in enumerate(self.kernels)}
        kernel_idx = np.array(
            [order.get(lang, order["en"]) for lang in langs], dtype=np.int64
        )
        doc_cols = view.doc_signals(list(self.kernels.values()), kernel_idx)

        clf = [None] * n if self.classifier else None
        dsir = [None] * n if self.dsir else None
        sig_cols = (
            {k: [None] * n for k in self.hasher.signature_keys}
            if self.hasher
            else {}
        )
        do_scrub = self.include_scrub
        if do_scrub:
            from ..functions.pii import PII_COUNT_COLUMNS, scrub_text

            scrubbed = [None] * n
            scrub_sha = [None] * n
            pii_counts = {k: [0] * n for k in PII_COUNT_COLUMNS}

        for i, t in enumerate(texts):
            if clf is not None or dsir is not None:
                hashes = view.token_hashes(i)
                if clf is not None:
                    if view.n_raw[i] == 0:  # whitespace-only text
                        clf[i] = None
                    elif hasattr(self.classifier, "score_from_hashes"):
                        clf[i] = self.classifier.score_from_hashes(hashes)
                    else:  # user-supplied model (fastText hook)
                        clf[i] = self.classifier.score(t)
                if dsir is not None:
                    dsir[i] = self.dsir.score_from_hashes(hashes, len(t))
            if self.hasher:
                sigs = self.hasher.banded_signatures(view.norm_words[i])
                for k in sig_cols:
                    sig_cols[k][i] = sigs[k]
            if do_scrub:
                s, c = scrub_text(t)
                scrubbed[i] = s
                scrub_sha[i] = hashlib.sha256(s.encode("utf-8")).hexdigest()
                for k in PII_COUNT_COLUMNS:
                    pii_counts[k][i] = c[k]

        cols = {name: batch.column(name) for name in batch.schema.names}
        if do_scrub:
            cols[self.text_column] = pa.array(scrubbed, pa.string())
        cols["lang_pred"] = pa.array(langs, pa.string())
        cols["lang_score"] = pa.array(lang_scores, pa.float64())
        cols["ppl"] = pa.array(ppls, pa.float64())
        cols["ppl_bucket"] = pa.array(buckets, pa.string())
        cols["ppl_bucket_int"] = pa.array(bucket_ints, pa.float64())
        cols.update(doc_cols)
        if self.include_line_signals:
            cols.update(view.line_signals())
        if clf is not None:
            cols["rps_doc_ml_quality_score"] = pa.array(clf, pa.float64())
        if dsir is not None:
            cols["rps_doc_importance_weight"] = pa.array(dsir, pa.float64())
        for k in sig_cols:
            cols[k] = pa.array(sig_cols[k], pa.list_(pa.binary()))
        # user-registered plugin signals (registry = schema source of
        # truth, SURVEY.md §2.10)
        for sig in self.extra_signals:
            cols[sig.name] = pa.array(sig.fn(texts), sig.dtype)
        if do_scrub:
            for k in PII_COUNT_COLUMNS:
                cols[k] = pa.array(pii_counts[k], pa.int64())
            cols["content_scrubbed_sha256"] = pa.array(scrub_sha, pa.string())
        if self.rules is not None:
            # keep/drop over the signals this call computed (the input
            # batch's own columns take no part, as in the scalar rule)
            from ..functions.rules import decide_table

            names = list(DOC_SIGNAL_NAMES) + ["lang_score", "ppl_bucket"]
            if do_scrub:
                names += PII_COUNT_COLUMNS
            keep, reasons = decide_table(
                pa.table({k: cols[k] for k in names}), self.rules
            )
            cols["keep"] = pa.array(keep, pa.bool_())
            cols["drop_reasons"] = pa.array(reasons, pa.list_(pa.string()))
        return pa.table(cols)


# (cache key, AnnotateStage) of this worker process. One slot: every
# caller runs one configuration per execution, and a worker never
# holds two model sets at once.
_STAGE_SLOT: "tuple[Optional[str], Optional[AnnotateStage]]" = (None, None)


def _file_stamp(path: str):
    """(size, mtime_ns) of a model file; None when it is missing (the
    stage's own load then raises the real error)."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_size, st.st_mtime_ns


def stage_cache_key(stage_kwargs: dict) -> str:
    """Digest of ``AnnotateStage`` constructor kwargs plus the
    ``(size, mtime_ns)`` of every model file they name, so a changed
    config or a model rewritten at the same path never reuses a stale
    stage. Taken once, when the plan is built."""
    from ray import cloudpickle

    items = sorted(stage_kwargs.items())
    stamps = [
        (k, _file_stamp(v)) for k, v in items if k.endswith("_model_path") and v
    ]
    return hashlib.sha256(cloudpickle.dumps((items, stamps))).hexdigest()


class CachedAnnotateStage:
    """``AnnotateStage`` for a task ``map_batches``: the instance ships
    with every task, carrying only the constructor kwargs and their
    cache key; the stage itself is built on a worker's first batch and
    reused by every later task that worker runs with the same key.

    ``batch_rows``: the fused plan hands it whole blocks, so that Ray
    fuses the read with it. A block of more rows is cut into stage
    calls of at most this many rows (None: one call per batch), and the
    call returns a generator of their results, so Ray takes each one as
    it is made instead of a concatenation of the whole block. This
    bounds one call's Python row lists; the task's tables still grow
    with its block, since the parquet write holds a task's whole output.

    Memory: each task worker that runs annotate keeps one stage for
    the rest of the Ray session, up to one per CPU (``max_actors``
    caps the concurrent tasks). The built-in stand-in models take
    ~12 MB a stage; with ``*_model_path`` files, every such worker
    holds its own copy of each model."""

    def __init__(self, batch_rows: Optional[int] = None, **stage_kwargs):
        self.batch_rows = batch_rows
        self.stage_kwargs = stage_kwargs
        self.key = stage_cache_key(stage_kwargs)

    def __call__(self, batch: pa.Table) -> "pa.Table | Iterator[pa.Table]":
        global _STAGE_SLOT
        key, stage = _STAGE_SLOT
        if key != self.key:
            # free the old models before loading the new ones
            _STAGE_SLOT = stage = None
            stage = AnnotateStage(**self.stage_kwargs)
            _STAGE_SLOT = (self.key, stage)
        n = self.batch_rows
        if not n or batch.num_rows <= n:
            return stage(batch)
        return (stage(batch.slice(i, n)) for i in range(0, batch.num_rows, n))
