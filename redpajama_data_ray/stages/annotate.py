"""Fused annotation stage: every model + signal table in one callable.

``AnnotateStage`` holds the language-ID model, perplexity LM, signal
kernel, classifier, DSIR scorer and minhash permutations (all loaded
once in ``__init__``) and computes the full annotation row-set in a
single pass per batch.

The default plan runs it as Ray Data *tasks* through
``CachedAnnotateStage``: a small picklable callable that builds the
stage at most once per worker process and keeps it in a module-level
slot, keyed by a digest taken on the driver. Ray then fuses
ids -> annotate -> write into one task chain that uses every CPU,
starts no actor and hands no batch between operators. The ``pairs``
plan still runs ``AnnotateStage`` in an actor pool behind
``ModelPairStage``.

The per-model stages in ``langid.py`` / ``perplexity.py`` / ``signals.py``
/ ``minhash.py`` remain available for heterogeneous scaling (e.g. give
the perplexity pool more actors than langid on a real cluster) — every
plan produces identical columns (tested).
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

import pyarrow as pa

from ..functions.classifier import QualityClassifier
from ..functions.doc_signals import (
    DOC_SIGNAL_NAMES,
    LINE_SIGNAL_NAMES,
    DocView,
    SignalKernel,
)
from ..functions.importance import DSIRScorer, build_hash_dist
from ..functions.langid import NGramLangId, _SEED_TEXT
from ..functions.minhash import MinHasher
from ..functions.perplexity import PerplexityScorer
from ..config import BUCKET_TO_INT


class ModelPairStage:
    """Model half of the ``fused="pairs"`` plan: the two true model
    inferences (language ID + perplexity) in ONE actor pool, emitting
    the same five columns the fused stage computes inline
    (``lang_pred``, ``lang_score``, ``ppl``, ``ppl_bucket``,
    ``ppl_bucket_int``). On a heterogeneous cluster this is the pool
    you size/provision separately (real fastText/KenLM models are
    memory-heavy); the kernel half follows as
    ``AnnotateStage(use_model_columns=True)``."""

    def __init__(
        self,
        text_column: str = "content",
        langid_model_path=None,
        ppl_model_path=None,
    ):
        from .langid import LangIdStage
        from .perplexity import PerplexityStage

        self.lid = LangIdStage(text_column, model_path=langid_model_path)
        self.ppl = PerplexityStage(text_column, model_path=ppl_model_path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.ppl(self.lid(batch))


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
        use_model_columns: bool = False,
        minhash_shingle_hash: str = "sha1",
        tune_gc: bool = False,
    ):
        """``*_model_path``: optional user-supplied model artifacts
        (fastText ``.bin`` / KenLM binary via try-import hooks, or this
        repo's ``.npz``/``.npy`` offline formats — see
        functions/model_loading.py). They override both the embedded
        stand-ins and any ``artifacts_dir`` equivalents.

        ``tune_gc``: freeze the loaded state and relax the cyclic-GC
        thresholds. Both settings hold for the whole process, so only
        an actor that owns its process sets it; never a stage built
        in a shared task worker or the driver."""
        self.artifacts_dir = artifacts_dir
        self.text_column = text_column
        self.include_scrub = include_scrub
        self.rules = rules
        # plugin signals are captured at pipeline-construction time and
        # shipped by value (cloudpickle) — a module-level registry would
        # be empty inside fresh actor processes
        self.extra_signals = list(extra_signals or [])
        # per-language signal tables (stopwords / LDNOOBW), selected per
        # row by predicted language — the reference selects them per
        # language job (content.py:24-45); "code"/unknown fall back to en
        self.kernels = {
            lang: SignalKernel(language=lang)
            for lang in ("en", "fr", "de", "es", "it")
        }
        self.kernel = self.kernels["en"]
        # use_model_columns: the "pairs" plan — lang/ppl columns come
        # from an upstream ModelPairStage pool, so no models load here
        self.use_model_columns = use_model_columns
        if use_model_columns:
            self.langid = None
            self.pplx = None
        elif langid_model_path:
            from ..functions.model_loading import load_langid_model

            self.langid = load_langid_model(langid_model_path)
        else:
            self.langid = NGramLangId()
        if use_model_columns:
            pass
        elif ppl_model_path:
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
        if tune_gc:
            # the per-doc kernels churn small acyclic objects (tuples,
            # str slices); cyclic-GC passes add pure overhead in a
            # long-lived actor, so freeze the model state and relax
            # the thresholds
            import gc

            gc.collect()
            gc.freeze()
            gc.set_threshold(200_000, 100, 100)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_column).to_pylist()
        n = len(texts)

        doc_cols = {name: [None] * n for name in DOC_SIGNAL_NAMES}
        line_cols = (
            {name: [None] * n for name in LINE_SIGNAL_NAMES}
            if self.include_line_signals
            else {}
        )
        if self.use_model_columns:
            langs = batch.column("lang_pred").to_pylist()
            lang_scores = batch.column("lang_score").to_pylist()
            ppls = batch.column("ppl").to_pylist()
            buckets = batch.column("ppl_bucket").to_pylist()
            bucket_ints = batch.column("ppl_bucket_int").to_pylist()
        else:
            langs, lang_scores = [None] * n, [None] * n
            ppls, buckets, bucket_ints = (
                [None] * n, [None] * n, [None] * n,
            )
        clf = [None] * n if self.classifier else None
        dsir = [None] * n if self.dsir else None
        sig_cols = (
            {k: [None] * n for k in self.hasher.signature_keys}
            if self.hasher
            else {}
        )

        # in-actor scrub + keep/drop state (the per-row loop computes
        # everything so the output table is built exactly once)
        do_scrub = self.include_scrub
        do_decide = self.rules is not None
        if do_scrub:
            import hashlib

            from ..functions.pii import PII_COUNT_COLUMNS, scrub_text

            scrubbed = [None] * n
            scrub_sha = [None] * n
            pii_counts = {k: [0] * n for k in PII_COUNT_COLUMNS}
        if do_decide:
            from ..functions.rules import decide

            keeps = [None] * n
            reasons = [None] * n

        for i, t in enumerate(texts):
            t = t if t is not None else ""
            v = DocView(t)
            if self.use_model_columns:
                lang, ls = langs[i], lang_scores[i]
                bucket = buckets[i]
            else:
                lang, ls = self.langid.predict(t)
                langs[i], lang_scores[i] = lang, ls
            kernel = self.kernels.get(lang, self.kernel)
            doc = kernel.doc_signals_view(v)
            for name in DOC_SIGNAL_NAMES:
                doc_cols[name][i] = doc[name]
            if self.include_line_signals:
                lines = kernel.line_signals_view(v)
                for name in LINE_SIGNAL_NAMES:
                    line_cols[name][i] = lines[name]
            if not self.use_model_columns:
                ppl, bucket = self.pplx.score(t)
                ppls[i], buckets[i] = ppl, bucket
                bucket_ints[i] = BUCKET_TO_INT.get(bucket)
            if clf is not None or dsir is not None:
                from ..functions.importance import token_hashes

                hashes = token_hashes(v.raw_words)
                if clf is not None:
                    if not t.strip():
                        clf[i] = None
                    elif hasattr(self.classifier, "score_from_hashes"):
                        clf[i] = self.classifier.score_from_hashes(hashes)
                    else:  # user-supplied model (fastText hook)
                        clf[i] = self.classifier.score(t)
                if dsir is not None:
                    dsir[i] = self.dsir.score_from_hashes(hashes, len(t))
            if self.hasher:
                sigs = self.hasher.banded_signatures(v.norm_words)
                for k in sig_cols:
                    sig_cols[k][i] = sigs[k]
            row_pii = None
            if do_scrub:
                s, c = scrub_text(t)
                scrubbed[i] = s
                scrub_sha[i] = hashlib.sha256(s.encode("utf-8")).hexdigest()
                for k in PII_COUNT_COLUMNS:
                    pii_counts[k][i] = c[k]
                row_pii = c
            if do_decide:
                row = {name: doc_cols[name][i] for name in DOC_SIGNAL_NAMES}
                row["lang_score"] = ls
                row["ppl_bucket"] = bucket
                if row_pii:
                    row.update(row_pii)
                keeps[i], reasons[i] = decide(row, self.rules)

        cols = {name: batch.column(name) for name in batch.schema.names}
        if do_scrub:
            cols[self.text_column] = pa.array(scrubbed, pa.string())
        cols["lang_pred"] = pa.array(langs, pa.string())
        cols["lang_score"] = pa.array(lang_scores, pa.float64())
        cols["ppl"] = pa.array(ppls, pa.float64())
        cols["ppl_bucket"] = pa.array(buckets, pa.string())
        cols["ppl_bucket_int"] = pa.array(bucket_ints, pa.float64())
        for name in DOC_SIGNAL_NAMES:
            cols[name] = pa.array(doc_cols[name], pa.float64())
        for name in line_cols:
            cols[name] = pa.array(line_cols[name], pa.list_(pa.float64()))
        if clf is not None:
            cols["rps_doc_ml_quality_score"] = pa.array(clf, pa.float64())
        if dsir is not None:
            cols["rps_doc_importance_weight"] = pa.array(dsir, pa.float64())
        for k in sig_cols:
            cols[k] = pa.array(sig_cols[k], pa.list_(pa.binary()))
        # user-registered plugin signals (registry = schema source of
        # truth, SURVEY.md §2.10)
        if self.extra_signals:
            safe_texts = [t if t is not None else "" for t in texts]
            for sig in self.extra_signals:
                cols[sig.name] = pa.array(sig.fn(safe_texts), sig.dtype)
        if do_scrub:
            for k in PII_COUNT_COLUMNS:
                cols[k] = pa.array(pii_counts[k], pa.int64())
            cols["content_scrubbed_sha256"] = pa.array(scrub_sha, pa.string())
        if do_decide:
            cols["keep"] = pa.array(keeps, pa.bool_())
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

    Memory: each task worker that runs annotate keeps one stage for
    the rest of the Ray session, up to one per CPU (``max_actors``
    caps the concurrent tasks). The built-in stand-in models take
    ~12 MB a stage; with ``*_model_path`` files, every such worker
    holds its own copy of each model."""

    def __init__(self, **stage_kwargs):
        self.stage_kwargs = stage_kwargs
        self.key = stage_cache_key(stage_kwargs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        global _STAGE_SLOT
        key, stage = _STAGE_SLOT
        if key != self.key:
            # free the old models before loading the new ones
            _STAGE_SLOT = stage = None
            stage = AnnotateStage(**self.stage_kwargs)
            _STAGE_SLOT = (self.key, stage)
        return stage(batch)
