"""The fused plan's per-worker ``AnnotateStage`` cache
(stages/annotate.py ``CachedAnnotateStage``): a changed config or a
model file rewritten at the same path must never reuse a stale stage.

The runs share one Ray session, so later runs land on task workers
that already hold the earlier runs' stages; 12 blocks over the
session's CPUs make every worker take part in every run."""

import gc
import os

import numpy as np
import pyarrow as pa
import ray.data

from redpajama_data_ray.functions.classifier import QualityClassifier
from redpajama_data_ray.functions.model_loading import save_classifier_model
from redpajama_data_ray.functions.rules import RuleConfig, decide_table
from redpajama_data_ray.pipelines.quality import QualityConfig, annotate
from redpajama_data_ray.sources.corpus import generate_corpus_table
from redpajama_data_ray.stages import annotate as annotate_mod
from redpajama_data_ray.stages.annotate import (
    AnnotateStage,
    CachedAnnotateStage,
    stage_cache_key,
)

_TABLE = generate_corpus_table(96, seed=17, include_big_file=False)


def _run(**cfg) -> pa.Table:
    cfg.setdefault("include_line_signals", False)
    ds = ray.data.from_arrow(_TABLE).repartition(12)
    out = pa.concat_tables(
        annotate(ds, QualityConfig(**cfg)).iter_batches(batch_format="pyarrow")
    )
    return out.sort_by("doc_id")


def test_cache_key_tracks_kwargs_and_model_files(tmp_path):
    path = save_classifier_model(QualityClassifier(), str(tmp_path / "c.npy"))
    kw = dict(rules=RuleConfig(), classifier_model_path=path)
    key = stage_cache_key(kw)
    assert stage_cache_key(dict(kw)) == key
    assert stage_cache_key(dict(kw, rules=RuleConfig(min_word_count=300))) != key
    assert stage_cache_key(dict(kw, include_minhash=False)) != key
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
    assert stage_cache_key(kw) != key


def test_changed_rules_rebuild_the_stage():
    loose = _run()
    strict_rules = RuleConfig(min_word_count=300)
    strict = _run(rules=strict_rules)
    for out, rules in ((loose, RuleConfig()), (strict, strict_rules)):
        want, _ = decide_table(out, rules)
        assert out["keep"].to_pylist() == [bool(k) for k in want]
    assert loose["keep"].to_pylist() != strict["keep"].to_pylist()
    # and back: the first config's stage is still right after the second
    assert _run()["keep"].equals(loose["keep"])


def test_changed_include_minhash_rebuilds_the_stage():
    sig = [f"signature_sim{s}" for s in ("1.0", "0.9", "0.8", "0.7")]
    with_mh = _run(include_minhash=True)
    without = _run(include_minhash=False)
    assert set(sig) <= set(with_mh.column_names)
    assert not set(sig) & set(without.column_names)
    assert with_mh.drop_columns(sig).column_names == without.column_names
    assert with_mh["keep"].equals(without["keep"])


def test_model_rewritten_at_same_path_is_reloaded(tmp_path):
    path = str(tmp_path / "clf.npy")
    texts = pa.table({"content": _TABLE["content"]})
    weights = QualityClassifier().weights
    outs = []
    for w in (weights, -weights):  # same shape: only the mtime moves
        np.save(path, w)
        want = AnnotateStage(classifier_model_path=path)(texts)
        want = dict(zip(
            [f"{r}/{p}@{c}" for r, p, c in zip(
                _TABLE["repo"].to_pylist(), _TABLE["path"].to_pylist(),
                _TABLE["commit"].to_pylist(),
            )],
            want["rps_doc_ml_quality_score"].to_pylist(),
        ))
        out = _run(classifier_model_path=path)
        got = dict(zip(
            out["doc_id"].to_pylist(),
            out["rps_doc_ml_quality_score"].to_pylist(),
        ))
        assert got == want
        outs.append(got)
    assert outs[0] != outs[1]


def test_cached_stage_leaves_process_gc_alone(monkeypatch):
    """Task workers are shared with every later task of the session:
    building and running the cached stage must not change the
    process's GC thresholds or freeze its objects."""
    monkeypatch.setattr(annotate_mod, "_STAGE_SLOT", (None, None))
    before = gc.get_threshold(), gc.get_freeze_count()
    out = CachedAnnotateStage(rules=RuleConfig(), include_scrub=True)(
        _TABLE.select(["content"]).slice(0, 8)
    )
    assert out.num_rows == 8
    assert (gc.get_threshold(), gc.get_freeze_count()) == before


def test_task_workers_keep_default_gc():
    """The same on the real fused plan: a plugin signal, called inside
    the stage on every batch, reads its task worker's GC state after
    that worker built its stage."""
    from redpajama_data_ray.functions.registry import (
        register_signal,
        unregister_signal,
    )

    @register_signal("rps_doc_gc_gen0_threshold", pa.float64())
    def gen0_threshold(texts):
        import gc

        return [float(gc.get_threshold()[0])] * len(texts)

    @register_signal("rps_doc_gc_frozen", pa.float64())
    def frozen(texts):
        import gc

        return [float(gc.get_freeze_count())] * len(texts)

    @ray.remote
    def worker_gc():
        import gc

        return gc.get_threshold()[0], gc.get_freeze_count()

    default_gen0, default_frozen = ray.get(worker_gc.remote())
    try:
        out = _run()
    finally:
        unregister_signal("rps_doc_gc_gen0_threshold")
        unregister_signal("rps_doc_gc_frozen")
    assert set(out["rps_doc_gc_gen0_threshold"].to_pylist()) == {default_gen0}
    assert set(out["rps_doc_gc_frozen"].to_pylist()) == {default_frozen}


def test_cached_stage_cuts_blocks_into_bounded_calls(monkeypatch):
    """The fused plan hands the stage whole blocks: ``batch_rows`` cuts
    each into calls of at most that many rows, made one at a time as
    Ray takes their results, which together equal one call over the
    block."""
    from redpajama_data_ray.functions.registry import RegisteredSignal

    monkeypatch.setattr(annotate_mod, "_STAGE_SLOT", (None, None))
    sizes = []

    def call_size(texts):
        sizes.append(len(texts))
        return [len(texts)] * len(texts)

    kw = dict(
        include_line_signals=False,
        include_scrub=True,
        rules=RuleConfig(),
        extra_signals=[RegisteredSignal("rps_doc_call", call_size, pa.int64())],
    )
    block = _TABLE.slice(0, 25)
    want = AnnotateStage(**kw)(block)
    sizes.clear()
    out = CachedAnnotateStage(batch_rows=10, **kw)(block)
    assert sizes == []
    first = next(out)
    assert first.num_rows == 10 and sizes == [10]
    got = pa.concat_tables([first, *out])
    assert sizes == [10, 10, 5]
    assert got.drop(["rps_doc_call"]).equals(want.drop(["rps_doc_call"]))
    assert CachedAnnotateStage(batch_rows=10, **kw)(block.slice(0, 0)).num_rows == 0
