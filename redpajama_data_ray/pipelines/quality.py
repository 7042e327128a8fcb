"""The flagship quality pipeline (SURVEY.md §7.1 architecture).

Default (fused) plan — annotation runs as Ray Data tasks:

    read_parquet(corpus, override_num_blocks=4*_default_actors())
      -> map_batches(assign_ids)                  # task, batched like
      -> map_batches(CachedAnnotateStage(...))    #  the annotate task:
                                                  #  langid + perplexity +
                                                  #  signals + minhash +
                                                  #  PII scrub + keep/drop
      -> caller: NarrowSinks + write_parquet      # pipelines/outputs.py
         (or dedup branches)

Ray fuses ids -> annotate -> the caller's task steps and write into one
task chain, so every CPU annotates and no batch passes between
operators. ``QualityConfig.max_actors`` caps that chain through a CPU
limit on the execution rather than a per-operator pool size, which a
write could not match. Each worker process builds its
``AnnotateStage`` once and keeps it in a one-stage slot for the rest of
the Ray session (stages/annotate.py); nothing starts an actor.

``fused="pairs"`` runs two actor pools (langid + perplexity, then the
kernels); ``fused=False`` runs one pool per model (LangIdStage ->
PerplexityStage -> SignalStage -> MinHashStage -> scrub -> decide) for
heterogeneous per-stage scaling. Every plan emits identical columns
(tests/test_registry_and_paths.py::test_fused_and_unfused_paths_match).

Everything streams; nothing materializes the corpus. Filtering
(``keep``) and dedup branches are applied by the caller.
``pipelines/outputs.write_outputs`` writes the annotated parquet and,
from the same tasks, the signals, minhash and kept-corpus sinks,
mirroring the reference's per-shard triple output (reference
app/src/core/worker.py:291-356).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import ray.data
from ray.data import Dataset

from ..functions.rules import RuleConfig
from ..sources.corpus import ensure_corpus_parquet, sf_from_dir
from ..stages import (
    LangIdStage,
    MinHashStage,
    PerplexityStage,
    SignalStage,
    assign_ids,
    scrub_batch,
)


@dataclass
class QualityConfig:
    """Per-stage sizing. Batch sizes keep a batch x concurrency well
    under worker heap even with multi-MB content rows.

    ``fused=True`` (default) runs every model in one task per batch
    (stages/annotate.py ``CachedAnnotateStage``) — no actor, no
    inter-operator handoff, fits any CPU budget including one CPU.
    ``fused=False`` runs one actor pool per model with fractional CPUs,
    for heterogeneous per-stage scaling on a real cluster.
    ``fused="pairs"`` is the middle topology: TWO pools — a model pool
    (langid + perplexity, the inferences a real cluster
    sizes/provisions separately) and a kernel pool (signals + minhash
    + scrub + decide) — one handoff instead of four. All plans produce
    identical columns (tested in tests/test_pipeline_e2e.py).
    """

    # batch of the task operators of the pool plans (ids, scrub, decide)
    batch_size: int = 256
    # batch of the annotate stage, task or actor; the fused plan runs
    # ids at this size too, so every read block becomes its own
    # annotate task instead of being packed with its neighbours
    actor_batch_size: int = 64
    # giant-row guard (SURVEY §4: Ray splits oversized BLOCKS, but one
    # huge row still lands whole in an annotate call): when set, content
    # longer than this is truncated before annotation and flagged in a
    # content_truncated column. Off by default — truncation changes
    # signal values for the affected rows.
    max_content_chars: Optional[int] = None
    # fused plan: cap on the CPUs of the whole execution, so on its
    # concurrent annotate tasks (None -> Ray runs one per free CPU).
    # Pool plans: the actor budget (None -> num_cpus - 2,
    # the reference's sizing: pipeline.py:334 uses cpu_count-2 worker
    # processes), never more than num_cpus - 1 CPUs
    max_actors: Optional[int] = None
    num_blocks: Optional[int] = None  # None -> keep the input's blocks
    fused: "bool | str" = True  # True | False | "pairs"
    include_line_signals: bool = True
    include_minhash: bool = True
    # "sha1" = reference byte-parity (default); "poly64" = the documented
    # ~12x-faster vectorized shingle hash (functions/minhash.py module
    # docstring) — signatures are NOT comparable across modes, so a corpus
    # and its incremental fuzzy state must stay in one mode throughout
    minhash_shingle_hash: str = "sha1"
    include_classifier: bool = True
    include_dsir: bool = True
    rules: RuleConfig = RuleConfig()
    # optional real model artifacts (reference discovers .bin files at
    # job start, pipeline.py:286-297): fastText .bin / .npz profiles
    # for language ID, KenLM .arpa/.klm/.npz for perplexity, fastText
    # .bin / .npy log-odds for the quality classifier. Loaded once per
    # worker process (fused) or actor (pools) via
    # functions/model_loading.py (dependency-free readers when the real
    # packages are absent). The fused plan keeps one copy in every task
    # worker that annotates (up to one per CPU) until the Ray session
    # ends; the pools free theirs when the run ends.
    langid_model_path: Optional[str] = None
    ppl_model_path: Optional[str] = None
    classifier_model_path: Optional[str] = None


def _cluster_cpus() -> int:
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


def _default_actors() -> int:
    """Actor budget of the pool plans and read parallelism unit:
    the cluster's CPUs less two, at least one."""
    return max(1, _cluster_cpus() - 2)


def _pool_budget(cfg: QualityConfig) -> float:
    """CPUs the actor pools of the ``pairs`` and unfused plans may
    hold: ~90% of the actor budget, at least 2, and never more than
    the cluster's CPUs less one, which stays free for the read and
    write tasks (a pool holding every CPU starves them: the plan
    hangs)."""
    cpus = _cluster_cpus()
    if cpus < 2:
        raise ValueError(
            f"QualityConfig(fused={cfg.fused!r}) needs at least 2 CPUs: "
            "its actor pools hold CPUs the read and write tasks need; "
            "the default fused=True plan runs on one"
        )
    max_actors = cfg.max_actors or _default_actors()
    return min(max(2.0, max_actors * 0.9), cpus - 1)


def _pools(budget: float, weights: "list[float]") -> "tuple[list, float]":
    """Fixed actor count per pool (its weight's share of ``budget``,
    at 0.5 CPU each, at least one actor) and the CPUs per actor that
    keep every pool together inside ``budget``."""
    sizes = [max(1, round(2 * budget * w)) for w in weights]
    return sizes, min(0.5, budget / sum(sizes))


def annotate(ds: Dataset, cfg: Optional[QualityConfig] = None) -> Dataset:
    """corpus Dataset -> fully annotated Dataset (lazy, streaming)."""
    cfg = cfg or QualityConfig()
    if cfg.fused not in (True, False, "pairs"):
        # any other string would fall through truthy into the fused
        # plan — reject typos ("unfused", "Pairs") loudly instead
        raise ValueError(
            f"QualityConfig.fused must be True, False or 'pairs', "
            f"got {cfg.fused!r}"
        )
    if cfg.num_blocks:
        # explicit re-split requested (callers reading pre-split files
        # should pass override_num_blocks at the read instead — no barrier)
        ds = ds.repartition(cfg.num_blocks)
    fused = cfg.fused not in (False, "pairs")
    # the fused plan's task operators share one batch size and set no
    # per-operator concurrency (Ray fuses task maps only when their
    # pool sizes match, and a write has none), so they fuse with the
    # annotate task and the caller's write into a single task chain
    task_args = dict(
        batch_size=cfg.actor_batch_size if fused else cfg.batch_size
    )
    if fused and cfg.max_actors:
        # the cap is a CPU limit of the whole execution instead, which
        # every operator shares. Ray keeps it on the dataset's
        # context, the one context of the whole lineage (``ds`` too)
        opts = ds.context.execution_options
        opts.resource_limits = opts.resource_limits.copy(cpu=cfg.max_actors)
    if cfg.max_content_chars is not None:
        cap = cfg.max_content_chars

        def _truncate(t: "pa.Table") -> "pa.Table":
            import pyarrow as pa
            import pyarrow.compute as pc

            content = t.column("content")
            too_long = pc.greater(pc.utf8_length(content), cap)
            clipped = pc.utf8_slice_codeunits(content, 0, cap)
            out = pc.if_else(too_long, clipped, content)
            idx = t.schema.get_field_index("content")
            return t.set_column(idx, "content", out).append_column(
                "content_truncated", pc.cast(too_long, pa.bool_())
            )

        ds = ds.map_batches(_truncate, batch_format="pyarrow", **task_args)
    ds = ds.map_batches(assign_ids, batch_format="pyarrow", **task_args)
    from ..functions.registry import registered_signals

    feature_kwargs = dict(
        include_line_signals=cfg.include_line_signals,
        include_classifier=cfg.include_classifier,
        include_dsir=cfg.include_dsir,
    )
    if fused:
        from ..stages.annotate import CachedAnnotateStage

        # scrub + decide run inside the same call (they are <10% of
        # its cost), so the annotated rows leave the task finished
        return ds.map_batches(
            CachedAnnotateStage(
                include_minhash=cfg.include_minhash,
                minhash_shingle_hash=cfg.minhash_shingle_hash,
                include_scrub=True,
                rules=cfg.rules,
                # plugin signals are captured here and shipped by
                # value: the registry is empty in a fresh worker
                extra_signals=list(registered_signals().values()),
                langid_model_path=cfg.langid_model_path,
                ppl_model_path=cfg.ppl_model_path,
                classifier_model_path=cfg.classifier_model_path,
                **feature_kwargs,
            ),
            batch_format="pyarrow",
            # the stage builds a new table; skip the defensive copy
            zero_copy_batch=True,
            **task_args,
        )
    budget = _pool_budget(cfg)
    if cfg.fused == "pairs":
        from ..stages.annotate import AnnotateStage, ModelPairStage

        # fixed-size pools weighted by measured compute share, like
        # the unfused plan below (the r4 "pairs" scaling floor of
        # 0.37-0.44 was the same autoscale-from-1 ramp): models
        # (langid+ppl) ~25% of pipeline compute, kernels ~75%
        sizes, cpus = _pools(budget, [0.25, 0.70])

        def pair_pool(n: int) -> dict:
            return dict(
                batch_format="pyarrow",
                batch_size=cfg.actor_batch_size,
                concurrency=(n, n),
                num_cpus=cpus,
                zero_copy_batch=True,
            )

        ds = ds.map_batches(
            ModelPairStage,
            fn_constructor_kwargs=dict(
                langid_model_path=cfg.langid_model_path,
                ppl_model_path=cfg.ppl_model_path,
            ),
            **pair_pool(sizes[0]),
        )
        ds = ds.map_batches(
            AnnotateStage,
            fn_constructor_kwargs=dict(
                use_model_columns=True,
                # the actor owns its process
                tune_gc=True,
                include_minhash=cfg.include_minhash,
                minhash_shingle_hash=cfg.minhash_shingle_hash,
                include_scrub=True,
                rules=cfg.rules,
                extra_signals=list(registered_signals().values()),
                classifier_model_path=cfg.classifier_model_path,
                **feature_kwargs,
            ),
            **pair_pool(sizes[1]),
        )
        return ds
    if cfg.classifier_model_path:
        raise ValueError(
            "classifier_model_path requires a fused plan "
            "(fused=True or 'pairs'): the unfused SignalStage computes "
            "the classifier inside its per-language kernel"
        )
    # One pool per model, each FIXED-SIZE (min == max) and sized to
    # the stage's measured share of pipeline compute. The previous
    # (1, max_actors) autoscaling pools utilized only ~40% of a
    # 32-CPU host (220 s of remote compute stretched to 17 s wall,
    # sf0.1): every pool ramps from ONE actor while upstream
    # output queues, and six pools ramping serially never reach
    # steady state within a stage's lifetime — the unfused plan's
    # 0.54-0.65 scaling floor was scheduling bubbles, not handoff
    # bytes (measured: 6 content-sized handoffs ≈ 1.5 GB through
    # the object store ≈ sub-second). Weights from the sf0.1
    # remote-wall profile: signal 56%, minhash 24%, langid 7.5%,
    # perplexity 4%, rest tasks. Each actor holds 0.5 CPU (less when
    # the one-actor floors would overrun the budget), so a stage's CPU
    # share is actors/2; the CPUs outside the budget stay free for the
    # task operators (read/ids/scrub/write).
    stages = [
        (LangIdStage, dict(model_path=cfg.langid_model_path), 0.10),
        (PerplexityStage, dict(model_path=cfg.ppl_model_path), 0.06),
        (SignalStage, feature_kwargs, 0.50),
    ]
    if cfg.include_minhash:
        stages.append(
            (MinHashStage, dict(shingle_hash=cfg.minhash_shingle_hash), 0.24)
        )
    sizes, cpus = _pools(budget, [w for _, _, w in stages])
    for (stage, kwargs, _), n in zip(stages, sizes):
        ds = ds.map_batches(
            stage,
            fn_constructor_kwargs=kwargs,
            batch_format="pyarrow",
            batch_size=cfg.actor_batch_size,
            concurrency=(n, n),
            num_cpus=cpus,
            # stages build NEW tables (Arrow is immutable) — skip
            # the defensive input copy on every handoff
            zero_copy_batch=True,
        )
    # scrub and decide are stateless kernels — run them as TASK
    # operators so Ray Data fuses scrub -> decide -> write into one
    # pass (an actor-pool decide forced two extra content-sized
    # object-store handoffs for <6% of the pipeline's compute)
    from ..stages.decide import decide_batch

    ds = ds.map_batches(
        scrub_batch,
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        zero_copy_batch=True,
    )
    ds = ds.map_batches(
        decide_batch,
        fn_kwargs=dict(config=cfg.rules),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        zero_copy_batch=True,
    )
    return ds


def filter_keep_patterns(files, patterns) -> "list[str]":
    """Input-listing keep-pattern filter, reference parity: a file is
    kept when ANY of the regexes matches (``re.match`` semantics —
    anchored at the start, mirroring
    /root/reference/app/src/pipeline.py:253-284
    ``filename_keep_patterns``). Patterns are tried against the
    basename first, then the full path, since our listings are absolute
    paths rather than the reference's relative listing lines."""
    import os
    import re

    regs = [re.compile(p) for p in patterns]
    return [
        f
        for f in files
        if any(
            r.match(os.path.basename(f)) or r.match(f) for r in regs
        )
    ]


def read_corpus(
    sf_dir: str,
    num_blocks: Optional[int] = None,
    shuffle_files: bool = False,
    max_docs: Optional[int] = None,
    keep_patterns: Optional[list] = None,
) -> Dataset:
    """Synthesize (cached) + read the code corpus matching a testdata
    scale-factor directory. Blocks are split at the read (no shuffle):
    default 4 tasks per annotate actor for load balance.

    ``shuffle_files`` mirrors the reference's input-list shuffle for
    coarse load balancing (pipeline.py:373); ``max_docs`` is the
    dev-mode cap (pipeline.py:204-208); ``keep_patterns`` filters the
    input file listing by regex (pipeline.py:253-284)."""
    sf = sf_from_dir(sf_dir)
    corpus_dir = ensure_corpus_parquet(sf)
    if num_blocks is None:
        num_blocks = 4 * _default_actors()
    paths: "str | list" = corpus_dir
    if keep_patterns:
        import glob
        import os

        files = sorted(
            glob.glob(os.path.join(corpus_dir, "*.parquet"))
        )
        paths = filter_keep_patterns(files, keep_patterns)
        if not paths:
            raise ValueError(
                f"no input files match keep patterns {keep_patterns}"
            )
    ds = ray.data.read_parquet(
        paths,
        override_num_blocks=num_blocks,
        shuffle="files" if shuffle_files else None,
    )
    if max_docs is not None:
        ds = ds.limit(max_docs)
    return ds


def run_flagship(
    sf_dir: str = "/root/testdata/sf0.001",
    cfg: Optional[QualityConfig] = None,
) -> Dataset:
    """End-to-end annotated corpus for a scale factor (lazy)."""
    return annotate(read_corpus(sf_dir), cfg)

