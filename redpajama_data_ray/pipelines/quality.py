"""The flagship quality pipeline (SURVEY.md §7.1 architecture).

Annotation runs as Ray Data tasks, one per read block:

    read_parquet(corpus, override_num_blocks=4*_default_actors())
      -> map_batches(assign_ids)                  # whole blocks
      -> map_batches(CachedAnnotateStage(...))    # whole blocks, cut into
                                                  #  calls of <= 64 rows:
                                                  #  langid + perplexity +
                                                  #  signals + minhash +
                                                  #  PII scrub + keep/drop
      -> caller: NarrowSinks + write_parquet      # pipelines/outputs.py
         (or dedup branches)

Ray fuses the read, ids, annotate and the caller's task steps and
write into ONE operator, ``ReadParquet->...->Write``, with one task per
read block, so every CPU annotates and no block passes between
operators (a read that splits files into more blocks than there are
files, ``ReadParquet->SplitBlocks(k)``, stays its own operator: Ray
fuses no split read; a read with no ``override_num_blocks`` splits
when the input has more MB than files, up to 200 blocks). The
lineage's context sets ``target_max_block_size`` to an eighth of the
execution's object-store limit per CPU (``_fused_block_target``):
Ray's guess for the output of the operator's first task, 2 blocks,
then admits one task per CPU, where 2 x the 128 MB default filled a
512 MB store's share and held the other tasks back until the first
returned. The target stays finite, so the read still sizes its block
count to the input.
``QualityConfig.max_actors`` caps the tasks through a CPU limit on the
execution rather than a per-operator pool size, which a write could
not match. Each worker process builds its ``AnnotateStage`` once and
keeps it in a one-stage slot for the rest of the Ray session
(stages/annotate.py); nothing starts an actor. This is the reference's
one worker pass per shard (app/src/core/worker.py:230-232) on every
CPU, and it runs on a one-CPU session.

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
from ..sources.corpus import (
    ensure_corpus_parquet,
    parse_sf_basename,
    sf_from_dir,
)
from ..stages import assign_ids


@dataclass
class QualityConfig:
    """What ``annotate`` computes and how many CPUs it may use. Every
    model runs in one task per read block (stages/annotate.py
    ``CachedAnnotateStage``): no actor, no inter-operator handoff, and
    any CPU budget, one CPU included."""

    # rows per annotate call. The maps take whole read blocks (each
    # block is one task of the fused read -> write operator) and the
    # task cuts its block into calls of at most this many rows: this
    # bounds one call's Python row lists. A task's tables grow with its
    # read block (Ray's parquet write holds a task's whole output); a
    # read with no override_num_blocks makes blocks of about the
    # lineage's target_max_block_size at most
    actor_batch_size: int = 64
    # giant-row guard (SURVEY §4: Ray splits oversized BLOCKS, but one
    # huge row still lands whole in an annotate call): when set, content
    # longer than this is truncated before annotation and flagged in a
    # content_truncated column. Off by default — truncation changes
    # signal values for the affected rows.
    max_content_chars: Optional[int] = None
    # cap on the CPUs of the whole execution, so on its concurrent
    # annotate tasks (None -> Ray runs one per free CPU)
    max_actors: Optional[int] = None
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
    # worker process via functions/model_loading.py (dependency-free
    # readers when the real packages are absent); every task worker
    # that annotates (up to one per CPU) keeps its copy until the Ray
    # session ends.
    langid_model_path: Optional[str] = None
    ppl_model_path: Optional[str] = None
    classifier_model_path: Optional[str] = None


def _cluster_cpus() -> int:
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


def _fused_block_target(ctx) -> int:
    """``target_max_block_size`` for the fused plan's lineage: an
    eighth of the execution's object-store limit per CPU it may use,
    between Ray's minimum block size and the context's current target.

    Before any task of an operator returns, Ray budgets its pending
    output at 2 blocks of this size. Its object-store limit is half the
    store (or ``resource_limits``); one operator may hold up to 3/4 of
    it, and each of 2 or 3 operators at least 1/4. So one task per CPU
    (2 x 1/8 of the limit per CPU) is admitted at once at any store
    size and CPU count, where the 128 MB default held a 512 MB store's
    fused operator to one task until it returned. The target stays
    finite, so the read still splits a large input into blocks of at
    most this size. Ray is running: creating ``ctx``'s dataset started
    it."""
    import ray

    res = ray.cluster_resources()
    limits = ctx.execution_options.resource_limits
    cpus = min(limits.cpu, res.get("CPU", 1)) or 1
    fraction = ctx.override_object_store_memory_limit_fraction or 0.5
    store = min(
        limits.object_store_memory,
        res.get("object_store_memory", 0) * fraction,
    )
    target = max(ctx.target_min_block_size, store / (8 * cpus))
    if ctx.target_max_block_size is not None:
        target = min(target, ctx.target_max_block_size)
    return int(target)


def _default_actors() -> int:
    """Block unit of the corpus read (``read_corpus`` makes four
    blocks per unit): the cluster's CPUs less two, at least one."""
    return max(1, _cluster_cpus() - 2)


def annotate(ds: Dataset, cfg: Optional[QualityConfig] = None) -> Dataset:
    """corpus Dataset -> fully annotated Dataset (lazy, streaming)."""
    cfg = cfg or QualityConfig()
    # the task maps take whole blocks and set no per-operator
    # concurrency (Ray fuses task maps only when their pool sizes
    # match, and a write has none), so Ray fuses the read, ids,
    # annotate and the caller's task steps and write into one task per
    # read block; CachedAnnotateStage cuts each block into calls of at
    # most ``actor_batch_size`` rows. Ray keeps the settings below on
    # the dataset's context, the one context of the whole lineage
    # (``ds`` too), so every operator shares them
    ctx = ds.context
    if cfg.max_actors:
        # the cap is a CPU limit of the whole execution
        opts = ctx.execution_options
        opts.resource_limits = opts.resource_limits.copy(cpu=cfg.max_actors)
    # a block target whose first-output guess admits one task per CPU
    # (the 128 MB default admitted one task at a 512 MB store)
    ctx.target_max_block_size = _fused_block_target(ctx)
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

        ds = ds.map_batches(_truncate, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(assign_ids, batch_format="pyarrow", batch_size=None)
    from ..functions.registry import registered_signals
    from ..stages.annotate import CachedAnnotateStage

    # scrub + decide run inside the same call (they are <10% of its
    # cost), so the annotated rows leave the task finished
    return ds.map_batches(
        CachedAnnotateStage(
            batch_rows=cfg.actor_batch_size,
            include_line_signals=cfg.include_line_signals,
            include_minhash=cfg.include_minhash,
            minhash_shingle_hash=cfg.minhash_shingle_hash,
            include_classifier=cfg.include_classifier,
            include_dsir=cfg.include_dsir,
            include_scrub=True,
            rules=cfg.rules,
            # plugin signals are captured here and shipped by value:
            # the registry is empty in a fresh worker
            extra_signals=list(registered_signals().values()),
            langid_model_path=cfg.langid_model_path,
            ppl_model_path=cfg.ppl_model_path,
            classifier_model_path=cfg.classifier_model_path,
        ),
        batch_format="pyarrow",
        batch_size=None,
        # the stage builds a new table; skip the defensive copy
        zero_copy_batch=True,
    )


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


def is_sf_dir(path: str) -> bool:
    """True for a directory whose basename is a pure scale factor
    (``sf0.01``), the synthesized test corpus's convention. Any other
    sf-prefixed name (the corpus cache's ``sf1.0_seed42_n1000000_v4``)
    is a real parquet directory and is read as given."""
    import os

    base = os.path.basename(path.rstrip("/"))
    return os.path.isdir(path) and parse_sf_basename(base) is not None


def input_files(path: str, keep_patterns: Optional[list] = None) -> "list[str]":
    """The parquet files a quality run reads from ``path``: for a
    scale-factor directory (:func:`is_sf_dir`) the shards of its
    synthesized corpus (``ensure_corpus_parquet``), for any other
    directory its ``*.parquet`` files, both sorted, and for a file that
    file; then those that ``keep_patterns`` keeps
    (:func:`filter_keep_patterns`). Raises ``ValueError`` when no file
    is left."""
    import glob
    import os

    if is_sf_dir(path):
        path = ensure_corpus_parquet(sf_from_dir(path))
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    elif "://" in path or os.path.exists(path):
        files = [path]
    else:
        raise ValueError(f"input {path} does not exist")
    if keep_patterns:
        files = filter_keep_patterns(files, keep_patterns)
        if not files:
            raise ValueError(
                f"no input files match keep patterns {keep_patterns}"
            )
    if not files:
        raise ValueError(f"no parquet files in {path}")
    return files


def read_corpus(
    sf_dir: str,
    num_blocks: Optional[int] = None,
    shuffle_files: bool = False,
    max_docs: Optional[int] = None,
    keep_patterns: Optional[list] = None,
) -> Dataset:
    """Synthesize (cached) + read the code corpus matching a testdata
    scale-factor directory. Blocks are split at the read (no shuffle):
    default 4 per unit of ``_default_actors`` for load balance.

    ``shuffle_files`` mirrors the reference's input-list shuffle for
    coarse load balancing (pipeline.py:373); ``max_docs`` is the
    dev-mode cap (pipeline.py:204-208); ``keep_patterns`` filters the
    input file listing by regex (pipeline.py:253-284)."""
    files = input_files(
        ensure_corpus_parquet(sf_from_dir(sf_dir)), keep_patterns
    )
    ds = ray.data.read_parquet(
        files,
        override_num_blocks=num_blocks or 4 * _default_actors(),
        shuffle="files" if shuffle_files else None,
    )
    if max_docs is not None:
        ds = ds.limit(max_docs)
    return ds
