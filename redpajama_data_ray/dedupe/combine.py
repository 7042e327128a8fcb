"""Per-key aggregation for dedup: one root task, or a hash shuffle.

Dedup needs, per key: total count and the winning (min) order value.
A full ``ds.groupby(key)`` is the right shape when the distinct-key
table itself exceeds node memory, but it pays a full sort/hash shuffle.
For dedup the combine is associative and the partials are small (one
row per distinct key per block), so below ``TREE_STATS_LIMIT`` partial
rows every partial block goes straight to ONE vectorized combine:

    map_batches(partial)            # per-block (key, cnt, min_order)
      -> block refs                 # the one execution of the partials
      -> @ray.remote root           # concat non-empty blocks, combine,
                                    # min_cnt filter (exact: it sees
                                    # every partial)
      -> from_arrow_refs([root])    # the result stays in the object store

This replaced a two-level tree (``repartition(8)`` -> combine ->
``repartition(1)`` -> combine). Measured on a 1-CPU host with Ray at 2
CPUs, outputs equal: the tree took 0.94 s against 0.44-0.54 s for the
root on a 60k-row exact-dedup table, and 0.90-1.04 s against
0.46-0.51 s on a 536k-row LSH band table, for ~0.25 s of task time —
the two repartition barriers cost more than the combines they fed,
while the first combine level cut 59,209 partial rows only to 56,386.
A lazy ``repartition(1)`` + combine took 0.68-0.73 s. The root's
result stays in the object store: fetching it into the driver raised
the ``dedup_planted`` benchmark's driver peak RSS from 284 MB to
318-327 MB.

Keys that repeat in every block (token and line histograms, count-file
compaction) are where the tree's first level did cut rows: it handed
its root at most 8 partial rows per distinct key, while this root
takes every partial block. The concat is zero-copy over the
object-store blocks, though, so the root's heap is the group-by's hash
table over distinct keys, not the partial rows. ``combine_counts``
with the same inputs, tree against root, 3 runs each (peak Arrow
heap of the tree's largest combine task against the root task's):

- vocab partials of a 20k-doc synthetic code corpus in 256 blocks
  (189,075 partial rows, 80,515 tokens; the tree's root got 97,703):
  0.54-0.55 s against 0.09-0.13 s, 8.5-9.6 MB against 7.6-8.6 MB;
- 64 blocks each holding the same 100k string tokens (6.4M partial
  rows, 140 MB; the tree's root got 800k): 0.75-0.82 s against
  0.32-0.34 s, 14.5 MB against 13.4-14.5 MB;
- line-key partials of the same corpus (743,487 rows, 676,754 keys,
  nearly all distinct, so both roots take about the same rows):
  0.66-0.76 s against 0.22-0.24 s, 47.5 MB against 53.2 MB. The
  extra ~10 MB is Arrow's group-by running over 256 chunks instead
  of one; it grows with the block count, not with repeated keys.

Callers pass ``distributed=True`` to switch to a keyed hash repartition
with the same combine per partition when the distinct-key count is too
large for a single reduce task (at 10^12 keys the root would not fit;
the shuffle is then the correct cost).
"""

from __future__ import annotations

import pyarrow as pa
from ray.data import Dataset


from contextlib import contextmanager


@contextmanager
def scoped_hash_shuffle(ctx):
    """Key-based ``repartition(keys=...)`` requires the HASH_SHUFFLE
    strategy; set it on ONE dataset's captured context, yield, restore
    — downstream consumers plan under the caller's own strategy. The
    dataset must execute EAGERLY inside the scope (materialize /
    write): a lazy plan would execute after restore."""
    from ray.data.context import ShuffleStrategy

    prev = (
        ctx.shuffle_strategy,
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
    )
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    if ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override is None:
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.25
    try:
        yield
    finally:
        (
            ctx.shuffle_strategy,
            ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override,
        ) = prev


def _canary_wrap(kernel, key: str):
    """Wrap a per-block combine kernel to append ONE all-null sentinel
    row per invocation. The keyed-repartition + per-block combine
    pattern is exact ONLY while every partition lands in the kernel as
    a single block; if Ray ever splits an oversized partition, a key's
    partials combine in fragments and a min_cnt / min_count filter
    silently under-counts (missed dup keys). :func:`_canary_strip`
    removes the sentinels by a ``marker`` column real rows never hold
    null in — the key of :func:`dup_keys_from_partials` (its emitters
    build keys from numpy / ``str()``), the count of :func:`key_stats`
    (whose keys come from user data and may be null) — and fails
    loudly when they outnumber the shuffle partitions (same canary as
    functions/splits.py).

    Measured on Ray 2.49: the hash-shuffle aggregator concatenates a
    partition's output into ONE block even when the partition is 8x
    ``target_max_block_size`` (probe: 2M rows, 4 partitions, 1 MB
    target → exactly 4 finalize calls), so today the invariant holds
    structurally and the canary never fires — it is the tripwire for
    a future Ray version that starts splitting aggregator output."""

    def _wrapped(t: pa.Table) -> pa.Table:
        out = kernel(t)
        nulls = pa.table(
            {
                c: pa.nulls(1, out.schema.field(c).type)
                for c in out.column_names
            }
        )
        return pa.concat_tables([out, nulls])

    return _wrapped


def _canary_strip(
    tbl: Dataset, marker: str, nparts: int, what: str
) -> Dataset:
    import pyarrow.compute as pc

    n_total = tbl.count()

    def _drop(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column(marker)))

    real = tbl.map_batches(_drop, batch_format="pyarrow").materialize()
    n_real = real.count()
    if n_total - n_real > nparts:
        raise RuntimeError(
            f"{what}: {n_total - n_real} combine blocks for {nparts} "
            "keyed partitions — the shuffle split a partition's "
            "output across blocks, so a key's partials may have "
            "combined in fragments (silent under-counting). Raise "
            "DataContext.target_max_block_size or num_partitions."
        )
    return real


def _meta_row_bound(ds: Dataset) -> "int | None":
    """Row count from plan metadata alone (never triggers execution):
    an int for pure parquet scans and already-materialized datasets,
    None once any transform hides the count. Fenced because
    ``_meta_count`` is a private Ray API — on any change/failure the
    callers just fall back to the streaming count pass."""
    try:
        return ds._meta_count()
    except Exception:
        return None


import ray


@ray.remote
def _combine_root(combine, *tables):
    """Root of :func:`key_stats` and :func:`combine_counts`: every
    partial block (zero-copy plasma views, passed as resolved args) in
    ONE vectorized ``combine``. Zero-row blocks are dropped, so
    schema-less blocks left by an upstream filter never reach the
    concat; when nothing has rows, ``combine`` runs on one typed empty
    block so the output keeps its schema."""
    typed = [t for t in tables if t.num_columns]
    rows = [t for t in typed if t.num_rows]
    if rows:
        # a block whose keys are all null carries a null-typed column;
        # "default" promotion unifies it with the typed blocks
        return combine(pa.concat_tables(rows, promote_options="default"))
    if typed:
        return combine(typed[0])
    return pa.table({})


def block_refs(ds: Dataset) -> list:
    """Run ``ds`` once and return its block refs, for a root task that
    takes every block as an argument. They come from the ref bundles,
    not ``to_arrow_refs()``: that one also asks for the schema, which
    re-runs a lazy plan under a ``limit(1)``. Every block of a
    ``batch_format="pyarrow"`` map is already an Arrow table, so there
    is nothing to convert."""
    return [
        ref
        for bundle in ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]


def _root_combine(partials: Dataset, combine) -> Dataset:
    """Run ``partials`` once and combine every block in one root task;
    the result stays in the object store (eager: runs when called)."""
    import ray.data as rd

    return rd.from_arrow_refs(
        [_combine_root.remote(combine, *block_refs(partials))]
    )


def _min_cnt_filter(g: pa.Table, cnt: str, min_cnt: "int | None"):
    import pyarrow.compute as pc

    if min_cnt is None:
        return g
    return g.filter(pc.greater_equal(g.column(cnt), min_cnt))


def _fits_root(partials: Dataset, source: Dataset) -> bool:
    """True when ``partials`` (per-block partials of ``source``) fit the
    single root task. Partials can't exceed their input rows, so when
    ``source``'s row count is knowable from read metadata alone (pure
    parquet scan — the common query path) and fits, this costs ZERO
    extra passes. Otherwise: a streaming count pass, NOT
    materialize-then-count — pinning the partials pins an input-sized
    dataset in the object store (the sf4 soak ran the box out of disk
    that way in dup_keys_from_partials). One extra scan of the cheap
    partial stage decides the path without holding anything."""
    bound = _meta_row_bound(source)
    if bound is not None and bound <= TREE_STATS_LIMIT:
        return True
    return partials.count() <= TREE_STATS_LIMIT


def key_stats(
    ds: Dataset,
    key: str,
    order_col: str,
    distributed: "bool | None" = None,
    track_ties: bool = False,
    min_cnt: "int | None" = None,
) -> Dataset:
    """Dataset of (key, min_order, cnt) — one row per distinct key with
    ``cnt >= min_cnt`` (every key when ``min_cnt`` is None).

    ``distributed=None`` (auto): pick the single root task when the
    per-block partials fit it (``TREE_STATS_LIMIT``; see
    :func:`_fits_root`), else the shuffle. ``False`` forces the root,
    ``True`` the shuffle. The root path runs when this is called, not
    lazily: the partial stage executes once, its blocks go to one
    ``@ray.remote`` combine, and the returned dataset wraps that task's
    output ref. The root sees every partial, so ``min_cnt`` is exact
    there and its output holds only the filtered keys.

    ``track_ties=True`` adds a ``tie_cnt`` column — how many rows of
    the key achieve ``min_order``. Keep-first delivery needs it when
    the order column is not unique within a key (ties make "the"
    winner row ill-defined for any value-based mask; exact.py routes
    tied keys through a group-based resolution instead).

    The distributed path (:func:`_hash_combine`) uses hash-repartition
    + per-block combine (whole keys co-located — the pinned
    one-block-per-partition invariant), with or without ties, so a
    null key groups the same on every path; ``min_cnt`` is applied in
    that combine, so the eager materialize holds only the filtered
    table, not an input-sized one."""

    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        if key == order_col:
            # counting by the key itself: duplicate under an alias
            t = pa.table({key: t.column(key), "__ord": t.column(key)})
            ocol = "__ord"
        else:
            t = t.select([key, order_col])
            ocol = order_col
        g = t.group_by(key).aggregate(
            [(ocol, "min"), (ocol, "count")]
        )
        g = g.rename_columns([key, "min_order", "cnt"])
        if not track_ties:
            return g
        idx = pc.index_in(t.column(key), value_set=g.column(key))
        at_min = pc.equal(
            t.column(ocol), pc.take(g.column("min_order"), idx)
        )
        tg = (
            t.filter(pc.fill_null(at_min, False))
            .group_by(key)
            .aggregate([(ocol, "count")])
            .rename_columns([key, "tie_cnt"])
        )
        # every key has >= 1 at-min row in its own block, so tg covers
        # g's key set exactly; align by key
        pos = pc.index_in(g.column(key), value_set=tg.column(key))
        return g.append_column(
            "tie_cnt", pc.take(tg.column("tie_cnt"), pos)
        )

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([("min_order", "min"), ("cnt", "sum")])
        g = g.rename_columns([key, "min_order", "cnt"])
        if not track_ties:
            return g
        idx = pc.index_in(t.column(key), value_set=g.column(key))
        at_min = pc.equal(
            t.column("min_order"), pc.take(g.column("min_order"), idx)
        )
        tg = (
            t.filter(pc.fill_null(at_min, False))
            .group_by(key)
            .aggregate([("tie_cnt", "sum")])
            .rename_columns([key, "tie_cnt"])
        )
        pos = pc.index_in(g.column(key), value_set=tg.column(key))
        return g.append_column(
            "tie_cnt",
            pc.take(tg.column("tie_cnt"), pos).cast(pa.int64()),
        )

    def combine_filtered(t: pa.Table) -> pa.Table:
        # only ever run where ``t`` holds every partial of its keys (the
        # root, or one co-located hash partition): min_cnt is exact
        return _min_cnt_filter(combine(t), "cnt", min_cnt)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if distributed is None:
        distributed = not _fits_root(partials, ds)
    if not distributed:
        return _root_combine(partials, combine_filtered)
    return _hash_combine(partials, key, combine_filtered, "cnt", "key_stats")


def _hash_combine(
    partials: Dataset, key: str, combine, marker: str, what: str
) -> Dataset:
    """The shuffle path of :func:`key_stats`, :func:`combine_counts` and
    the :func:`dup_keys_from_partials` fallback: co-locate whole keys
    (hash repartition, eager under a scoped HASH_SHUFFLE override) and
    run the vectorized combine per block. Ray's sort-based
    ``groupby().aggregate`` is not used: its boundary sampling compares
    a null key with string keys and raises ``TypeError``, and tie
    summation is conditional on the per-key global min, which builtin
    shuffle aggregates cannot express. ``marker`` is the canary column
    (:func:`_canary_strip`): one that real output rows never hold null
    in."""
    nparts = auto_partitions()
    with scoped_hash_shuffle(partials.context):
        out = (
            partials.repartition(nparts, keys=[key])
            .map_batches(
                _canary_wrap(combine, key),
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
            .materialize()
        )
    return _canary_strip(out, marker, nparts, what)


def combine_counts(
    partials: Dataset,
    key: str,
    cnt: str = "cnt",
    distributed: "bool | None" = None,
) -> Dataset:
    """Sum already-partial per-key counts into global counts — the
    count-only sibling of :func:`key_stats`. ``partials`` holds one
    ``(key, cnt)`` row per distinct key per block (callers pre-aggregate
    inside their own ``map_batches``, e.g. via ``np.unique``), so the
    single root task moves small rows, and its heap grows with the
    distinct keys, not with how often they repeat across blocks (module
    docstring); the hash shuffle only pays off past
    ``TREE_STATS_LIMIT`` partial rows (``distributed=None`` measures
    and picks). Like :func:`key_stats`, both paths run when this is
    called, not lazily."""

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([(cnt, "sum")])
        return g.rename_columns([key, cnt])

    if distributed is None:
        # partials rows <= their own input rows too, so the same
        # metadata shortcut applies when the caller hands us a pure
        # read (rare — most callers pre-aggregate, giving a count pass)
        distributed = not _fits_root(partials, partials)
    if distributed:
        return _hash_combine(partials, key, combine, cnt, "combine_counts")
    return _root_combine(partials, combine)


@ray.remote
def _duck_dup_root(key, cnt, min_count, threads, key_type, *tables):
    """Root of :func:`dup_keys_from_partials`: run every partial block
    (zero-copy plasma views, passed as resolved args) through one
    multi-threaded DuckDB hash aggregate; output is only the
    duplicated keys, which is tiny."""
    import duckdb

    tables = [t for t in tables if t.num_rows]
    out_schema = pa.schema([pa.field(key, key_type)])
    if not tables:
        return out_schema.empty_table()
    con = duckdb.connect()
    con.execute(f"pragma threads={threads}")
    # one registered arrow table per block + UNION ALL: parallel
    # zero-copy scans (a single streamed RecordBatchReader would
    # serialize the scan side of the aggregate)
    names = []
    for i, t in enumerate(tables):
        name = f"p{i}"
        con.register(name, t)
        names.append(f'select "{key}", "{cnt}" from {name}')
    union = " union all ".join(names)
    out = con.execute(
        f'select "{key}" from ({union}) group by "{key}" '
        f'having sum("{cnt}") >= {int(min_count)}'
    ).arrow()
    con.close()
    # duckdb returns large_* variants; normalize to the input type
    return out.cast(out_schema)


# one root task holding every fixed-width (key, cnt) partial row.
# MEASURED crossover vs the horizontal fallback on the 32-CPU box
# (round 4, sf1.0 code corpus, identical materialized partials,
# identical outputs): 186M rows root 10-73 s vs fallback 119 s (root
# wins); 372M rows root 154-268 s (high variance — the ~370M-entry
# hash table no longer sits comfortably in one task) vs fallback
# 105-199 s (tied, and the fallback is horizontal and predictable).
# So hand off to the hash-repartition path well before the tie point.
DUP_ROOT_LIMIT = 250_000_000


def dup_keys_from_partials(
    partials: Dataset,
    key: str,
    min_count: int = 2,
    cnt: str = "cnt",
    root_limit: int = DUP_ROOT_LIMIT,
    spill_dir: "str | None" = None,
) -> Dataset:
    """Keys whose per-block partial counts sum to >= ``min_count`` —
    WITHOUT computing the full combined count table.

    High-cardinality count combines are dominated by keys that occur
    once (a code corpus at sf0.5 measures 186M partial rows of which
    only ~2% are duplicated): every generic Ray shuffle pays to route
    all of them. Measured on those 186M rows at 32 CPUs:

    - ``groupby().aggregate(Sum)`` (sort- OR hash-shuffle): > 8 min
    - ``repartition(keys=[key])`` + per-block arrow combine: 119 s
    - one root task, DuckDB ``HAVING sum(cnt) >= 2``: **10.6 s**
      (multi-threaded hash aggregate, zero-copy arrow in, tiny out)

    So: below ``root_limit`` partial rows, concatenate the fixed-width
    partials into one block and let a DuckDB aggregate in a single
    root task emit the (tiny) duplicated-key set; above it, fall back
    to key-based hash repartitioning with a vectorized per-block
    combine — horizontal, no single-node table, the true 100-TB path
    (executed eagerly under a scoped ``HASH_SHUFFLE`` strategy
    override; key-based repartition requires it and the default
    sort-shuffle groupby is the >8-min case above).

    The partials are sized by SPILL-THROUGH, not ``materialize()``:
    one streaming ``write_parquet`` to scratch (the only execution of
    the production stage), a free metadata count of the written
    files, then both combine paths read the scratch back. The two
    rejected alternatives, both observed this round: materialize-
    then-count pins an input-sized dataset in the object store (the
    sf4 soak — 1.49B partial rows, ~24 GB fixed-width — ran the box
    out of disk with the pinned copy + shuffle intermediates +
    aggregator outputs all spilling at once), and count-then-
    recompute re-executes the production scan, doubling callers
    whose scan dominates (vocab at sf4: 206 s vs ~110 s). Scratch
    defaults to a driver-local temp dir; on a multi-node cluster
    pass ``spill_dir`` on SHARED storage or set ``RPRAY_SPILL_DIR``
    in the driver env (same contract as ``pack_summaries``) — the
    local default raises there instead of silently losing other
    nodes' pieces."""
    import os
    import shutil
    import tempfile
    import uuid

    import ray
    import ray.data as rd
    from pyarrow import fs as pafs

    if spill_dir is None:
        # one cluster-wide knob: callers several layers up (line /
        # substring dedup, repo_stats, incremental state) don't all
        # plumb spill_dir, so a multi-node deployment sets the shared
        # scratch root once in the driver's env instead
        spill_dir = os.environ.get("RPRAY_SPILL_DIR") or None
    alive_nodes = [nd for nd in ray.nodes() if nd.get("Alive")]
    if spill_dir is None and len(alive_nodes) > 1:
        raise ValueError(
            "dup_keys_from_partials sizes its input via scratch "
            "parquet; on a multi-node cluster pass spill_dir on "
            "shared storage (s3://... or a shared mount), or set "
            "RPRAY_SPILL_DIR in the driver env — the driver-local "
            "temp default would silently drop other nodes' partials"
        )
    root = spill_dir or tempfile.mkdtemp(prefix="rpray_dupkeys_")
    scratch = f"{root.rstrip('/')}/run_{uuid.uuid4().hex}"
    if "://" in scratch:
        fsys, fs_root = pafs.FileSystem.from_uri(scratch)
    else:
        fsys, fs_root = pafs.LocalFileSystem(), scratch

    def _cleanup():
        try:
            fsys.delete_dir(fs_root)
        except FileNotFoundError:
            pass
        if spill_dir is None:
            shutil.rmtree(root, ignore_errors=True)

    try:
        partials.write_parquet(scratch)
        try:
            files = [
                f
                for f in fsys.get_file_info(
                    pafs.FileSelector(fs_root, recursive=True)
                )
                if f.is_file
            ]
        except FileNotFoundError:
            files = []
        if not files:  # empty corpus: nothing was written
            return partials
        stored = rd.read_parquet(
            scratch if "://" in scratch else sorted(f.path for f in files)
        )
        n = stored.count()  # parquet metadata only — no execution
        if n == 0:
            return partials

        if n <= root_limit:
            try:
                cpus = int(ray.cluster_resources().get("CPU", 4))
            except Exception:
                cpus = 4
            threads = max(2, cpus - 2)
            # raw Ray task, deliberately: the Dataset-only spelling is
            # repartition(1) + map_batches, but building that one
            # block is a single-task 3-GB concat that measured 5x the
            # aggregate itself (55 s vs 11 s at 186M rows) — streaming
            # the blocks straight into DuckDB's aggregate skips the
            # copy
            key_type = stored.schema().base_schema.field(key).type
            block_refs = stored.to_arrow_refs()
            out_ref = _duck_dup_root.options(
                num_cpus=min(8, max(2, cpus // 4))
            ).remote(
                key, cnt, int(min_count), threads, key_type, *block_refs
            )
            # scratch cleanup (finally) is safe here: to_arrow_refs
            # already materialized the read into plasma objects, so
            # neither the pending root task nor the returned dataset
            # touches the files again
            return rd.from_arrow_refs([out_ref])

        # ---- horizontal fallback: hash-partition by key, combine per
        # block; the output holds only keys, so the key is the canary
        # marker

        def combine_dup(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            g = t.group_by(key).aggregate([(cnt, "sum")])
            g = g.rename_columns([key, cnt])
            return g.filter(
                pc.greater_equal(g.column(cnt), min_count)
            ).select([key])

        return _hash_combine(
            stored, key, combine_dup, key, "dup_keys_from_partials"
        )
    finally:
        _cleanup()


def auto_partitions(cap: int = 256) -> int:
    """Shuffle partition count sized to the cluster: one per CPU,
    bounded. Ray's hash-shuffle join/aggregate spins up aggregator
    actors proportional to ``num_partitions``; asking for many more
    partitions than CPUs starves the pool (observed: a 32-partition
    join on a 4-CPU local cluster stalls for minutes). At real scale
    callers pass an explicit count sized to data volume instead."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(2, min(cap, cpus))


# single-root capacity of key_stats / combine_counts, in partial rows
# (at most one per input row): the root task's arguments hold every
# partial block, so this also bounds what one node's object store must
# hold for it. An int key with its counts is ~24 B a row (50M ~= 1.2
# GB); string keys (content hashes, shingles, tokens, BPE words) make
# each row wider by the key's length. Above this, pay the hash-shuffle
# groupby instead. (components.grouped_min keeps its own lazy tree
# under the same limit.)
TREE_STATS_LIMIT = 50_000_000


def tune_shuffle_context() -> None:
    """Make Ray's hash-shuffle join/aggregate operators schedulable on
    small CPU budgets: by default every aggregator actor reserves a
    full CPU and the operator waits up to
    ``min_hash_shuffle_aggregator_wait_time_in_s`` (300 s!) for the
    pool — a 32-partition join on a 4-CPU cluster stalls for minutes.
    Halving the per-partition CPU reservation lets
    ``num_partitions ~= cluster CPUs`` schedule immediately. Only sets
    overrides that are still unset, so user configuration wins."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    # 0.25 CPU x (num_partitions ~= cluster CPUs) = a quarter of the
    # cluster per shuffle pool: multi-stage plans (join -> aggregate ->
    # repartition) keep 2-3 pools alive simultaneously and still leave
    # CPUs for task operators. 0.5 deadlocks a 4-CPU cluster (two
    # 2-CPU pools starve every task; observed wedge in the propagation
    # loop), and the un-overridden local-mode default (0.0625-0.125)
    # under-provisions big aggregations on 32 CPUs.
    per_partition = 0.25
    if ctx.join_operator_actor_num_cpus_per_partition_override is None:
        ctx.join_operator_actor_num_cpus_per_partition_override = per_partition
    if (
        ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override
        is None
    ):
        ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = (
            per_partition
        )
    if ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override is None:
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = (
            per_partition
        )
