"""Incremental (cross-run) exact dedup with persistent key state.

The reference's Bloom-filter job exists precisely for this: dedup a NEW
crawl snapshot against every previously processed one, carrying state
between runs (/root/reference/app/src/bloomfilter.py:296-417 keeps an
mmap'd filter + flushes duplicate parquet every 2^20 docs). The
Ray-native design:

1. dedup WITHIN the run (``dedupe.exact.exact_dedup`` — size-adaptive
   broadcast/join);
2. drop rows whose key appears in any previously COMMITTED run:
   - exact mode (default): seen keys live as parquet under
     ``state_dir/keys/``; small states broadcast as a frozenset,
     large ones ``left_anti``-join in the object store — exact
     semantics, unlike the reference's false-positive-prone filter;
   - ``approximate=True``: reference-parity probabilistic mode — a
     ``BloomFilter`` built once per actor from the state parquet
     (capacity/error_rate as in bloomfilter.py:140-143); may drop a
     ~error_rate fraction of non-duplicates, never keeps a true dup;
3. append THIS run's surviving keys as one new parquet file, committed
   by atomic rename — a crashed run leaves no partial state and a
   rerun with the same ``run_id`` overwrites instead of double-adding.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import Dataset

# above this many seen keys, stop broadcasting the frozenset and
# anti-join against the state dataset instead
DEFAULT_STATE_BROADCAST_LIMIT = 5_000_000


# the key state stores only a ``key`` column, so the stamp names the
# input column it came from and its Arrow type: keys taken from
# another column (path strings against sha256 hex strings) never
# match, and a run over them would silently keep every duplicate
EXACT_KEY_FORMAT = "exact-keys-v1"


def _keys_dir(
    state_dir: str, key: "str | None" = None, key_type=None
) -> str:
    """The key state directory; with ``key`` given, stamped with (or
    checked against) that key column's name and Arrow type."""
    d = os.path.join(state_dir, "keys")
    if key is None:
        os.makedirs(d, exist_ok=True)
        return d
    # string and large_string keys compare alike
    type_name = str(key_type).replace("large_", "")
    return _stamped_dir(
        d,
        f"{EXACT_KEY_FORMAT} key={key} type={type_name}",
        "exact-dedup state dir",
        "key column",
    )


def _list_state(d: str, exclude_run_id: "str | None" = None):
    """List a state dir's parquet files, dropping ``exclude_run_id``'s
    own committed file (the same-run_id retry contract: a retry would
    otherwise compare the snapshot against its OWN prior commit).
    Raises if that run was folded into a compact file — its
    contribution can no longer be excluded."""
    _check_run_excludable(d, exclude_run_id)
    skip = (
        f"{exclude_run_id}.parquet" if exclude_run_id is not None else None
    )
    return [
        os.path.join(d, f)
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet") and f != skip
    ]


def _state_files(
    state_dir: str, exclude_run_id: "str | None" = None
):
    return _list_state(_keys_dir(state_dir), exclude_run_id)


def seen_key_count(state_dir: str) -> int:
    """Committed key count from parquet footers (no data read)."""
    total = 0
    for f in _state_files(state_dir):
        total += pq.ParquetFile(f).metadata.num_rows
    return total


def incremental_exact_dedup(
    ds: Dataset,
    state_dir: str,
    key: str = "content_sha256",
    order_col: str = "doc_id",
    run_id: Optional[str] = None,
    approximate: bool = False,
    error_rate: float = 0.01,
    broadcast_limit: int = DEFAULT_STATE_BROADCAST_LIMIT,
    num_partitions: Optional[int] = None,
    mask_limit: Optional[int] = None,
) -> Tuple[Dataset, str]:
    """Returns ``(deduped dataset, run_id)`` and commits this run's
    surviving keys to ``state_dir`` when the dataset is consumed via
    :func:`commit_run_keys` (kept separate so callers can write their
    data output FIRST and only then commit state — crash-safe order).

    The returned dataset contains rows unique within the run AND not
    seen by any previously committed run."""
    from ..dedupe.exact import exact_dedup

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]

    _keys_dir(state_dir, key, ds.schema().base_schema.field(key).type)
    within = exact_dedup(
        ds, key=key, order_col=order_col, num_partitions=num_partitions
    )

    files = _state_files(state_dir, exclude_run_id=run_id)
    if not files:
        return within, run_id

    # fail with provenance, not a deep ArrowInvalid: a state dir
    # written by another dedup family (fuzzy band state, line/span
    # count state) has a different schema
    state_cols = pq.ParquetFile(files[0]).schema_arrow.names
    if "key" not in state_cols:
        raise ValueError(
            f"{state_dir!r} is not an exact-dedup state dir (columns "
            f"{state_cols} lack 'key') — each dedup family keeps its "
            "own state dir; point --state-dir at the one this "
            "subcommand wrote"
        )

    n_seen = seen_key_count(state_dir)
    if approximate:
        # reference-parity probabilistic path: filter built ONCE PER
        # ACTOR from the committed parquet (bloomfilter.py role)
        class _BloomDrop:
            def __init__(self, paths, capacity, err):
                from .bloom import BloomFilter

                self.bf = BloomFilter(max(capacity, 1024), err)
                for p in paths:
                    t = pq.read_table(p, columns=["key"])
                    self.bf.update(t.column("key").to_pylist())

            def __call__(self, t: pa.Table) -> pa.Table:
                hits = self.bf.might_contain_many(
                    t.column(key).to_pylist()
                )
                import numpy as np

                return t.filter(pa.array(~np.asarray(hits), pa.bool_()))

        return (
            within.map_batches(
                _BloomDrop,
                fn_constructor_args=(files, n_seen, error_rate),
                batch_format="pyarrow",
                concurrency=(1, 4),
            ),
            run_id,
        )

    if n_seen <= broadcast_limit:
        from ..dedupe.apply import as_key_array, filter_members

        seen = as_key_array(
            pa.concat_arrays(
                pq.read_table(f, columns=["key"]).column("key").combine_chunks()
                for f in files
            )
        )
        # vectorized anti-membership mask (sorted once, searchsorted
        # per batch — no per-row Python, no per-batch set rebuild)
        return filter_members(within, key, seen, False), run_id

    # large state: semi-join a NARROW (key, order) projection against
    # the state dataset, then subtract the hit rows from the full-width
    # corpus by order-id membership — wide payloads never shuffle.
    # Only when the hit set itself is too large to broadcast does the
    # full corpus anti-join (with nested columns packed for Acero).
    import ray.data as rd

    from ..dedupe.apply import (
        DEFAULT_MASK_BROADCAST_LIMIT,
        collect_column,
        filter_members,
        nested_types,
        pack_nested,
        unpack_nested,
    )
    from ..dedupe.combine import auto_partitions, tune_shuffle_context

    tune_shuffle_context()
    if num_partitions is None:
        num_partitions = auto_partitions()
    state_ds = rd.read_parquet(files).map_batches(
        lambda t: t.rename_columns([key]), batch_format="pyarrow"
    )
    within = within.materialize()  # two consumers (narrow probe + mask)
    hit_ids = (
        within.select_columns([key, order_col])
        .join(
            state_ds,
            join_type="left_semi",
            num_partitions=num_partitions,
            on=(key,),
        )
        .map_batches(
            lambda t: t.select([order_col]), batch_format="pyarrow"
        )
        .materialize()
    )
    if mask_limit is None:
        mask_limit = DEFAULT_MASK_BROADCAST_LIMIT
    n_hits = hit_ids.count()
    if n_hits == 0:
        return within, run_id
    if n_hits <= mask_limit:
        vals = collect_column(hit_ids, order_col)
        return filter_members(within, order_col, vals, False), run_id
    nested = nested_types(within.schema().base_schema, exclude=(order_col,))
    packed = within.map_batches(pack_nested(nested), batch_format="pyarrow")
    deduped = packed.join(
        hit_ids.repartition(num_partitions),
        join_type="left_anti",
        num_partitions=num_partitions,
        on=(order_col,),
    ).map_batches(unpack_nested(nested), batch_format="pyarrow")
    return deduped, run_id


def commit_run_keys(
    deduped: Dataset, state_dir: str, run_id: str, key: str = "content_sha256"
) -> str:
    """Append the run's surviving keys to the state (atomic rename;
    rerunning the same run_id overwrites — idempotent resume)."""
    _check_run_id(run_id)
    tables = [
        b
        for b in deduped.select_columns([key]).iter_batches(
            batch_size=65536, batch_format="pyarrow"
        )
    ]
    if tables:
        col = pa.concat_tables(tables).column(key)
    else:
        # an all-duplicate snapshot commits zero survivors — keep the
        # key column's REAL type (int64 ids, binary digests); a
        # hard-coded string here would poison every later run's
        # concat/union over the state files
        try:
            key_type = deduped.schema().base_schema.field(key).type
        except Exception:
            key_type = pa.string()
        col = pa.array([], key_type)
    d = _keys_dir(state_dir, key, col.type)
    tmp = os.path.join(d, f".{run_id}.parquet.tmp")
    final = os.path.join(d, f"{run_id}.parquet")
    pq.write_table(pa.table({"key": col}), tmp)
    os.replace(tmp, final)
    return final


# ------------------------------------------------------------------
# incremental FUZZY dedup: persistent minhash band state across runs
# ------------------------------------------------------------------

# band hashes are engine-internal (splitmix64 collapse of the band
# bytes, dedupe/lsh.py); a state dir written by a different hash
# version would silently under-deduplicate, so the format is stamped
# and checked
BAND_HASH_FORMAT = "splitmix64-v2"


def _bands_dir(state_dir: str) -> str:
    return _stamped_dir(
        os.path.join(state_dir, "bands"),
        BAND_HASH_FORMAT,
        "fuzzy band state",
        "band-hash format",
    )


def check_minhash_provenance(state_dir: str, provenance) -> None:
    """Pin the SHINGLE-hash mode of the signatures feeding this state.

    sha1 (reference parity) and poly64 (the documented fast deviation,
    functions/minhash.py) signatures are not comparable: probing sha1
    state with poly64 bands silently under-deduplicates. The quality
    pipeline stamps its outputs with a MINHASH_FORMAT sidecar
    (pipelines/outputs.py); when the fuzzy CLI sees one on its input,
    the first incremental run records it here and every later run must
    match. Legacy inputs without a sidecar skip the check (sha1-only
    era outputs).
    """
    if provenance is None:
        return
    d = os.path.join(state_dir, "bands")
    os.makedirs(d, exist_ok=True)
    marker = os.path.join(d, "_MINHASH_FORMAT.json")
    if os.path.exists(marker):
        import json

        with open(marker) as f:
            recorded = json.load(f)
        if recorded.get("checksum") != provenance.get("checksum"):
            raise ValueError(
                f"fuzzy band state at {d!r} was built from minhash "
                f"signatures with shingle_hash="
                f"{recorded.get('shingle_hash')!r} (checksum "
                f"{recorded.get('checksum', '')[:12]}…) but the input "
                f"was produced with shingle_hash="
                f"{provenance.get('shingle_hash')!r}; the two modes' "
                "signatures are not comparable — re-run the dedup "
                "from scratch in one mode"
            )
    else:
        import json

        with open(marker, "w") as f:
            json.dump(provenance, f)


def _band_files(
    state_dir: str, exclude_run_id: "str | None" = None
):
    """``exclude_run_id``: same retry contract as _state_files."""
    return _list_state(_bands_dir(state_dir), exclude_run_id)


def seen_band_count(state_dir: str) -> int:
    total = 0
    for f in _band_files(state_dir):
        total += pq.ParquetFile(f).metadata.num_rows
    return total


def incremental_fuzzy_dedup(
    ds: Dataset,
    state_dir: str,
    sig_column: str = "signature_sim0.8",
    id_column: str = "id_int",
    run_id: Optional[str] = None,
    broadcast_limit: int = DEFAULT_STATE_BROADCAST_LIMIT,
    num_partitions: Optional[int] = None,
    mask_limit: Optional[int] = None,
) -> Tuple[Dataset, str]:
    """Cross-run NEAR-dup dedup: the fuzzy analog of
    :func:`incremental_exact_dedup` (the reference runs LSH per batch
    over all snapshots at once, run_lsh.py; this carries band state
    forward instead so each new snapshot streams).

    1. within-run ``fuzzy_dedup`` (size-adaptive root task/distributed);
    2. drop surviving docs sharing ANY LSH band with a previously
       committed run (an LSH hit at the configured threshold =
       near-duplicate candidate; same FP/FN trade-off as the batch
       LSH) — broadcast the band set when small, ``left_semi`` join
       the exploded bands when large;
    3. commit the survivors' band hashes via :func:`commit_run_bands`
       AFTER writing data (atomic rename, idempotent per run_id)."""
    from ..dedupe.lsh import explode_bands, fuzzy_dedup

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]

    within, _ = fuzzy_dedup(
        ds, sig_column, id_column=id_column, num_partitions=num_partitions
    )
    files = _band_files(state_dir, exclude_run_id=run_id)
    if not files:
        return within, run_id

    within = within.materialize()
    narrow = within.select_columns([id_column, sig_column])
    if id_column != "id_int":
        narrow = narrow.rename_columns({id_column: "id_int"})
    exploded = narrow.map_batches(
        explode_bands(sig_column), batch_format="pyarrow"
    )

    n_bands = seen_band_count(state_dir)
    if n_bands <= broadcast_limit:
        import numpy as np

        from ..dedupe.apply import (
            broadcast_sorted,
            filter_members,
            membership_mask,
        )

        seen = np.concatenate(
            [
                pq.read_table(f, columns=["band_hash"])
                .column("band_hash")
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
                for f in files
            ]
        )
        ref = broadcast_sorted(seen)

        def hit_ids(t: pa.Table) -> pa.Table:
            sv = ray.get(ref)
            mask = membership_mask(t.column("band_hash"), sv)
            return t.filter(pa.array(mask)).select(["id_int"])

        hit_chunks = [
            b.column("id_int").combine_chunks()
            for b in exploded.map_batches(hit_ids, batch_format="pyarrow")
            .iter_batches(batch_size=65536, batch_format="pyarrow")
        ]
        hits = (
            np.unique(
                pa.chunked_array(hit_chunks)
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
            )
            if hit_chunks
            else np.empty(0, np.uint64)
        )
        if hits.size == 0:
            return within, run_id
        return filter_members(within, id_column, hits, False), run_id

    # large band state: joins in the object store (signed bijection —
    # Ray's hash shuffle pickles uint64 above int64-max)
    import ray.data as rd

    from ..dedupe.apply import (
        DEFAULT_MASK_BROADCAST_LIMIT,
        nested_types,
        pack_nested,
        unpack_nested,
    )
    from ..dedupe.combine import auto_partitions, tune_shuffle_context
    from ..dedupe.components import _to_signed

    tune_shuffle_context()
    if num_partitions is None:
        num_partitions = auto_partitions()

    def sign_bands(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band_hash": _to_signed(t["band_hash"]),
                "id_int": _to_signed(t["id_int"]),
            }
        )

    def sign_state(t: pa.Table) -> pa.Table:
        return pa.table({"band_hash": _to_signed(t["band_hash"])})

    exploded_signed = exploded.map_batches(
        sign_bands, batch_format="pyarrow"
    )
    state_ds = rd.read_parquet(files).map_batches(
        sign_state, batch_format="pyarrow"
    )
    hit_pairs = exploded_signed.join(
        state_ds,
        join_type="left_semi",
        num_partitions=num_partitions,
        on=("band_hash",),
    )

    def ids_only(t: pa.Table) -> pa.Table:
        # back to unsigned so the anti join matches within's raw ids
        from ..dedupe.components import _to_unsigned

        return pa.table({id_column: _to_unsigned(t["id_int"])})

    hit_ids_ds = hit_pairs.map_batches(
        ids_only, batch_format="pyarrow"
    ).materialize()
    if mask_limit is None:
        mask_limit = DEFAULT_MASK_BROADCAST_LIMIT
    n_hits = hit_ids_ds.count()
    if n_hits == 0:
        return within, run_id
    if n_hits <= mask_limit:
        from ..dedupe.apply import collect_column, filter_members

        vals = collect_column(hit_ids_ds, id_column)
        return filter_members(within, id_column, vals, False), run_id
    nested = nested_types(within.schema().base_schema, exclude=(id_column,))
    packed = within.map_batches(pack_nested(nested), batch_format="pyarrow")
    deduped = packed.join(
        hit_ids_ds.repartition(num_partitions),
        join_type="left_anti",
        num_partitions=num_partitions,
        on=(id_column,),
    ).map_batches(unpack_nested(nested), batch_format="pyarrow")
    return deduped, run_id


def commit_run_bands(
    deduped: Dataset,
    state_dir: str,
    run_id: str,
    sig_column: str = "signature_sim0.8",
    id_column: str = "id_int",
) -> str:
    """Append the surviving docs' band hashes to the state (atomic)."""
    from ..dedupe.lsh import explode_bands

    _check_run_id(run_id)
    d = _bands_dir(state_dir)
    tmp = os.path.join(d, f".{run_id}.parquet.tmp")
    final = os.path.join(d, f"{run_id}.parquet")
    narrow = deduped.select_columns([id_column, sig_column])
    if id_column != "id_int":
        narrow = narrow.rename_columns({id_column: "id_int"})
    exploded = narrow.map_batches(
        explode_bands(sig_column), batch_format="pyarrow"
    )
    tables = [
        b.select(["band_hash"])
        for b in exploded.iter_batches(
            batch_size=65536, batch_format="pyarrow"
        )
    ]
    if tables:
        col = pa.concat_tables(tables).column("band_hash")
    else:
        col = pa.array([], pa.uint64())
    pq.write_table(pa.table({"band_hash": col}), tmp)
    os.replace(tmp, final)
    return final


# ------------------------------------------------------------------
# incremental LINE dedup: persistent per-line counts across runs
# ------------------------------------------------------------------

# line keys are engine-internal (first 8 LE sha1 bytes of the stripped
# line, top bit flipped — dedupe/lines.py); stamp the format so a state
# dir from a different hashing scheme fails loudly instead of silently
# under-counting
LINE_KEY_FORMAT = "sha1x8le-flip-v1"


def _stamped_dir(d: str, fmt: str, label: str, fmt_word: str) -> str:
    """Create-or-validate a FORMAT-stamped state directory (the ONE
    copy of the stamp-check contract — count, band and topk state all
    route through here), then run compaction crash recovery."""
    os.makedirs(d, exist_ok=True)
    marker = os.path.join(d, "FORMAT")
    existing = [f for f in os.listdir(d) if f.endswith(".parquet")]
    if os.path.exists(marker):
        with open(marker) as f:
            found = f.read().strip()
        if found != fmt:
            raise ValueError(
                f"{label} at {d!r} was written with {fmt_word} "
                f"{found!r}; this engine uses {fmt!r} — re-run from "
                "scratch (state written under different formats is "
                "not comparable)"
            )
    elif existing:
        raise ValueError(
            f"{label} at {d!r} predates {fmt_word} stamping "
            f"(engine < {fmt!r}); re-run from scratch"
        )
    else:
        with open(marker, "w") as f:
            f.write(fmt)
    _recover_compaction(d)
    return d


def _counts_dir(state_dir: str, subdir: str, fmt: str) -> str:
    """FORMAT-stamped per-run count-partial directory (shared by the
    line and substring-fingerprint incremental variants — the stamp
    guards against mixing keys hashed under different schemes or, for
    fingerprints, different (k, winnow_w) parameters)."""
    return _stamped_dir(
        os.path.join(state_dir, subdir), fmt, "count state", "key format"
    )


# --- compaction bookkeeping -----------------------------------------
#
# The same-run_id retry contract (``exclude_run_id`` in _counts_files /
# _state_files) relies on a committed run's contribution living in its
# OWN file. Compaction folds runs together, after which a run's counts
# can never be excluded again — so compaction records the folded
# run_ids in a sidecar and retries/re-commits of those runs fail
# LOUDLY instead of silently double-counting the snapshot. The newest
# run file is always kept out of the merge, so the common orchestrator
# retry (of the latest run) keeps working after compaction.

_COMPACTED_RUNS = "COMPACTED_RUNS.json"
_COMPACT_JOURNAL = ".compact.journal.json"


def _compacted_runs(d: str) -> set:
    import json

    p = os.path.join(d, _COMPACTED_RUNS)
    if os.path.exists(p):
        with open(p) as f:
            return set(json.load(f))
    return set()


def _record_compacted_runs(d: str, runs) -> None:
    import json

    p = os.path.join(d, _COMPACTED_RUNS)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(sorted(_compacted_runs(d) | set(runs)), f)
    os.replace(tmp, p)


def _check_run_excludable(d: str, run_id: "str | None") -> None:
    """Raise if ``run_id``'s prior contribution cannot be excluded from
    the state at ``d`` (it was folded into a compact file)."""
    if run_id is None:
        return
    if run_id in _compacted_runs(d):
        raise ValueError(
            f"run_id {run_id!r} was committed and then folded into the "
            f"compacted state at {d!r}; its contribution can no longer "
            "be excluded, so a same-run_id retry/re-commit would "
            "double-count that snapshot. Use a fresh run_id (the "
            "snapshot's keys are already in state) or rebuild the "
            "state dir."
        )
    has_compact = any(
        f.startswith("compact-") and f.endswith(".parquet")
        for f in os.listdir(d)
    )
    if has_compact and not os.path.exists(
        os.path.join(d, _COMPACTED_RUNS)
    ):
        raise ValueError(
            f"state at {d!r} holds compacted files written before "
            "folded-run tracking; it cannot be proven that run_id "
            f"{run_id!r} is not already folded in, so a same-run_id "
            "retry is unsafe — use a fresh run_id or rebuild the "
            "state dir."
        )


def _check_run_id(run_id: str) -> None:
    if (
        not run_id
        or run_id.startswith(".")
        or run_id.startswith("compact-")
        or os.sep in run_id
        or "\x00" in run_id
    ):
        raise ValueError(
            f"invalid run_id {run_id!r}: must be non-empty, not start "
            "with '.' or 'compact-', and contain no path separators"
        )


def _recover_compaction(d: str) -> None:
    """Finish or roll back a compaction interrupted mid-sequence.

    The journal is written before the merged file lands and removed
    after the inputs are deleted; without it, a crash between those
    two steps would leave the compact file AND its inputs both listed
    — every folded count doubled on the next read."""
    import json

    j = os.path.join(d, _COMPACT_JOURNAL)
    if not os.path.exists(j):
        return
    with open(j) as f:
        rec = json.load(f)
    target = os.path.join(d, rec["target"])
    if os.path.exists(target):
        # merge landed: finish removing inputs, then record the runs
        for name in rec["inputs"]:
            p = os.path.join(d, name)
            if os.path.abspath(p) != os.path.abspath(target) and (
                os.path.exists(p)
            ):
                os.remove(p)
        _record_compacted_runs(d, rec["runs"])
    # else: merge never landed — inputs are intact, just drop the plan
    os.remove(j)


def _compact_inputs(files):
    """All state files except the newest run file (kept un-compacted
    so the latest run's same-run_id retry survives compaction)."""
    run_files = [
        f
        for f in files
        if not os.path.basename(f).startswith("compact-")
    ]
    keep = max(run_files, key=os.path.getmtime) if run_files else None
    return [f for f in files if f != keep]


def _finalize_compact(d: str, table: pa.Table, inputs) -> None:
    """Journaled, crash-safe landing of one merged compact file:
    journal → write tmp → rename → remove inputs → record folded
    runs → drop journal. Any crash point recovers cleanly in
    :func:`_recover_compaction`."""
    import json

    nums = [
        int(f[len("compact-"): -len(".parquet")])
        for f in os.listdir(d)
        if f.startswith("compact-") and f.endswith(".parquet")
        and f[len("compact-"): -len(".parquet")].isdigit()
    ]
    target = os.path.join(
        d, f"compact-{(max(nums) + 1 if nums else 0):04d}.parquet"
    )
    runs = [
        os.path.basename(f)[: -len(".parquet")]
        for f in inputs
        if not os.path.basename(f).startswith("compact-")
    ]
    j = os.path.join(d, _COMPACT_JOURNAL)
    tmpj = j + ".tmp"
    with open(tmpj, "w") as f:
        json.dump(
            {
                "target": os.path.basename(target),
                "inputs": [os.path.basename(f) for f in inputs],
                "runs": runs,
            },
            f,
        )
    os.replace(tmpj, j)
    tmp = target + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, target)
    for f in inputs:
        if os.path.abspath(f) != os.path.abspath(target) and (
            os.path.exists(f)
        ):
            os.remove(f)
    _record_compacted_runs(d, runs)
    os.remove(j)


def _counts_files(
    state_dir: str, subdir: str, fmt: str,
    exclude_run_id: "str | None" = None,
):
    """List committed state files. ``exclude_run_id`` drops that run's
    own file: an orchestrator retry of an already-committed run_id
    recomputes the run's partials from the same snapshot, so including
    the prior commit would double-count the snapshot (wrong dup
    decisions / inflated counts) even though the re-commit itself
    safely overwrites. Raises if ``exclude_run_id`` was folded into a
    compact file (its contribution can no longer be excluded)."""
    return _list_state(
        _counts_dir(state_dir, subdir, fmt), exclude_run_id
    )


def _seen_counts(state_dir: str, subdir: str, fmt: str) -> int:
    total = 0
    for f in _counts_files(state_dir, subdir, fmt):
        total += pq.ParquetFile(f).metadata.num_rows
    return total


def _commit_counts(
    run_counts: Dataset, state_dir: str, run_id: str, subdir: str,
    fmt: str, key_col: str,
) -> str:
    """Append one run's ``(key, cnt)`` partials (atomic rename;
    rerunning the same run_id overwrites — unless that run was already
    folded into a compact file, which raises: the fresh file would
    land NEXT TO the folded counts and double them forever)."""
    _check_run_id(run_id)
    d = _counts_dir(state_dir, subdir, fmt)
    _check_run_excludable(d, run_id)
    tmp = os.path.join(d, f".{run_id}.parquet.tmp")
    final = os.path.join(d, f"{run_id}.parquet")
    tables = list(
        run_counts.select_columns([key_col, "cnt"]).iter_batches(
            batch_size=65536, batch_format="pyarrow"
        )
    )
    if tables:
        t = pa.concat_tables(tables)
    else:
        # keep the REAL types (int64 line/fp keys, string tokens;
        # int64 counts vs the float64 kept-token sums) — an empty run
        # file with the wrong cnt type would wedge the parquet-dir
        # schema merge for every later read
        try:
            sch = run_counts.schema().base_schema
            key_type = sch.field(key_col).type
            cnt_type = sch.field("cnt").type
        except Exception:
            key_type = pa.int64()
            cnt_type = pa.int64()
        t = pa.table(
            {
                key_col: pa.array([], key_type),
                "cnt": pa.array([], cnt_type),
            }
        )
    pq.write_table(t, tmp)
    os.replace(tmp, final)
    return final


def _compact_counts(
    state_dir: str, subdir: str, fmt: str, key_col: str,
    max_files: int,
) -> int:
    """Merge per-run count files past ``max_files`` into one compact
    file, journaled for crash safety and recording the folded run_ids
    (their same-run_id retry contract dies with the fold — see
    :func:`_check_run_excludable`). The newest run file stays out of
    the merge so the latest run remains retryable. Returns the file
    count after."""
    import ray.data as rd

    from ..dedupe.combine import combine_counts

    files = _counts_files(state_dir, subdir, fmt)
    if len(files) <= max_files:
        return len(files)
    d = _counts_dir(state_dir, subdir, fmt)
    inputs = _compact_inputs(files)
    if len(inputs) < 2:
        return len(files)
    merged = combine_counts(rd.read_parquet(inputs), key=key_col)
    tables = list(
        merged.iter_batches(batch_size=65536, batch_format="pyarrow")
    )
    t = pa.concat_tables(tables)
    _finalize_compact(d, t, inputs)
    return len(_counts_files(state_dir, subdir, fmt))


def seen_line_count(state_dir: str) -> int:
    """Committed distinct-line rows from parquet footers (no data
    read; the same key may appear in several run files until
    :func:`compact_line_state` merges them)."""
    return _seen_counts(state_dir, "lines", LINE_KEY_FORMAT)


def incremental_line_dedup(
    ds: Dataset,
    state_dir: str,
    text_col: str = "text",
    id_col: "str | None" = "doc_id",
    min_count: int = 2,
    run_id: Optional[str] = None,
    distributed: "bool | None" = None,
    num_partitions: Optional[int] = None,
    sep: str = "\n",
) -> "Tuple[Dataset, str, Dataset]":
    """Cross-run ccnet-style line dedup: a line is frequent when its
    count summed over THIS snapshot plus every previously committed
    run reaches ``min_count`` — boilerplate first seen split across
    snapshots is still caught, without ever re-reading old text.

    Returns ``(deduped, run_id, run_counts)``; ``run_counts`` is this
    run's materialized *incoming* per-line counts (pre-drop, so lines
    this run itself removed still accumulate for future runs) — write
    your data output FIRST, then pass it to
    :func:`commit_run_line_counts` (crash-safe order, same contract as
    the exact/fuzzy variants)."""
    import ray.data as rd

    from ..dedupe.combine import dup_keys_from_partials
    from ..dedupe.lines import drop_frequent_lines, line_partials

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]

    # state files hold PARTIAL counts (same key may span several files
    # until compaction), so the run commits raw per-block partials and
    # the frequent set comes from a HAVING over the unioned partials —
    # the full combine of dominant once-only keys is never paid
    run_counts = line_partials(ds, text_col, sep=sep).materialize()
    files = _counts_files(
        state_dir, "lines", LINE_KEY_FORMAT, exclude_run_id=run_id
    )
    total = (
        run_counts.union(rd.read_parquet(files)) if files else run_counts
    )
    freq = dup_keys_from_partials(
        total, key="line_key", min_count=min_count
    )
    out = drop_frequent_lines(
        ds,
        freq,
        text_col=text_col,
        id_col=id_col,
        distributed=distributed,
        num_partitions=num_partitions,
        sep=sep,
    )
    return out, run_id, run_counts


def commit_run_line_counts(
    run_counts: Dataset, state_dir: str, run_id: str
) -> str:
    """Append one run's ``(line_key, cnt)`` partials to the state
    (atomic rename; rerunning the same run_id overwrites)."""
    return _commit_counts(
        run_counts, state_dir, run_id, "lines", LINE_KEY_FORMAT,
        "line_key",
    )


def compact_line_state(state_dir: str, max_files: int = 16) -> int:
    """Merge per-run line-count files into one once there are more
    than ``max_files`` (same key split across many run files makes
    every incremental combine re-sum them)."""
    return _compact_counts(
        state_dir, "lines", LINE_KEY_FORMAT, "line_key", max_files
    )


# ------------------------------------------------------------------
# incremental cross-run duplicated-substring spans
# ------------------------------------------------------------------


def _fp_format(k: int, winnow_w: int) -> str:
    # fingerprints are only comparable across runs computed with the
    # same rolling-hash scheme AND the same (k, winnow_w): winnowing
    # selection is content-defined, so interior picks agree across
    # occurrences, but a different window size selects different ones
    return f"fp-poly64-k{k}-w{winnow_w}-v1"


def seen_fingerprint_count(
    state_dir: str, k: int = 50, winnow_w: int = 8
) -> int:
    """Committed fingerprint-count rows from parquet footers."""
    return _seen_counts(state_dir, "substrings", _fp_format(k, winnow_w))


def incremental_substring_dedup(
    ds: Dataset,
    state_dir: str,
    text_col: str = "text",
    id_col: "str | None" = "doc_id",
    k: int = 50,
    winnow_w: int = 8,
    min_count: int = 2,
    mode: str = "annotate",
    run_id: Optional[str] = None,
    distributed: "bool | None" = None,
    num_partitions: Optional[int] = None,
) -> "Tuple[Dataset, str, Dataset]":
    """Cross-run ExactSubstr-style span dedup: a k-gram fingerprint is
    duplicated when its count summed over THIS snapshot plus every
    previously committed run reaches ``min_count`` — boilerplate whose
    occurrences are split across snapshots is still excised from the
    new snapshot, without re-reading old text (the winnowing guarantee
    holds cross-run because selection is content-defined: interior
    window minima of a repeated substring agree across occurrences).

    Returns ``(out, run_id, run_counts)``; ``run_counts`` is this
    run's materialized incoming ``(fp, cnt)`` partials (pre-excise) —
    write your data output FIRST, then pass it to
    :func:`commit_run_fingerprint_counts` (crash-safe order, same
    contract as the line/exact/fuzzy variants)."""
    import ray.data as rd

    from ..dedupe.combine import dup_keys_from_partials
    from ..dedupe.spans import apply_dup_fingerprints, fingerprint_partials

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]

    # the state stores PARTIAL counts (valid: the same fp may appear in
    # several state files until compaction re-sums them), so the run
    # side commits its raw per-block partials too — the expensive full
    # combine of dominant once-only fps is never paid; the duplicated
    # set comes straight from a HAVING over the unioned partials
    run_counts = fingerprint_partials(
        ds, text_col=text_col, k=k, winnow_w=winnow_w
    ).materialize()
    files = _counts_files(
        state_dir, "substrings", _fp_format(k, winnow_w),
        exclude_run_id=run_id,
    )
    total = (
        run_counts.union(rd.read_parquet(files)) if files else run_counts
    )
    dup = dup_keys_from_partials(total, key="fp", min_count=min_count)
    out = apply_dup_fingerprints(
        ds,
        dup,
        text_col=text_col,
        id_col=id_col,
        k=k,
        winnow_w=winnow_w,
        mode=mode,
        distributed=distributed,
        num_partitions=num_partitions,
    )
    return out, run_id, run_counts


def commit_run_fingerprint_counts(
    run_counts: Dataset, state_dir: str, run_id: str,
    k: int = 50, winnow_w: int = 8,
) -> str:
    """Append one run's ``(fp, cnt)`` partials to the state (atomic
    rename; rerunning the same run_id overwrites)."""
    return _commit_counts(
        run_counts, state_dir, run_id, "substrings",
        _fp_format(k, winnow_w), "fp",
    )


def compact_fingerprint_state(
    state_dir: str, max_files: int = 16, k: int = 50, winnow_w: int = 8
) -> int:
    """Merge per-run fingerprint-count files past ``max_files``."""
    return _compact_counts(
        state_dir, "substrings", _fp_format(k, winnow_w), "fp",
        max_files,
    )


# ------------------------------------------------------------------
# incremental cross-run vocabulary (token counts)
# ------------------------------------------------------------------


def _vocab_format(lowercase: bool) -> str:
    return f"token-ws-ascii-v1-lc{int(lowercase)}"


def seen_vocab_rows(state_dir: str, lowercase: bool = False) -> int:
    """Committed (token, cnt) PARTIAL rows (>= distinct tokens until
    compaction merges split keys)."""
    return _seen_counts(state_dir, "vocab", _vocab_format(lowercase))


def incremental_vocab(
    ds: Dataset,
    state_dir: str,
    text_col: str = "text",
    run_id: Optional[str] = None,
    lowercase: bool = False,
    min_count: int = 1,
    top_k: Optional[int] = None,
) -> "Tuple[Dataset, str, Dataset]":
    """Cross-run token histogram: counts accumulate over THIS snapshot
    plus every committed run, so a tokenizer/vocab build over a growing
    corpus never re-reads old text — each snapshot contributes one
    fixed-width ``(token, cnt)`` partial file.

    Returns ``(totals, run_id, run_counts)``; write your data output
    first, then pass ``run_counts`` to :func:`commit_run_token_counts`
    (the crash-safe order every incremental variant uses)."""
    import ray.data as rd

    from ..dedupe.combine import combine_counts
    from ..functions.vocab import token_count_partials

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]

    run_counts = token_count_partials(
        ds, text_col, lowercase
    ).materialize()
    files = _counts_files(
        state_dir, "vocab", _vocab_format(lowercase),
        exclude_run_id=run_id,
    )
    total = (
        run_counts.union(rd.read_parquet(files)) if files else run_counts
    )
    combined = combine_counts(total, key="token")
    if min_count > 1:
        combined = combined.filter(expr=f"cnt >= {int(min_count)}")
    if top_k is not None:
        combined = combined.sort(
            ["cnt", "token"], descending=[True, False]
        ).limit(int(top_k))
    return combined, run_id, run_counts


def commit_run_token_counts(
    run_counts: Dataset,
    state_dir: str,
    run_id: str,
    lowercase: bool = False,
) -> str:
    """Append one run's ``(token, cnt)`` partials (atomic rename;
    rerunning the same run_id overwrites)."""
    return _commit_counts(
        run_counts, state_dir, run_id, "vocab",
        _vocab_format(lowercase), "token",
    )


def compact_vocab_state(
    state_dir: str, max_files: int = 16, lowercase: bool = False
) -> int:
    """Merge per-run vocab files past ``max_files``."""
    return _compact_counts(
        state_dir, "vocab", _vocab_format(lowercase), "token",
        max_files,
    )


# ------------------------------------------------------------------
# incremental cross-run approximate top-k tokens (MG + CMS state)
# ------------------------------------------------------------------


def _topk_format(
    lowercase: bool, counters: int, depth: int, width: int
) -> str:
    # MG residuals only merge under the same counter budget, and CMS
    # sketches only merge at the same (depth, width); the token class
    # and case fold must match for counts to mean the same thing
    return (
        f"topk-ws-ascii-v1-lc{int(lowercase)}"
        f"-c{counters}-d{depth}-w{width}"
    )


def seen_topk_runs(
    state_dir: str,
    lowercase: bool = False,
    counters: int = 4096,
    depth: int = 4,
    width: int = 1 << 16,
) -> int:
    """Committed run-summary files (one per committed run until
    compaction merges them into one)."""
    return len(
        _counts_files(
            state_dir, "topk", _topk_format(lowercase, counters, depth, width)
        )
    )


def _read_topk_state(files):
    """Split committed run-summary files into (mg tables, cms blobs).
    Each file is the union schema commit_run_top_summary writes: MG
    rows carry (token, cnt); sketch rows carry (null, 0, blob)."""
    mg_tables, blobs = [], []
    for f in files:
        t = pq.read_table(f)
        tok = t.column("token")
        mg_tables.append(
            t.filter(tok.is_valid()).select(["token", "cnt"])
        )
        for blob in t.filter(tok.is_null()).column("sketch").to_pylist():
            if blob is not None:
                blobs.append(blob)
    return mg_tables, blobs


def incremental_top_tokens(
    ds: Dataset,
    state_dir: str,
    text_col: str = "text",
    k: int = 100,
    counters: int = 4096,
    depth: int = 4,
    width: int = 1 << 16,
    lowercase: bool = False,
    candidate_pool: Optional[int] = None,
    run_id: Optional[str] = None,
):
    """Cross-run approximate top-k: every committed run contributed one
    fixed-size (MG summary + CMS sketch) pair, so the heavy hitters of
    the WHOLE corpus so far rank without re-reading old text and with
    state that stays O(counters + depth*width) regardless of corpus
    size — the sketch sibling of :func:`incremental_vocab` (which keeps
    exact counts at vocabulary-sized state). The mergeable-summaries
    guarantee (Agarwal et al. 2012) survives the merge: any token with
    total count > N_total/(counters+1) keeps a positive residual, even
    when its mass is spread across runs so thinly that no single run
    would surface it.

    Returns ``(result, run_id, summary)``: write/consume ``result``
    first, then pass ``summary`` to :func:`commit_run_top_summary`
    (the crash-safe order every incremental variant uses)."""
    from ..functions.sketches import (
        CountMinSketch,
        mg_reduce,
        rank_top_tokens,
        top_token_summaries,
    )

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]

    # validate the state dir's format stamp BEFORE the corpus pass —
    # a counters/shape mismatch must fail fast, not after the scan.
    # exclude_run_id: a retry of an already-committed run_id would
    # otherwise merge the snapshot's own prior summary and ~double
    # every count (see _counts_files)
    files = _counts_files(
        state_dir, "topk",
        _topk_format(lowercase, counters, depth, width),
        exclude_run_id=run_id,
    )
    run_mg, run_cms = top_token_summaries(
        ds, text_col, counters=counters, depth=depth, width=width,
        lowercase=lowercase,
    )
    mg_tables, blobs = _read_topk_state(files)
    merged_cms = run_cms
    for blob in blobs:
        merged_cms = merged_cms.merge(CountMinSketch.from_bytes(blob))

    # state is runs x counters rows at most — driver-side combine
    import numpy as np

    all_mg = pa.concat_tables([run_mg, *mg_tables])
    if all_mg.num_rows:
        summed = all_mg.group_by("token").aggregate([("cnt", "sum")])
        toks, cnts = mg_reduce(
            np.asarray(summed.column("token").to_pylist(), dtype=object),
            summed.column("cnt_sum").to_numpy(zero_copy_only=False)
            .astype(np.int64),
            counters,
        )
        order = np.lexsort((toks, -cnts))
        merged_mg = pa.table(
            {
                "token": pa.array(toks[order].tolist(), pa.string()),
                "cnt": pa.array(
                    cnts[order].astype(np.int64), pa.int64()
                ),
            }
        )
    else:
        merged_mg = run_mg
    result = rank_top_tokens(
        merged_mg, merged_cms, k, candidate_pool=candidate_pool
    )
    return result, run_id, (run_mg, run_cms)


def commit_run_top_summary(
    summary,
    state_dir: str,
    run_id: str,
    lowercase: bool = False,
    counters: int = 4096,
) -> str:
    """Append one run's (MG table, CMS sketch) pair as a single
    union-schema parquet file (atomic rename; rerunning the same
    run_id overwrites — unless the run was folded into a compact file,
    which raises; see :func:`_check_run_excludable`). The sketch shape
    is read from the sketch itself so the format stamp can't drift
    from the payload."""
    run_mg, run_cms = summary
    _check_run_id(run_id)
    d = _counts_dir(
        state_dir, "topk",
        _topk_format(lowercase, counters, run_cms.depth, run_cms.width),
    )
    _check_run_excludable(d, run_id)
    tmp = os.path.join(d, f".{run_id}.parquet.tmp")
    final = os.path.join(d, f"{run_id}.parquet")
    t = _topk_union_table(
        run_mg.column("token").combine_chunks(),
        run_mg.column("cnt").combine_chunks(),
        run_cms,
    )
    pq.write_table(t, tmp)
    os.replace(tmp, final)
    return final


def _topk_union_table(tokens: pa.Array, cnts: pa.Array, cms) -> pa.Table:
    """The ONE (token, cnt, sketch) union-schema layout for topk state
    files: MG rows first, then the single null-token sketch row —
    shared by the per-run commit and compaction so the two writers
    can't drift."""
    n = len(tokens)
    return pa.table(
        {
            "token": pa.concat_arrays(
                [tokens, pa.array([None], pa.string())]
            ),
            "cnt": pa.concat_arrays([cnts, pa.array([0], pa.int64())]),
            "sketch": pa.array([None] * n + [cms.to_bytes()], pa.binary()),
        }
    )


def compact_topk_state(
    state_dir: str,
    max_files: int = 16,
    lowercase: bool = False,
    counters: int = 4096,
    depth: int = 4,
    width: int = 1 << 16,
) -> int:
    """Merge per-run summary files past ``max_files`` into one compact
    file: sum-only for MG rows (the query-side combine does the
    reduce, so results are IDENTICAL pre/post compaction) and
    elementwise-add for the sketches. Journaled + folded-run tracking
    like the count-state compactions; the newest run file stays out of
    the merge so the latest run remains retryable."""
    from ..functions.sketches import CountMinSketch

    fmt = _topk_format(lowercase, counters, depth, width)
    files = _counts_files(state_dir, "topk", fmt)
    if len(files) <= max_files:
        return len(files)
    inputs = _compact_inputs(files)
    if len(inputs) < 2:
        return len(files)
    mg_tables, blobs = _read_topk_state(inputs)
    merged_cms = CountMinSketch(depth, width)
    for blob in blobs:
        merged_cms = merged_cms.merge(CountMinSketch.from_bytes(blob))
    all_mg = pa.concat_tables(mg_tables)
    summed = (
        all_mg.group_by("token").aggregate([("cnt", "sum")])
        if all_mg.num_rows
        else None
    )
    d = _counts_dir(state_dir, "topk", fmt)
    tokens = (
        summed.column("token").combine_chunks()
        if summed is not None
        else pa.array([], pa.string())
    )
    cnts = (
        summed.column("cnt_sum").cast(pa.int64()).combine_chunks()
        if summed is not None
        else pa.array([], pa.int64())
    )
    t = _topk_union_table(tokens, cnts, merged_cms)
    _finalize_compact(d, t, inputs)
    return len(_counts_files(state_dir, "topk", fmt))


# ------------------------------------------------------------------
# incremental cross-run per-group quota (domain cap)
# ------------------------------------------------------------------

# state rows are (group_key, cnt) with str-normalized group keys —
# comparable across runs regardless of the sampling seed (the seed
# picks WHICH rows a run keeps, not how many were kept). The rows do
# not name the column their keys came from, so the stamp does: keys
# banked per ``source`` never match ``lang`` values, and a run over
# them would grant every group its full cap again
GROUP_QUOTA_FORMAT = "grpquota-str-v1"


def _quota_format(group_col: str) -> str:
    return f"{GROUP_QUOTA_FORMAT} group={group_col}"


def seen_quota_rows(state_dir: str, *, group_col: str) -> int:
    """Committed quota-count rows from parquet footers (PARTIAL rows:
    the same group may appear in several run files until
    :func:`compact_quota_state` merges them)."""
    return _seen_counts(state_dir, "quota", _quota_format(group_col))


def incremental_domain_cap(
    ds: "Dataset",
    state_dir: str,
    cap: int,
    group_col: str = "source",
    id_col: str = "doc_id",
    seed: int = 42,
    run_id: Optional[str] = None,
    max_broadcast_groups: Optional[int] = None,
    delivery: str = "auto",
) -> "Tuple[Dataset, str]":
    """Cross-run per-group quota (first-come across snapshots): a
    group that already banked ``k`` kept rows in previous runs keeps
    at most ``cap - k`` rows of THIS snapshot (within-run selection
    stays deterministic by smallest md5(seed:id)); exhausted groups
    drop entirely. State is a tiny (group_key, cnt) table — old text
    is never re-read.

    Returns ``(kept, run_id)``. Crash-safe order: write the output
    parquet FIRST, then commit ``group_kept_counts(written)`` via
    :func:`commit_run_quota_counts` — the committed counts then equal
    exactly what was written (same contract as the dedup variants;
    a same-run_id retry excludes its own prior commit and reproduces
    the identical output from the same snapshot).

    Note: count-only state cannot recognise row IDENTITY — re-ingest
    of an already-kept row in a later snapshot competes for the
    remaining quota like any new row. Compose with
    :func:`incremental_exact_dedup` first when snapshots overlap."""
    import ray.data as rd

    from ..functions.splits import cap_per_group

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]
    files = _counts_files(
        state_dir, "quota", _quota_format(group_col), exclude_run_id=run_id
    )
    prev = rd.read_parquet(files) if files else None
    kwargs = {}
    if max_broadcast_groups is not None:
        kwargs["max_broadcast_groups"] = max_broadcast_groups
    out = cap_per_group(
        ds, cap, group_col=group_col, id_col=id_col, seed=seed,
        prev_counts=prev, delivery=delivery, **kwargs,
    )
    return out, run_id


def commit_run_quota_counts(
    run_counts: "Dataset", state_dir: str, run_id: str, *, group_col: str,
) -> str:
    """Append one run's kept ``(group_key, cnt)`` partials (atomic
    rename; rerunning the same run_id overwrites — unless the run was
    folded into a compact file, which raises). ``group_col`` is the
    run's group column, which the state dir's stamp must name."""
    return _commit_counts(
        run_counts, state_dir, run_id, "quota", _quota_format(group_col),
        "group_key",
    )


def compact_quota_state(
    state_dir: str, max_files: int = 16, *, group_col: str
) -> int:
    """Merge per-run quota-count files past ``max_files`` (kept counts
    are additive across runs, so the standard journaled count
    compaction applies; the newest run file stays retryable)."""
    return _compact_counts(
        state_dir, "quota", _quota_format(group_col), "group_key",
        max_files,
    )


# ------------------------------------------------------------------
# incremental cross-run token budget
# ------------------------------------------------------------------

# banked kept-token sums per str-normalized group; float64 (the
# sampling kernel sums float64 — integer token columns stay exact).
# Stamped with the group and token columns, as the quota state is:
# sums of n_chars charged against an n_lines budget would be as wrong
# as sums banked under another grouping
TOKEN_BUDGET_FORMAT = "grptok-str-f64-v1"


def _budget_format(token_col: str, group_col: str) -> str:
    return f"{TOKEN_BUDGET_FORMAT} group={group_col} tokens={token_col}"


def seen_budget_rows(
    state_dir: str, *, token_col: str, group_col: str
) -> int:
    """Committed kept-token-sum rows from parquet footers (PARTIAL
    rows: the same group may appear in several run files until
    :func:`compact_token_budget_state` merges them)."""
    return _seen_counts(
        state_dir, "token_budget", _budget_format(token_col, group_col)
    )


def incremental_token_budget(
    ds: "Dataset",
    state_dir: str,
    budget,
    token_col: str,
    group_col: str = "source",
    id_col: str = "doc_id",
    seed: int = 42,
    run_id: Optional[str] = None,
    default_budget: Optional[int] = None,
    delivery: str = "auto",
) -> "Tuple[Dataset, str]":
    """Cross-run token budget (first-come across snapshots): a group
    that already banked ``s`` kept tokens in previous runs keeps at
    most ``budget - s`` more tokens of THIS snapshot (within-run
    selection stays the deterministic md5-order prefix); exhausted
    groups drop entirely. State is a tiny (group_key, cnt) float64
    table — old text is never re-read.

    Returns ``(kept, run_id)``. Crash-safe order: write the output
    parquet FIRST, then commit ``group_kept_tokens(written)`` via
    :func:`commit_run_token_budget` so state equals data exactly.
    Same identity caveat as :func:`incremental_domain_cap`: count-
    only state cannot see row identity — compose with incremental
    exact dedup when snapshots overlap."""
    import ray.data as rd

    from ..functions.splits import token_budget_sample

    if run_id is None:
        import uuid

        run_id = uuid.uuid4().hex[:12]
    files = _counts_files(
        state_dir, "token_budget", _budget_format(token_col, group_col),
        exclude_run_id=run_id,
    )
    prev = rd.read_parquet(files) if files else None
    out = token_budget_sample(
        ds, budget, token_col=token_col, group_col=group_col,
        id_col=id_col, seed=seed, default_budget=default_budget,
        prev_tokens=prev, delivery=delivery,
    )
    return out, run_id


def commit_run_token_budget(
    run_tokens: "Dataset", state_dir: str, run_id: str, *,
    token_col: str, group_col: str,
) -> str:
    """Append one run's kept ``(group_key, cnt)`` token-sum partials
    (atomic rename; rerunning the same run_id overwrites — unless the
    run was folded into a compact file, which raises). ``token_col``
    and ``group_col`` are the run's columns, which the state dir's
    stamp must name."""
    return _commit_counts(
        run_tokens, state_dir, run_id, "token_budget",
        _budget_format(token_col, group_col), "group_key",
    )


def compact_token_budget_state(
    state_dir: str, max_files: int = 16, *, token_col: str,
    group_col: str,
) -> int:
    """Merge per-run kept-token files past ``max_files`` (sums are
    additive across runs; standard journaled count compaction, the
    newest run file stays retryable)."""
    return _compact_counts(
        state_dir, "token_budget", _budget_format(token_col, group_col),
        "group_key", max_files,
    )
