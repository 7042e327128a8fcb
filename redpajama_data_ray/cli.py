"""Command-line entry points.

Mirrors the reference's job surface (quality-signal pipeline, exact
dedup, fuzzy dedup, token counts: pipeline.py / bloomfilter.py /
run_lsh.py / token_count.py) as one CLI::

    python -m redpajama_data_ray quality --input <parquet dir|sf dir> \
        --output /tmp/out [--max-docs N] [--shuffle-files] [--resume]
    python -m redpajama_data_ray dedup-exact  --input <annotated> --output ...
    python -m redpajama_data_ray dedup-fuzzy  --input <annotated> --output ...
    python -m redpajama_data_ray token-count  --input <corpus> --output ...

The CLI owns its Ray session (guarded init); library code never calls
ray.init.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def _ensure_ray(num_cpus: Optional[int]):
    import ray

    if not ray.is_initialized():
        if os.environ.get("RAY_JOB_ID"):
            # running inside `ray job submit`: attach to the hosting
            # cluster (address comes from the job runtime's env).
            # Forcing address="local" here would fork a private
            # single-node Ray instance on the head node and the whole
            # cluster would sit idle. num_cpus is a cluster property
            # now, not ours to set.
            ray.init(ignore_reinit_error=True, logging_level="ERROR")
        else:
            ray.init(
                address="local",
                num_cpus=num_cpus,
                include_dashboard=False,
                ignore_reinit_error=True,
                logging_level="ERROR",
            )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False


def _ensure_doc_ids(ds, id_column: str):
    """Auto-assign the standard ``repo/path@commit`` doc_id on raw
    corpora; raise a clear CLI error for generic tables that have
    neither a ``doc_id`` column nor the corpus id columns (instead of
    a KeyError('repo') deep inside a Ray task)."""
    names = ds.schema().names or []
    if id_column != "doc_id" or "doc_id" in names:
        return ds
    needed = {"repo", "path", "commit", "content"}
    if not needed.issubset(names):
        raise SystemExit(
            f"input has no 'doc_id' column and is not a corpus table "
            f"(needs {sorted(needed)} to derive one; found "
            f"{sorted(names)}). Pass --id-column naming an existing "
            "unique id column."
        )
    from .stages.ids import assign_ids

    return ds.map_batches(assign_ids, batch_format="pyarrow")


def _input_files(path: str, keep_patterns: Optional[List[str]] = None):
    """The parquet files ``quality --input`` names (a scale-factor dir
    maps to its synthesized corpus shards; see
    ``pipelines.quality.input_files``), as a CLI error when none is
    left."""
    from .pipelines.quality import input_files

    try:
        return input_files(path, keep_patterns)
    except ValueError as e:
        raise SystemExit(str(e)) from None


def _read_input(
    path: str,
    max_docs: Optional[int],
    shuffle_files: bool,
    keep_patterns: Optional[List[str]] = None,
):
    import ray.data as rd

    from .pipelines.quality import is_sf_dir, read_corpus

    if is_sf_dir(path):
        return read_corpus(
            path,
            shuffle_files=shuffle_files,
            max_docs=max_docs,
            keep_patterns=keep_patterns,
        )
    src: "str | List[str]" = path
    if keep_patterns:
        src = _input_files(path, keep_patterns)
    ds = rd.read_parquet(
        src, shuffle="files" if shuffle_files else None
    )
    if max_docs:
        ds = ds.limit(max_docs)
    return ds


def _require_columns(ds, cols, hint: str) -> None:
    """Fail at the CLI surface when a named column is absent — the
    alternative is a bare KeyError inside a Ray task with no hint
    about which flag or input was wrong. Schema comes from read
    metadata; nothing executes."""
    schema = ds.schema()
    names = list(schema.names) if schema is not None else []
    missing = [c for c in cols if c and c not in names]
    if missing:
        raise SystemExit(
            f"input is missing column(s) {missing} — it has {names}. "
            + hint
        )


def _write_then_reread(
    out, output_dir: str, columns: Optional[List[str]], empty_types=None
):
    """Consume a pipeline with ``write_parquet`` (streaming, nothing
    pinned in the object store) and return a column-pruned re-read of
    the written files for cheap post-hoc aggregates / state commits.

    Replaces the old ``out.materialize()``-before-write pattern, which
    pinned the ENTIRE output in the object store — at 100 TB that is
    spill churn proportional to the whole corpus. Refuses to write
    into a dir that already holds parquet (the re-read would silently
    mix runs).
    """
    import glob

    import ray.data as rd

    if os.path.isdir(output_dir) and glob.glob(
        os.path.join(output_dir, "*.parquet")
    ):
        raise SystemExit(
            f"output dir {output_dir} already contains parquet files; "
            "use a fresh directory per run (resume goes through "
            "--state-dir / --resume, not output reuse)"
        )
    out.write_parquet(output_dir)
    if not glob.glob(os.path.join(output_dir, "*.parquet")):
        # a fully-filtered pipeline (e.g. an incremental re-run whose
        # keys are all already committed) writes NOTHING — Ray's
        # write_parquet creates no files for 0 rows, and a re-read
        # would raise. An empty dataset with the right columns keeps
        # the state commit / report path alive (types from
        # empty_types, default string).
        import pyarrow as pa

        empty_types = empty_types or {}
        return rd.from_arrow(
            pa.table(
                {
                    c: pa.array([], empty_types.get(c, pa.string()))
                    for c in columns or []
                }
            )
        )
    return rd.read_parquet(output_dir, columns=columns)


def cmd_quality(args) -> dict:
    from .pipelines.outputs import write_minhash_provenance, write_outputs
    from .pipelines.quality import QualityConfig, annotate

    keep_patterns = getattr(args, "keep_patterns", None)
    model_kwargs = dict(
        langid_model_path=getattr(args, "langid_model", None),
        ppl_model_path=getattr(args, "ppl_model", None),
        classifier_model_path=getattr(args, "classifier_model", None),
        minhash_shingle_hash=getattr(
            args, "minhash_shingle_hash", "sha1"
        ),
    )
    # provenance sidecar: which shingle-hash mode produced the
    # signature columns (modes are not comparable — dedup-fuzzy
    # validates this stamp against its state dir)
    from .functions.minhash import MinHasher

    _hasher = MinHasher(
        shingle_hash=model_kwargs["minhash_shingle_hash"]
    )
    minhash_provenance = {
        "shingle_hash": _hasher.shingle_hash,
        "checksum": _hasher.checksum,
    }
    if args.resume:
        # partition-per-input-shard resumable mode
        import ray

        from .state.manifest import run_partitioned

        # a shard's partition is the whole shard: a row cap or a
        # shuffled file order has no per-shard meaning to resume
        for flag, on in (
            ("--max-docs", args.max_docs is not None),
            ("--shuffle-files", args.shuffle_files),
        ):
            if on:
                raise SystemExit(
                    f"quality --resume does not take {flag}: each input "
                    "file is processed whole into its own partition"
                )
        files = _input_files(args.input, keep_patterns)
        workers = max(1, args.resume_workers)
        # split the CPU budget across concurrent shard pipelines —
        # each shard execution caps the CPUs of its own tasks so the
        # shards share the cluster instead of queueing on it
        total = int(ray.cluster_resources().get("CPU", 4))
        per_shard = max(1, total // workers)
        cfg = QualityConfig(max_actors=per_shard, **model_kwargs)
        committed = run_partitioned(
            files,
            args.output,
            lambda p: annotate(ray.data.read_parquet(p), cfg),
            max_concurrent=workers,
        )
        write_minhash_provenance(args.output, minhash_provenance)
        return {"partitions": len(committed), "output": args.output}
    ds = _read_input(
        args.input, args.max_docs, args.shuffle_files, keep_patterns
    )
    annotated = annotate(ds, QualityConfig(**model_kwargs))
    paths = write_outputs(
        annotated, args.output, minhash_provenance=minhash_provenance
    )
    return {"outputs": paths}


def cmd_redecide(args) -> dict:
    """Re-apply the keep/drop rule layer with NEW thresholds over an
    already-annotated dir — the threshold-tuning loop. The signals
    (models, kernels) are never recomputed: this pass is the
    vectorized ``decide_table`` over the signal columns plus a
    parquet rewrite, so iterating on RuleConfig costs IO, not model
    time, at any corpus size."""
    import dataclasses

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from .functions.rules import RuleConfig, decide_table
    from .pipelines.outputs import with_narrow_sinks

    ds = rd.read_parquet(args.input)
    _require_columns(
        ds,
        ["rps_doc_word_count", "rps_doc_frac_unique_words"],
        "redecide consumes the ANNOTATED output of `quality` (signal "
        "columns already computed) and re-applies the rule layer "
        "without re-running models — run `quality` first and point "
        "--input at its annotated/ dir",
    )
    fields = {f.name for f in dataclasses.fields(RuleConfig)}
    base = {}
    if args.rules_json:
        with open(args.rules_json) as f:
            base = json.load(f)
        unknown = sorted(set(base) - fields)
        if unknown:
            raise SystemExit(
                f"--rules-json has unknown rule field(s) {unknown}; "
                f"valid: {sorted(fields)}"
            )
    for name in fields:
        v = getattr(args, name, None)
        if v is not None:
            base[name] = v
    cfg = RuleConfig(**base)

    def _decide(t: pa.Table) -> pa.Table:
        keep, reasons = decide_table(t, cfg)
        stale = [
            c for c in ("keep", "drop_reasons") if c in t.schema.names
        ]
        if stale:
            t = t.drop_columns(stale)
        return t.append_column(
            "keep", pa.array(keep, pa.bool_())
        ).append_column(
            "drop_reasons", pa.array(reasons, pa.list_(pa.string()))
        )

    out_annotated = os.path.join(args.output, "annotated")
    out_kept = os.path.join(args.output, "kept")
    # one execution writes annotated/ and kept/
    with_narrow_sinks(
        ds.map_batches(_decide, batch_format="pyarrow"),
        args.output,
        sinks=("kept",),
    ).write_parquet(out_annotated)
    full = rd.read_parquet(out_annotated)

    # drop-reason histogram: fixed-width per-batch partials (<= one
    # row per rule id + 2 counters per block) through the standard
    # single-root combine — nothing row-scaled reaches the driver
    def _partials(t: pa.Table) -> pa.Table:
        vc = pc.list_flatten(t.column("drop_reasons")).value_counts()
        keys = vc.field("values").to_pylist()
        cnts = [int(c) for c in vc.field("counts").to_pylist()]
        keys += ["__kept__", "__total__"]
        cnts += [
            int(pc.sum(t.column("keep")).as_py() or 0), t.num_rows,
        ]
        return pa.table(
            {"reason": pa.array(keys, pa.string()),
             "cnt": pa.array(cnts, pa.int64())}
        )

    from .dedupe.combine import combine_counts

    hist = {
        r["reason"]: r["cnt"]
        for r in combine_counts(
            full.select_columns(["keep", "drop_reasons"]).map_batches(
                _partials, batch_format="pyarrow"
            ),
            "reason",
            distributed=False,
        ).take_all()
    }
    kept_n = hist.pop("__kept__", 0)
    total = hist.pop("__total__", 0)
    return {
        "outputs": {"annotated": out_annotated, "kept": out_kept},
        "total": total,
        "kept": kept_n,
        "drop_reasons": dict(sorted(hist.items())),
        "rules": dataclasses.asdict(cfg),
    }


def cmd_dedup_exact(args) -> dict:
    import ray.data as rd

    from .dedupe.exact import exact_dedup

    ds = rd.read_parquet(args.input)
    _require_columns(
        ds,
        [args.key, args.order_col],
        "dedup-exact needs --key and --order-col columns; for a raw "
        "corpus use --key content --order-col doc_id (or annotate "
        "with `quality` first for content_sha256/doc_id)",
    )
    if args.state_dir:
        from .state.incremental import (
            commit_run_keys,
            incremental_exact_dedup,
            seen_key_count,
        )

        out, run_id = incremental_exact_dedup(
            ds,
            args.state_dir,
            key=args.key,
            order_col=args.order_col,
            run_id=args.run_id,
            approximate=args.approximate,
        )
        # write data THEN commit state — commit reads only the key
        # column back from the written files, nothing corpus-sized
        # is ever materialized
        written = _write_then_reread(out, args.output, [args.key])
        commit_run_keys(written, args.state_dir, run_id, key=args.key)
        return {
            "rows": written.count(),
            "output": args.output,
            "run_id": run_id,
            "state_keys": seen_key_count(args.state_dir),
        }
    out = exact_dedup(ds, key=args.key, order_col=args.order_col)
    out.write_parquet(args.output)
    return {"rows": out.count(), "output": args.output}


def cmd_dedup_fuzzy(args) -> dict:
    import pyarrow.parquet as pq
    import ray.data as rd

    from .dedupe.lsh import clusters_table, fuzzy_dedup

    ds = rd.read_parquet(args.input)
    _require_columns(
        ds,
        [args.signature, "id_int"],
        "dedup-fuzzy consumes the ANNOTATED output of `quality` "
        "(id_int + signature_sim* columns) — run `quality` on the "
        "raw corpus first and point --input at its annotated/ dir",
    )
    if args.state_dir:
        from .pipelines.outputs import read_minhash_provenance
        from .state.incremental import (
            check_minhash_provenance,
            commit_run_bands,
            incremental_fuzzy_dedup,
            seen_band_count,
        )

        # refuse to mix shingle-hash modes across runs (the sidecar is
        # written by `quality`; legacy inputs without one skip the check)
        check_minhash_provenance(
            args.state_dir, read_minhash_provenance(args.input)
        )
        out, run_id = incremental_fuzzy_dedup(
            ds, args.state_dir, sig_column=args.signature,
            run_id=args.run_id,
        )
        # write data THEN commit state from a narrow (id, bands)
        # re-read of the written output
        import pyarrow as pa

        written = _write_then_reread(
            out, args.output, ["id_int", args.signature],
            empty_types={
                "id_int": pa.uint64(),
                args.signature: pa.large_list(pa.binary()),
            },
        )
        commit_run_bands(written, args.state_dir, run_id, args.signature)
        return {
            "rows": written.count(),
            "output": args.output,
            "run_id": run_id,
            "state_bands": seen_band_count(args.state_dir),
        }
    out, clusters = fuzzy_dedup(ds, args.signature)
    out.write_parquet(args.output)
    if isinstance(clusters, dict):
        n_clusters = len(set(clusters.values()))
    else:  # distributed path returns the labels Dataset
        import pyarrow as pa

        from .dedupe.components import _to_signed

        # distinct-count without driver state (signed bijection: Ray's
        # hash shuffle pickles uint64 keys above int64-max)
        n_clusters = (
            clusters.map_batches(
                lambda t: pa.table(
                    {"cluster_id": _to_signed(t["cluster_id"])}
                ),
                batch_format="pyarrow",
            )
            .groupby("cluster_id")
            .count()
            .count()
        )
    result = {
        "rows": out.count(),
        "clusters": n_clusters,
        "output": args.output,
    }
    if args.clusters_output:
        os.makedirs(args.clusters_output, exist_ok=True)
        if isinstance(clusters, dict):
            pq.write_table(
                clusters_table(clusters),
                os.path.join(args.clusters_output, "clusters.parquet"),
            )
        else:
            # distributed-path labels: stream straight to parquet — at
            # the scale that picked this path, collecting the label set
            # to the driver (clusters_table) defeats its purpose
            clusters.write_parquet(args.clusters_output)
        result["clusters_output"] = args.clusters_output
        if getattr(args, "thresholds", None):
            from .dedupe.lsh import write_cluster_outputs

            id_col = (
                "doc_id" if "doc_id" in ds.schema().names else "id_int"
            )
            result["threshold_outputs"] = write_cluster_outputs(
                ds,
                args.clusters_output,
                thresholds=args.thresholds,
                id_column=id_col,
            )
    return result


def cmd_dedup_lines(args) -> dict:
    from .dedupe.lines import line_dedup

    ds = _read_input(args.input, args.max_docs, False)
    _require_columns(ds, [args.text_col, args.id_col], "dedup-lines needs --text-col (and --id-col for the join delivery / incremental mode)")
    distributed = (
        None if args.delivery == "auto" else args.delivery == "join"
    )
    # '\n' / '\n\n' etc. typed literally on the shell line
    sep = args.sep.encode().decode("unicode_escape")
    if args.state_dir:
        from .state.incremental import (
            commit_run_line_counts,
            compact_line_state,
            incremental_line_dedup,
            seen_line_count,
        )

        out, run_id, run_counts = incremental_line_dedup(
            ds,
            args.state_dir,
            text_col=args.text_col,
            id_col=args.id_col,
            min_count=args.min_count,
            run_id=args.run_id,
            distributed=distributed,
            sep=sep,
        )
        # write first; state commit uses the independent run_counts
        # partials, and the report stats come from a 1-column re-read
        import pyarrow as pa

        written = _write_then_reread(
            out, args.output, ["n_lines_removed"],
            empty_types={"n_lines_removed": pa.int64()},
        )
        commit_run_line_counts(run_counts, args.state_dir, run_id)
        compact_line_state(args.state_dir)
        return {
            "rows": written.count(),
            "lines_removed": int(written.sum("n_lines_removed") or 0),
            "output": args.output,
            "run_id": run_id,
            "state_lines": seen_line_count(args.state_dir),
        }
    out = line_dedup(
        ds,
        text_col=args.text_col,
        id_col=args.id_col,
        min_count=args.min_count,
        distributed=distributed,
        sep=sep,
    )
    import pyarrow as pa

    written = _write_then_reread(
        out, args.output, ["n_lines_removed"],
        empty_types={"n_lines_removed": pa.int64()},
    )
    return {
        "rows": written.count(),
        "lines_removed": int(written.sum("n_lines_removed") or 0),
        "output": args.output,
    }


def cmd_dedup_spans(args) -> dict:
    from .dedupe.spans import substring_dedup

    ds = _read_input(args.input, args.max_docs, False)
    _require_columns(ds, [args.text_col, args.id_col], "dedup-spans needs --text-col (and --id-col for the join delivery / incremental mode)")
    distributed = (
        None if args.delivery == "auto" else args.delivery == "join"
    )
    if args.state_dir:
        from .state.incremental import (
            commit_run_fingerprint_counts,
            compact_fingerprint_state,
            incremental_substring_dedup,
            seen_fingerprint_count,
        )

        out, run_id, run_counts = incremental_substring_dedup(
            ds,
            args.state_dir,
            text_col=args.text_col,
            id_col=args.id_col,
            k=args.k,
            winnow_w=args.winnow_w,
            mode=args.mode,
            run_id=args.run_id,
            distributed=distributed,
        )
        import pyarrow as pa

        written = _write_then_reread(
            out, args.output, ["n_dup_spans"],
            empty_types={"n_dup_spans": pa.int64()},
        )
        commit_run_fingerprint_counts(
            run_counts, args.state_dir, run_id,
            k=args.k, winnow_w=args.winnow_w,
        )
        compact_fingerprint_state(
            args.state_dir, k=args.k, winnow_w=args.winnow_w
        )
        return {
            "rows": written.count(),
            "dup_spans_total": int(written.sum("n_dup_spans") or 0),
            "output": args.output,
            "run_id": run_id,
            "state_fingerprints": seen_fingerprint_count(
                args.state_dir, k=args.k, winnow_w=args.winnow_w
            ),
        }
    out = substring_dedup(
        ds,
        text_col=args.text_col,
        id_col=args.id_col,
        k=args.k,
        winnow_w=args.winnow_w,
        mode=args.mode,
        distributed=distributed,
    )
    import pyarrow as pa

    written = _write_then_reread(
        out, args.output, ["n_dup_spans", "dup_char_frac"],
        empty_types={
            "n_dup_spans": pa.int64(),
            "dup_char_frac": pa.float64(),
        },
    )
    return {
        "rows": written.count(),
        "dup_spans_total": int(written.sum("n_dup_spans") or 0),
        "dup_char_frac_mean": round(
            float(written.mean("dup_char_frac") or 0.0), 6
        ),
        "output": args.output,
    }


def cmd_decontaminate(args) -> dict:
    import ray.data as rd

    from .dedupe.decontaminate import decontaminate

    ds = _read_input(args.input, args.max_docs, False)
    bench = rd.read_parquet(args.benchmark)
    out = decontaminate(
        ds,
        bench,
        text_col=args.text_col,
        n=args.ngram,
        mode=args.mode,
    )
    cols = (
        ["contaminated"] if args.mode == "annotate" else [args.text_col]
    )
    import pyarrow as pa

    written = _write_then_reread(
        out, args.output, cols,
        empty_types={"contaminated": pa.int64()},
    )
    result = {"rows": written.count(), "output": args.output}
    if args.mode == "annotate":
        result["contaminated"] = int(written.sum("contaminated") or 0)
    return result


def cmd_code_signals(args) -> dict:
    """Source-code quality signals + RPv1-GitHub/StarCoder rules
    (functions/code_signals.py) over a (lang, content) parquet corpus."""
    from functools import partial

    from .functions.code_signals import code_signal_batch

    kernel = partial(
        code_signal_batch,
        content_column=args.content_column,
        lang_column=args.lang_column,
    )

    def _stage(ds):
        ds = ds.map_batches(kernel, batch_format="pyarrow")
        if args.filter:
            ds = ds.filter(expr="code_keep == True")
        if args.signals_only:
            ds = ds.drop_columns([args.content_column])
        return ds

    if args.resume:
        # partition-per-input-shard resumable mode (manifest commits)
        import glob

        import ray.data as rd

        from .state.manifest import run_partitioned

        files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
        if files:
            committed = run_partitioned(
                files,
                args.output,
                lambda p: _stage(rd.read_parquet(p)),
            )
            return {"partitions": len(committed), "output": args.output}
    ds = _stage(_read_input(args.input, args.max_docs, False))
    ds.write_parquet(args.output)
    return {"output": args.output}


def cmd_mix(args) -> dict:
    """Deterministic weighted source mixing (functions/mixing.py).
    Weights are NAME=FRACTION pairs, e.g. --weight github=1.0."""
    from .functions.mixing import weighted_sample

    weights = {}
    for spec in args.weights or []:
        name, _, frac = spec.partition("=")
        if not _:
            raise SystemExit(f"--weight needs NAME=FRACTION, got {spec!r}")
        try:
            weights[name] = float(frac)
        except ValueError:
            raise SystemExit(f"--weight {name}: {frac!r} is not a number")
    ds = _read_input(args.input, args.max_docs, False)
    out = weighted_sample(
        ds, weights, default_weight=args.default_weight,
        key_col=args.key_column, id_col=args.id_column, seed=args.seed,
    )
    out.write_parquet(args.output)
    return {"output": args.output}


def cmd_split(args) -> dict:
    """Leakage-safe grouped train/val/test split (functions/splits.py
    grouped_split). Fractions are NAME=FRACTION pairs in order, e.g.
    --fraction train=0.9 --fraction val=0.1; they must sum to 1."""
    from .functions.splits import grouped_split

    fractions = {}
    for spec in args.fractions or []:
        name, sep, frac = spec.partition("=")
        if not sep:
            raise SystemExit(
                f"--fraction needs NAME=FRACTION, got {spec!r}"
            )
        try:
            fractions[name] = float(frac)
        except ValueError:
            raise SystemExit(
                f"--fraction {name}: {frac!r} is not a number"
            )
    ds = _read_input(args.input, args.max_docs, False)
    _require_columns(
        ds, [args.group_column],
        "split hashes the GROUP key — point --group-column at the "
        "repo/domain/source column",
    )
    try:
        out = grouped_split(
            ds, fractions, group_col=args.group_column,
            seed=args.seed, out_col=args.split_column,
        )
    except ValueError as e:
        raise SystemExit(str(e))
    if args.only:
        if args.only not in fractions:
            raise SystemExit(
                f"--only {args.only!r} is not a declared split "
                f"(have {sorted(fractions)})"
            )
        import pyarrow.compute as pc

        col = args.split_column
        want = args.only
        out = out.map_batches(
            lambda t: t.filter(pc.equal(t[col], want)),
            batch_format="pyarrow",
        )
    out.write_parquet(args.output)
    return {"output": args.output}


def cmd_domain_cap(args) -> dict:
    """Per-domain quota (functions/splits.py cap_per_group): keep at
    most --cap rows per group, deterministically sampled by
    md5(seed:id)."""
    from .functions.splits import cap_per_group

    ds = _read_input(args.input, args.max_docs, False)
    # validate on the READ schema (metadata-only), then derive the
    # standard repo/path@commit id for raw corpora if needed
    need = [args.group_column]
    if args.id_column != "doc_id":
        need.append(args.id_column)
    _require_columns(
        ds, need,
        "domain-cap needs the group key (--group-column) and a row id "
        "(--id-column) for the deterministic within-group sample",
    )
    ds = _ensure_doc_ids(ds, args.id_column)
    if args.state_dir:
        # cross-run quota: previously-banked kept counts charge
        # against each group's cap (state/incremental.py)
        from .functions.splits import group_kept_counts
        from .state.incremental import (
            commit_run_quota_counts,
            incremental_domain_cap,
            seen_quota_rows,
        )

        try:
            out, run_id = incremental_domain_cap(
                ds, args.state_dir, args.cap,
                group_col=args.group_column, id_col=args.id_column,
                seed=args.seed, run_id=args.run_id,
                delivery=args.delivery,
            )
        except ValueError as e:
            raise SystemExit(str(e))
        # write data THEN commit state — the committed counts come
        # from the written files, so they equal the output exactly
        written = _write_then_reread(
            out, args.output, [args.group_column]
        )
        commit_run_quota_counts(
            group_kept_counts(written, args.group_column),
            args.state_dir, run_id, group_col=args.group_column,
        )
        return {
            "rows": written.count(),
            "output": args.output,
            "run_id": run_id,
            "state_rows": seen_quota_rows(
                args.state_dir, group_col=args.group_column
            ),
        }
    try:
        out = cap_per_group(
            ds, args.cap, group_col=args.group_column,
            id_col=args.id_column, seed=args.seed,
            delivery=args.delivery,
        )
    except ValueError as e:
        raise SystemExit(str(e))
    out.write_parquet(args.output)
    return {"output": args.output}


def _whole_tokens(v: str) -> int:
    """Token budgets in plain or scientific notation (2e11 is how
    real mixes are written); fractional values are rejected."""
    import math

    try:
        return int(v)
    except ValueError:
        f = float(v)  # ValueError propagates for non-numbers
        if not math.isfinite(f):
            # int(inf/nan) raises OverflowError, which would escape
            # both argparse's ValueError handling and the
            # --group-budget except clause as a raw traceback
            raise ValueError(f"{v!r} is not a finite token count")
        i = int(f)
        if f != i:
            raise ValueError(f"{v!r} is not a whole number")
        return i


def cmd_token_budget(args) -> dict:
    """Token-budget sampling (functions/splits.py
    token_budget_sample): per group, keep documents in deterministic
    hash order until the token budget is met."""
    from .functions.splits import token_budget_sample

    group_budgets = {}
    for spec in args.group_budgets or []:
        name, sep, val = spec.partition("=")
        if not sep:
            raise SystemExit(
                f"--group-budget needs NAME=TOKENS, got {spec!r}"
            )
        try:
            group_budgets[name] = _whole_tokens(val)
        except ValueError:
            raise SystemExit(
                f"--group-budget {name}: {val!r} is not a whole "
                "token count (plain or scientific: 1000, 2e11)"
            )
    if args.budget is None and not group_budgets:
        raise SystemExit(
            "token-budget needs --budget N (all groups) and/or "
            "--group-budget NAME=N (per-group; others keep all)"
        )
    ds = _read_input(args.input, args.max_docs, False)
    need = [args.group_column]
    if args.id_column != "doc_id":
        need.append(args.id_column)
    # n_chars / n_lines are DERIVED by the corpus id assignment
    # (stages/ids.py metadata pass-through) — don't reject a raw
    # corpus for lacking them, but ONLY when that assignment will
    # actually run (default id column, no doc_id yet, corpus shape);
    # otherwise the guard must fire here, not as a KeyError in a task
    schema = ds.schema()
    schema_names = list(schema.names) if schema is not None else []
    will_assign_ids = (
        args.id_column == "doc_id"
        and "doc_id" not in schema_names
        and {"repo", "path", "commit", "content"}.issubset(schema_names)
    )
    if args.token_column in schema_names or not (
        args.token_column in ("n_chars", "n_lines") and will_assign_ids
    ):
        need.append(args.token_column)
    _require_columns(
        ds, need,
        "token-budget needs the group key (--group-column), a token/"
        "char count column (--token-column) and a row id "
        "(--id-column)",
    )
    ds = _ensure_doc_ids(ds, args.id_column)
    budget_arg = group_budgets if group_budgets else int(args.budget)
    default_arg = args.budget if group_budgets else None
    if args.state_dir:
        # cross-run budget: banked kept-token sums charge against
        # each group's budget (state/incremental.py)
        from .functions.splits import group_kept_tokens
        from .state.incremental import (
            commit_run_token_budget,
            incremental_token_budget,
            seen_budget_rows,
        )

        try:
            out, run_id = incremental_token_budget(
                ds, args.state_dir, budget_arg,
                token_col=args.token_column,
                group_col=args.group_column, id_col=args.id_column,
                seed=args.seed, run_id=args.run_id,
                default_budget=default_arg, delivery=args.delivery,
            )
        except ValueError as e:
            raise SystemExit(str(e))
        # write data THEN commit state — banked sums come from the
        # written files, so state equals the output exactly
        written = _write_then_reread(
            out, args.output,
            [args.group_column, args.token_column],
        )
        commit_run_token_budget(
            group_kept_tokens(
                written, args.group_column, args.token_column
            ),
            args.state_dir, run_id, token_col=args.token_column,
            group_col=args.group_column,
        )
        return {
            "rows": written.count(),
            "output": args.output,
            "run_id": run_id,
            "state_rows": seen_budget_rows(
                args.state_dir, token_col=args.token_column,
                group_col=args.group_column,
            ),
        }
    try:
        out = token_budget_sample(
            ds,
            budget_arg,
            token_col=args.token_column,
            group_col=args.group_column,
            id_col=args.id_column,
            seed=args.seed,
            default_budget=default_arg,
            delivery=args.delivery,
        )
    except ValueError as e:
        raise SystemExit(str(e))
    out.write_parquet(args.output)
    return {"output": args.output}


def cmd_pack(args) -> dict:
    """Sequence packing (functions/packing.py)."""
    from .functions.packing import pack_sequences

    ds = _read_input(args.input, args.max_docs, False)
    # packing requires unique ids for its sorted-by-id
    # reproducibility contract
    ds = _ensure_doc_ids(ds, args.id_column)
    if getattr(args, "summaries_only", False):
        if args.emit_tokens:
            raise SystemExit(
                "--summaries-only and --emit-tokens are mutually "
                "exclusive: emitting token windows requires the "
                "co-locating text exchange"
            )
        # two-phase offsets exchange: identical summary rows, the
        # text never enters a shuffle (functions/packing.py
        # pack_summaries)
        from .functions.packing import pack_summaries

        if getattr(args, "corpus_path", None):
            if args.max_docs:
                raise SystemExit(
                    "--corpus-path requires the input read unmodified "
                    "(same rows as the files) — drop --max-docs"
                )
            _check_same_parquet(args.input, args.corpus_path)
        try:
            out = pack_summaries(
                ds, seq_len=args.seq_len, n_buckets=args.n_buckets,
                text_col=args.text_column, id_col=args.id_column,
                delivery=args.seg_delivery,
                spill_dir=args.rendezvous_dir,
                tokenizer=getattr(args, "tokenizer", None),
                corpus_path=getattr(args, "corpus_path", None),
            )
        except ValueError as e:
            raise SystemExit(str(e))
    else:
        if (
            args.seg_delivery != "auto"
            or args.rendezvous_dir
            or getattr(args, "corpus_path", None)
        ):
            raise SystemExit(
                "--seg-delivery/--rendezvous-dir/--corpus-path apply "
                "only to --summaries-only (the co-locating text "
                "exchange has no segment delivery step)"
            )
        out = pack_sequences(
            ds, seq_len=args.seq_len, n_buckets=args.n_buckets,
            text_col=args.text_column, id_col=args.id_column,
            emit_tokens=args.emit_tokens,
            tokenizer=getattr(args, "tokenizer", None),
        )
    out.write_parquet(args.output)
    return {"output": args.output}


def _check_same_parquet(input_path: str, corpus_path: str) -> None:
    """Refuse a ``--corpus-path`` that is not the ``--input`` data: the
    segjoin re-read takes each document's text from the corpus files
    by id, so a copy whose text differs at the same ids would silently
    give wrong windows. The two must be the same files (same real
    paths) or byte-identical ones (size, then sha256), paired in
    sorted order."""
    import hashlib

    import pyarrow.dataset as pads

    def files(path):
        if os.path.isfile(path):
            return [path]
        return sorted(pads.dataset(path, format="parquet").files)

    def sha256(path):
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        return h.digest()

    if os.path.realpath(input_path) == os.path.realpath(corpus_path):
        return
    ours, theirs = files(input_path), files(corpus_path)
    same = len(ours) == len(theirs) and all(
        os.path.realpath(a) == os.path.realpath(b)
        or (
            os.path.getsize(a) == os.path.getsize(b)
            and sha256(a) == sha256(b)
        )
        for a, b in zip(ours, theirs)
    )
    if not same:
        raise SystemExit(
            f"--corpus-path {corpus_path!r} is not the --input data "
            f"{input_path!r}: the segjoin re-read takes each window's "
            "text from the corpus files, so they must be the same "
            "files or byte-identical copies"
        )


def cmd_chunk(args) -> dict:
    """Document chunking (functions/chunking.py)."""
    from .functions.chunking import chunk_documents

    ds = _read_input(args.input, args.max_docs, False)
    # chunk identity is (doc_id, chunk_idx), so ids come first
    ds = _ensure_doc_ids(ds, args.id_column)
    out = chunk_documents(
        ds, chunk_size=args.chunk_size, overlap=args.overlap,
        unit=args.unit, text_col=args.text_column,
        id_col=args.id_column,
    )
    out.write_parquet(args.output)
    return {"output": args.output}


def cmd_vocab(args) -> dict:
    """Corpus token histogram (functions/vocab.py); with --state-dir,
    counts accumulate across committed runs (incremental vocab)."""
    from .functions.vocab import token_frequencies

    ds = _read_input(args.input, args.max_docs, False)
    if getattr(args, "heavy_min_count", None) is not None and (
        args.state_dir or getattr(args, "approx_top", None) is not None
    ):
        raise SystemExit(
            "--heavy-min-count is its own mode; combine with neither "
            "--state-dir nor --approx-top"
        )
    if args.state_dir and getattr(args, "approx_top", None) is not None:
        # incremental sketch mode: fixed-size (MG + CMS) state per
        # committed run — cross-corpus top-k without re-reading old
        # text and without vocabulary-sized state
        import ray.data as rd

        from .state.incremental import (
            commit_run_top_summary,
            incremental_top_tokens,
            seen_topk_runs,
        )

        if args.min_count != 1 or args.top_k is not None:
            raise SystemExit(
                "--min-count/--top-k configure the exact histogram; "
                "with --approx-top, K is the cut"
            )
        result, run_id, summary = incremental_top_tokens(
            ds, args.state_dir, text_col=args.text_column,
            k=args.approx_top, counters=args.approx_counters,
            lowercase=args.lowercase, run_id=args.run_id,
        )
        rd.from_arrow(result).write_parquet(args.output)
        commit_run_top_summary(  # data first, then state
            summary, args.state_dir, run_id,
            lowercase=args.lowercase, counters=args.approx_counters,
        )
        return {
            "output": args.output,
            "run_id": run_id,
            "rows": result.num_rows,
            "state_runs": seen_topk_runs(
                args.state_dir, lowercase=args.lowercase,
                counters=args.approx_counters,
            ),
        }
    if args.state_dir:
        from .state.incremental import (
            commit_run_token_counts,
            incremental_vocab,
            seen_vocab_rows,
        )

        totals, run_id, run_counts = incremental_vocab(
            ds, args.state_dir, text_col=args.text_column,
            run_id=args.run_id, lowercase=args.lowercase,
            min_count=args.min_count, top_k=args.top_k,
        )
        totals.write_parquet(args.output)  # data first, then state
        commit_run_token_counts(
            run_counts, args.state_dir, run_id, args.lowercase
        )
        return {
            "output": args.output,
            "run_id": run_id,
            "state_rows": seen_vocab_rows(
                args.state_dir, args.lowercase
            ),
        }
    if getattr(args, "approx_top", None) is not None:
        # sketch path: Misra-Gries candidates + Count-Min estimates —
        # top-k without the exact corpus histogram
        import ray.data as rd

        from .functions.sketches import approx_top_tokens

        if args.min_count != 1 or args.top_k is not None:
            raise SystemExit(
                "--min-count/--top-k configure the exact histogram; "
                "with --approx-top, K is the cut"
            )
        top = approx_top_tokens(
            ds, text_col=args.text_column, k=args.approx_top,
            counters=args.approx_counters, lowercase=args.lowercase,
        )
        rd.from_arrow(top).write_parquet(args.output)
        return {"output": args.output, "rows": top.num_rows}
    if getattr(args, "heavy_min_count", None) is not None:
        # exact heavy hitters: CMS prunes candidates, exact recount of
        # candidates only — GROUP BY ... HAVING without the histogram
        import ray.data as rd

        from .functions.sketches import exact_heavy_hitters

        if args.min_count != 1 or args.top_k is not None:
            raise SystemExit(
                "--min-count/--top-k configure the exact histogram; "
                "--heavy-min-count IS the threshold"
            )
        hh = exact_heavy_hitters(
            ds, text_col=args.text_column,
            threshold=args.heavy_min_count, lowercase=args.lowercase,
        )
        rd.from_arrow(hh).write_parquet(args.output)
        return {"output": args.output, "rows": hh.num_rows}
    out = token_frequencies(
        ds, text_col=args.text_column, min_count=args.min_count,
        top_k=args.top_k, lowercase=args.lowercase,
    )
    out.write_parquet(args.output)
    return {"output": args.output}


def cmd_train_bpe(args) -> dict:
    """Train a BPE tokenizer from the corpus and export a real
    tokenizer.json (functions/bpe_train.py) — loadable by
    `token-count --tokenizer` and any HF loader."""
    from .functions.bpe_train import train_bpe, write_tokenizer_json

    ds = _read_input(args.input, args.max_docs, False)
    spec = train_bpe(
        ds,
        text_col=args.text_column,
        vocab_size=args.vocab_size,
        min_frequency=args.min_frequency,
        pretokenizer=args.pretokenizer,
        lowercase=args.lowercase,
        words_top_k=args.words_top_k,
        special_tokens=tuple(args.special_token or ()),
    )
    path = write_tokenizer_json(spec, args.output)
    model = spec["model"]
    return {
        "output": path,
        "vocab_size": len(model["vocab"]),
        "merges": len(model["merges"]),
    }


def cmd_semdedup(args) -> dict:
    """SemDeDup semantic dedup (similarity/semdedup.py)."""
    import ray.data as rd

    from .similarity.semdedup import semdedup

    ds = rd.read_parquet(args.input)
    _require_columns(
        ds, [args.id_column, args.vec_column],
        "semdedup needs the embedding column (--vec-column) and a row "
        "id (--id-column)",
    )
    try:
        kept, dropped = semdedup(
            ds, dim=0, n_centroids=args.n_centroids,
            threshold=args.threshold, keep=args.keep,
            vec_col=args.vec_column, id_col=args.id_column,
        )
        kept.write_parquet(args.output)
    except ValueError as e:
        # null/ragged vectors and empty inputs surface as named
        # errors from the library — map them to CLI errors
        raise SystemExit(str(e))
    return {"output": args.output, "dropped": int(len(dropped))}


def cmd_embedding_pairs(args) -> dict:
    """Embedding near-duplicate PAIRS (similarity/knn.py
    embedding_near_dup_pairs): LSH-bucketed cosine, streamed to
    parquet as an (a, b, cos) Dataset — never a driver list, so a
    dup-heavy corpus's corpus-scale pair set flows straight to the
    sink."""
    import ray.data as rd

    from .similarity.knn import embedding_near_dup_pairs

    ds = rd.read_parquet(args.input)
    _require_columns(
        ds, [args.id_column, args.vec_column],
        "embedding-pairs needs the embedding column (--vec-column) "
        "and a row id (--id-column)",
    )
    first = ds.take(1)
    if not first:
        raise SystemExit("embedding-pairs: input is empty")
    vec = first[0][args.vec_column]
    if vec is None or len(vec) == 0:
        raise SystemExit(
            "embedding-pairs: first embedding is null/empty — drop "
            "null vectors first (the kernel raises on them by design)"
        )
    try:
        pairs = embedding_near_dup_pairs(
            ds, dim=len(vec), threshold=args.threshold,
            bits=args.bits, seed=args.seed,
            vec_col=args.vec_column, id_col=args.id_column,
        )
        pairs.write_parquet(args.output)
    except ValueError as e:
        raise SystemExit(str(e))
    return {"output": args.output, "pairs": int(pairs.count())}


def cmd_profile(args) -> dict:
    """Single-pass column profiling (functions/profile.py): one row
    per column with counts, nulls, HLL distinct estimate, min/max,
    exact integer means and string lengths."""
    import ray.data as rd

    from .functions.profile import profile_table

    ds = rd.read_parquet(args.input)
    try:
        out = profile_table(
            ds,
            columns=args.columns.split(",") if args.columns else None,
            hll_p=args.hll_p,
        )
    except ValueError as e:
        raise SystemExit(str(e))
    if args.output:
        import pyarrow.parquet as pq

        pq.write_table(out, args.output)
    return {
        "columns": out.num_rows,
        "rows": int(out.column("n")[0].as_py()) if out.num_rows else 0,
        "output": args.output,
    }


def cmd_token_count(args) -> dict:
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from .functions.tokens import bpe_like_token_count, whitespace_token_count

    ds = rd.read_parquet(args.input, columns=[args.text_column])
    tokenizer = getattr(args, "tokenizer", None)

    def count_batch(t: pa.Table) -> pa.Table:
        texts = t.column(args.text_column).to_pylist()
        return pa.table(
            {
                "ws": pa.array(
                    [whitespace_token_count(x or "") for x in texts],
                    pa.int64(),
                ),
                "bpe": pa.array(
                    [bpe_like_token_count(x or "") for x in texts], pa.int64()
                ),
            }
        )

    counted = ds.map_batches(count_batch, batch_format="pyarrow")
    aggs = [
        Count(alias_name="n_docs"),
        Sum("ws", alias_name="ws_tokens"),
        Sum("bpe", alias_name="bpe_tokens"),
    ]
    if tokenizer:
        # real-tokenizer counts (reference token_count.py role): the
        # tokenizer loads ONCE per actor in __init__; per batch it
        # encodes every doc (tokenizers/transformers when installed,
        # the pure tokenizer.json reader otherwise)
        class RealTokenCount:
            def __init__(self, path: str, text_column: str):
                from .functions.model_loading import load_token_counter

                self.count = load_token_counter(path)
                self.text_column = text_column

            def __call__(self, t: pa.Table) -> pa.Table:
                out = count_batch(t)
                texts = t.column(self.text_column).to_pylist()
                return out.append_column(
                    "real",
                    pa.array(
                        [self.count(x or "") for x in texts], pa.int64()
                    ),
                )

        counted = ds.map_batches(
            RealTokenCount,
            fn_constructor_kwargs=dict(
                path=tokenizer, text_column=args.text_column
            ),
            batch_format="pyarrow",
            concurrency=(1, 8),
            num_cpus=1,
        )
        aggs.append(Sum("real", alias_name="real_tokens"))
    agg = counted.aggregate(*aggs)
    return dict(agg)


def cmd_prep_artifacts(args) -> dict:
    from .pipelines.artifacts import (
        build_classifier_artifact,
        build_dsir_artifacts,
    )

    ds = _read_input(args.input, args.max_docs, False)
    meta = build_dsir_artifacts(
        ds,
        args.output,
        sample_fraction=args.sample_fraction,
        text_column=args.text_column,
    )
    clf_meta = build_classifier_artifact(
        ds,
        args.output,
        sample_fraction=args.sample_fraction,
        text_column=args.text_column,
    )
    from .pipelines.artifacts import build_ppl_thresholds

    ppl_meta = build_ppl_thresholds(
        ds,
        args.output,
        sample_fraction=args.sample_fraction,
        text_column=args.text_column,
    )
    ft_meta = {}
    if getattr(args, "fasttext", False):
        from .pipelines.artifacts import build_fasttext_classifier

        ft_meta = build_fasttext_classifier(
            ds,
            args.output,
            samples_per_class=args.samples_per_class,
            text_column=args.text_column,
        )
        ft_meta = {"fasttext_" + k: v for k, v in ft_meta.items()}
    return {
        "artifacts": args.output,
        **ft_meta,
        **meta,
        "classifier": clf_meta,
        "ppl": ppl_meta,
    }


def cmd_query(args) -> dict:
    import pandas as pd
    import pyarrow as pa

    from .pipelines.analysis import ORACLE_SQL, QUERIES
    from .pipelines.extras import EXTRA_QUERIES

    registry = {**QUERIES, **EXTRA_QUERIES}
    if args.list or not args.name:
        return {
            "queries": sorted(registry),
            "with_sql_oracle": sorted(ORACLE_SQL),
        }
    if args.name not in registry:
        raise SystemExit(f"unknown query {args.name!r}; try --list")
    res = registry[args.name](args.sf_dir)
    if isinstance(res, pa.Table):
        df = res.to_pandas()
    elif isinstance(res, pd.DataFrame):
        df = res
    else:
        df = res.to_pandas()
    return {
        "query": args.name,
        "rows": len(df),
        "head": df.head(args.head).to_dict(orient="records"),
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="redpajama_data_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("quality", help="full quality pipeline")
    q.add_argument("--input", required=True)
    q.add_argument("--output", required=True)
    q.add_argument("--max-docs", type=int, default=None)
    q.add_argument("--shuffle-files", action="store_true")
    q.add_argument(
        "--keep-pattern",
        action="append",
        dest="keep_patterns",
        default=None,
        metavar="REGEX",
        help="keep only input files whose name matches any REGEX "
        "(re.match; repeatable) — reference filename_keep_patterns "
        "parity (pipeline.py:253-284)",
    )
    q.add_argument("--resume", action="store_true")
    q.add_argument(
        "--resume-workers", type=int, default=2,
        help="shards processed concurrently in --resume mode "
        "(per-shard commit stays atomic)",
    )
    q.add_argument(
        "--langid-model", default=None, metavar="PATH",
        help="language-ID artifact: fastText .bin (pure-numpy reader "
        "when the package is absent) or saved .npz profiles; default "
        "= deterministic stand-in",
    )
    q.add_argument(
        "--ppl-model", default=None, metavar="PATH",
        help="perplexity artifact: .arpa (dependency-free), KenLM "
        "binary (needs kenlm), or saved .npz char-LM",
    )
    q.add_argument(
        "--classifier-model", default=None, metavar="PATH",
        help="quality-classifier artifact: fastText .bin or saved "
        ".npy log-odds weights",
    )
    q.add_argument(
        "--minhash-shingle-hash", default="sha1",
        choices=("sha1", "poly64"), dest="minhash_shingle_hash",
        help="shingle hash for minhash signatures: sha1 = reference "
        "byte-parity (default); poly64 = documented ~12x-faster "
        "vectorized deviation (signatures NOT comparable across "
        "modes; the output's MINHASH_FORMAT sidecar records the "
        "choice and dedup-fuzzy --state-dir enforces it)",
    )
    q.set_defaults(fn=cmd_quality)

    rrd = sub.add_parser(
        "redecide",
        help="re-apply the keep/drop rule layer with new thresholds "
        "over an annotated dir (signals reused, models never re-run)",
    )
    rrd.add_argument(
        "--input", required=True, help="quality's annotated/ output dir"
    )
    rrd.add_argument("--output", required=True)
    rrd.add_argument(
        "--rules-json", default=None, metavar="FILE",
        help="JSON object of RuleConfig fields (individual flags below "
        "override it); unknown fields are rejected",
    )
    # one flag per RuleConfig threshold, generated from the dataclass
    # so the CLI can never drift from the rule layer
    import dataclasses as _dc

    from .functions.rules import RuleConfig as _RC

    for _f in _dc.fields(_RC):
        _flag = "--" + _f.name.replace("_", "-")
        if _f.name == "drop_bucket":
            rrd.add_argument(
                _flag, default=None, metavar="BUCKET",
                help="perplexity bucket dropped (default tail)",
            )
        elif _f.name == "max_pii_total":
            rrd.add_argument(
                _flag, type=int, default=None, metavar="N",
                help="drop docs with more than N PII hits "
                "(default: scrub but keep)",
            )
        else:
            rrd.add_argument(
                _flag, type=type(_f.default), default=None,
                metavar="X",
                help=f"override RuleConfig.{_f.name} "
                f"(default {_f.default})",
            )
    rrd.set_defaults(fn=cmd_redecide)

    de = sub.add_parser("dedup-exact", help="exact dedup by content hash")
    de.add_argument("--input", required=True)
    de.add_argument("--output", required=True)
    de.add_argument("--key", default="content_sha256")
    de.add_argument("--order-col", default="doc_id")
    de.add_argument(
        "--state-dir", default=None,
        help="incremental mode (reference bloomfilter.py role): also "
        "drop keys seen by previously committed runs, then commit this "
        "run's keys to the state dir",
    )
    de.add_argument("--run-id", default=None)
    de.add_argument(
        "--approximate", action="store_true",
        help="probabilistic cross-run membership via a Bloom filter "
        "(reference parity; may drop ~1%% of non-duplicates)",
    )
    de.set_defaults(fn=cmd_dedup_exact)

    df = sub.add_parser("dedup-fuzzy", help="minhash-LSH fuzzy dedup")
    df.add_argument("--input", required=True)
    df.add_argument("--output", required=True)
    df.add_argument("--signature", default="signature_sim0.8")
    df.add_argument("--clusters-output", default=None)
    df.add_argument(
        "--state-dir", default=None,
        help="incremental mode: also drop docs sharing an LSH band "
        "with previously committed runs, then commit this run's bands",
    )
    df.add_argument("--run-id", default=None)
    df.add_argument(
        "--thresholds",
        nargs="*",
        type=float,
        default=None,
        help="write per-threshold (id, id_int, cluster_id, shard_id) "
        "cluster parquet dirs under --clusters-output "
        "(run_lsh.py:340-372 parity); default: only --signature's "
        "threshold",
    )
    df.set_defaults(fn=cmd_dedup_fuzzy)

    dl = sub.add_parser(
        "dedup-lines",
        help="ccnet-style frequent-line removal (corpus-wide line "
        "counts, then drop lines seen >= min-count times)",
    )
    dl.add_argument("--input", required=True)
    dl.add_argument("--output", required=True)
    dl.add_argument("--text-col", default="text")
    dl.add_argument("--id-col", default="doc_id")
    dl.add_argument("--min-count", type=int, default=2)
    dl.add_argument(
        "--sep", default="\\n",
        help=r"unit separator (escapes decoded: '\n' lines — the "
        r"default — '\n\n' ccnet-style paragraphs)",
    )
    dl.add_argument("--max-docs", type=int, default=None)
    dl.add_argument(
        "--delivery",
        choices=["auto", "broadcast", "join"],
        default="auto",
        help="frequent-set delivery: broadcast searchsorted mask vs "
        "exploded-positions join (auto switches on the measured "
        "frequent-line count)",
    )
    dl.add_argument(
        "--state-dir", default=None,
        help="incremental mode: count lines against previously "
        "committed snapshots too (a line split across runs still "
        "reaches min-count), then commit this run's counts",
    )
    dl.add_argument("--run-id", default=None)
    dl.set_defaults(fn=cmd_dedup_lines)

    dsp = sub.add_parser(
        "dedup-spans",
        help="ExactSubstr-style duplicated-substring spans: mark or "
        "excise character spans covered by a k-gram repeated anywhere "
        "in the corpus (Lee et al. 2022 semantics via winnowed "
        "rolling-hash fingerprints)",
    )
    dsp.add_argument("--input", required=True)
    dsp.add_argument("--output", required=True)
    dsp.add_argument("--text-col", default="text")
    dsp.add_argument("--id-col", default="doc_id")
    dsp.add_argument(
        "--k", type=int, default=50,
        help="fingerprint k-gram length in characters",
    )
    dsp.add_argument(
        "--winnow-w", type=int, default=8,
        help="winnowing window (0 = exact detection at length >= k; "
        "w > 0 guarantees detection at length >= k + w - 1 while "
        "counting ~2/(w+1) of positions)",
    )
    dsp.add_argument("--mode", choices=["annotate", "excise"],
                     default="annotate")
    dsp.add_argument("--max-docs", type=int, default=None)
    dsp.add_argument(
        "--delivery",
        choices=["auto", "broadcast", "join"],
        default="auto",
        help="duplicated-fingerprint delivery: broadcast searchsorted "
        "mask vs exploded-positions join (auto switches on the "
        "measured duplicated-fingerprint count)",
    )
    dsp.add_argument(
        "--state-dir", default=None,
        help="incremental mode: fingerprint counts accumulate against "
        "previously committed snapshots (a substring split across "
        "runs still reaches min-count), then this run's counts commit",
    )
    dsp.add_argument("--run-id", default=None)
    dsp.set_defaults(fn=cmd_dedup_spans)

    dc = sub.add_parser(
        "decontaminate",
        help="drop or flag docs sharing a token n-gram with a "
        "benchmark parquet (GPT-3-style eval decontamination)",
    )
    dc.add_argument("--input", required=True)
    dc.add_argument("--output", required=True)
    dc.add_argument(
        "--benchmark", required=True,
        help="parquet of benchmark texts (same --text-col)",
    )
    dc.add_argument("--text-col", default="text")
    dc.add_argument("--ngram", type=int, default=13)
    dc.add_argument("--mode", choices=["annotate", "filter"],
                    default="filter")
    dc.add_argument("--max-docs", type=int, default=None)
    dc.set_defaults(fn=cmd_decontaminate)

    cs = sub.add_parser(
        "code-signals",
        help="code quality signals + RPv1-GitHub/StarCoder keep rules",
    )
    cs.add_argument("--input", required=True)
    cs.add_argument("--output", required=True)
    cs.add_argument("--content-column", default="content")
    cs.add_argument("--lang-column", default="lang")
    cs.add_argument("--max-docs", type=int, default=None)
    cs.add_argument(
        "--filter", action="store_true",
        help="emit only rows passing the code rule cascade",
    )
    cs.add_argument(
        "--signals-only", action="store_true",
        help="drop the content column from the output",
    )
    cs.add_argument(
        "--resume", action="store_true",
        help="partition-per-input-shard manifest mode: rerun skips "
        "committed partitions",
    )
    cs.set_defaults(fn=cmd_code_signals)

    mx = sub.add_parser(
        "mix", help="deterministic weighted source mixing"
    )
    mx.add_argument("--input", required=True)
    mx.add_argument("--output", required=True)
    mx.add_argument(
        "--weight", action="append", dest="weights", default=None,
        metavar="NAME=FRACTION",
    )
    mx.add_argument("--default-weight", type=float, default=0.0)
    mx.add_argument("--key-column", default="source")
    mx.add_argument("--id-column", default="doc_id")
    mx.add_argument("--seed", type=int, default=42)
    mx.add_argument("--max-docs", type=int, default=None)
    mx.set_defaults(fn=cmd_mix)

    sp = sub.add_parser(
        "split", help="leakage-safe grouped train/val/test split"
    )
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument(
        "--fraction", action="append", dest="fractions", default=None,
        metavar="NAME=FRACTION",
        help="split fractions in order; must sum to 1",
    )
    sp.add_argument("--group-column", default="source")
    sp.add_argument("--split-column", default="split")
    sp.add_argument(
        "--only", default=None,
        help="write only this split instead of all rows + split column",
    )
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--max-docs", type=int, default=None)
    sp.set_defaults(fn=cmd_split)

    dcap = sub.add_parser(
        "domain-cap", help="per-group quota (at most N rows per domain)"
    )
    dcap.add_argument("--input", required=True)
    dcap.add_argument("--output", required=True)
    dcap.add_argument("--cap", type=int, required=True)
    dcap.add_argument("--group-column", default="source")
    dcap.add_argument("--id-column", default="doc_id")
    dcap.add_argument("--seed", type=int, default=42)
    dcap.add_argument("--max-docs", type=int, default=None)
    dcap.add_argument(
        "--state-dir", default=None,
        help="cross-run quota state: previously-kept counts charge "
        "against each group's cap",
    )
    dcap.add_argument("--run-id", default=None)
    dcap.add_argument(
        "--delivery", choices=("auto", "broadcast", "join"),
        default="auto",
        help="threshold delivery: broadcast below the bound, key "
        "join above it (auto), or force a path",
    )
    dcap.set_defaults(fn=cmd_domain_cap)

    tbud = sub.add_parser(
        "token-budget",
        help="per-group token-budget sampling (keep docs until the "
        "budget is met)",
    )
    tbud.add_argument("--input", required=True)
    tbud.add_argument("--output", required=True)
    tbud.add_argument(
        "--budget", type=_whole_tokens, default=None,
        help="token budget applied to every group (default for "
        "--group-budget groups when both are given)",
    )
    tbud.add_argument(
        "--group-budget", action="append", dest="group_budgets",
        default=None, metavar="NAME=TOKENS",
        help="per-group budget; groups without one keep all rows "
        "unless --budget is also given",
    )
    tbud.add_argument("--token-column", default="n_chars")
    tbud.add_argument("--group-column", default="source")
    tbud.add_argument("--id-column", default="doc_id")
    tbud.add_argument("--seed", type=int, default=42)
    tbud.add_argument("--max-docs", type=int, default=None)
    tbud.add_argument(
        "--state-dir", default=None,
        help="cross-run budget state: banked kept-token sums charge "
        "against each group's budget",
    )
    tbud.add_argument("--run-id", default=None)
    tbud.add_argument(
        "--delivery", choices=("auto", "broadcast", "join"),
        default="auto",
        help="boundary delivery: broadcast below the bound, key "
        "join above it (auto), or force a path",
    )
    tbud.set_defaults(fn=cmd_token_budget)

    pk = sub.add_parser(
        "pack", help="pack docs into fixed-length token windows"
    )
    pk.add_argument("--input", required=True)
    pk.add_argument("--output", required=True)
    pk.add_argument("--seq-len", type=int, default=2048)
    pk.add_argument("--n-buckets", type=int, default=64)
    pk.add_argument("--text-column", default="content")
    pk.add_argument("--id-column", default="doc_id")
    pk.add_argument("--max-docs", type=int, default=None)
    pk.add_argument(
        "--emit-tokens", action="store_true",
        help="emit the packed token-hash sequences (training samples),"
        " not just the window summary",
    )
    pk.add_argument(
        "--tokenizer", default=None, metavar="PATH",
        help="real tokenizer artifact (e.g. train-bpe output): pack "
        "REAL token ids instead of the crc32 stand-in vocabulary; "
        'the vocab must contain "<|endofdoc|>" (train-bpe '
        "--special-token)",
    )
    pk.add_argument(
        "--summaries-only", action="store_true",
        help="two-phase offsets exchange: identical window summaries "
        "without shuffling the text (mutually exclusive with "
        "--emit-tokens)",
    )
    pk.add_argument(
        "--seg-delivery", choices=["auto", "broadcast", "segjoin"],
        default="auto",
        help="summaries-only segment delivery: broadcast the whole "
        "segment table (small corpora) or join per-block slices "
        "through a rendezvous dir (above the broadcast limit); auto "
        "switches on the measured segment count",
    )
    pk.add_argument(
        "--rendezvous-dir", default=None,
        help="segjoin rendezvous root (REQUIRED to be shared storage "
        "on a multi-node cluster — a node-local path raises a "
        "coverage error); each run writes and removes its own unique "
        "subdirectory, so the root is safely reusable; default: a "
        "local temp dir",
    )
    pk.add_argument(
        "--corpus-path", default=None,
        help="segjoin zero-pin mode: the input parquet directory "
        "itself, when its files already carry the id and text "
        "columns — blocks are re-read from storage instead of "
        "pinned in the object store (no corpus-sized footprint)",
    )
    pk.set_defaults(fn=cmd_pack)

    ck = sub.add_parser(
        "chunk", help="overlapping fixed-size document chunks"
    )
    ck.add_argument("--input", required=True)
    ck.add_argument("--output", required=True)
    ck.add_argument("--chunk-size", type=int, default=1000)
    ck.add_argument("--overlap", type=int, default=0)
    ck.add_argument("--unit", choices=["chars", "tokens"], default="chars")
    ck.add_argument("--text-column", default="content")
    ck.add_argument("--id-column", default="doc_id")
    ck.add_argument("--max-docs", type=int, default=None)
    ck.set_defaults(fn=cmd_chunk)

    vb = sub.add_parser("vocab", help="corpus token histogram")
    vb.add_argument("--input", required=True)
    vb.add_argument("--output", required=True)
    vb.add_argument("--text-column", default="content")
    vb.add_argument("--min-count", type=int, default=1)
    vb.add_argument("--top-k", type=int, default=None)
    vb.add_argument("--lowercase", action="store_true")
    vb.add_argument("--max-docs", type=int, default=None)
    vb.add_argument(
        "--state-dir", default=None,
        help="incremental mode: token counts accumulate across "
        "committed runs",
    )
    vb.add_argument("--run-id", default=None)
    vb.add_argument(
        "--approx-top", type=int, default=None, metavar="K",
        help="sketch mode: approximate top-K tokens (Misra-Gries "
        "candidates + Count-Min estimates) without the exact "
        "histogram — the path when distinct tokens stop fitting",
    )
    vb.add_argument("--approx-counters", type=int, default=4096)
    vb.add_argument(
        "--heavy-min-count", type=int, default=None, metavar="N",
        help="exact-heavy-hitter mode: tokens with exact corpus count "
        ">= N via CMS-pruned candidate recount — exact GROUP BY ... "
        "HAVING output without a vocabulary-sized shuffle",
    )
    vb.set_defaults(fn=cmd_vocab)

    tb = sub.add_parser(
        "train-bpe",
        help="train a BPE tokenizer from the corpus (exports a real "
        "tokenizer.json; the corpus-sized pass is only the word "
        "histogram)",
    )
    tb.add_argument("--input", required=True)
    tb.add_argument("--output", required=True, metavar="TOKENIZER_JSON")
    tb.add_argument("--text-column", default="content")
    tb.add_argument("--vocab-size", type=int, default=8192)
    tb.add_argument("--min-frequency", type=int, default=2)
    tb.add_argument(
        "--pretokenizer", choices=["bytelevel", "whitespace"],
        default="bytelevel",
        help="bytelevel seeds the full 256-byte alphabet (every text "
        "encodes with zero unknowns)",
    )
    tb.add_argument("--lowercase", action="store_true")
    tb.add_argument(
        "--words-top-k", type=int, default=1_000_000,
        help="bound on distinct pre-tokenized words reaching the "
        "driver-side merge learner (count desc, word asc cut) — the "
        "100-TB knob",
    )
    tb.add_argument(
        "--special-token", action="append", metavar="TOKEN",
        help="special token prepended to the vocab (repeatable)",
    )
    tb.add_argument("--max-docs", type=int, default=None)
    tb.set_defaults(fn=cmd_train_bpe)

    sd = sub.add_parser(
        "semdedup", help="SemDeDup embedding-space semantic dedup"
    )
    sd.add_argument("--input", required=True)
    sd.add_argument("--output", required=True)
    sd.add_argument("--n-centroids", type=int, default=64)
    sd.add_argument("--threshold", type=float, default=0.95)
    sd.add_argument(
        "--keep", choices=["centroid_far", "min_id"],
        default="centroid_far",
    )
    sd.add_argument("--vec-column", default="embedding")
    sd.add_argument("--id-column", default="vec_id")
    sd.set_defaults(fn=cmd_semdedup)

    ep = sub.add_parser(
        "embedding-pairs",
        help="embedding near-duplicate pairs (LSH-bucketed cosine, "
        "streamed to parquet)",
    )
    ep.add_argument("--input", required=True)
    ep.add_argument("--output", required=True)
    ep.add_argument("--threshold", type=float, default=0.95)
    ep.add_argument("--bits", type=int, default=10)
    ep.add_argument("--seed", type=int, default=42)
    ep.add_argument("--vec-column", default="embedding")
    ep.add_argument("--id-column", default="vec_id")
    ep.set_defaults(fn=cmd_embedding_pairs)

    pf = sub.add_parser(
        "profile",
        help="single-pass per-column statistics (counts, nulls, "
        "distinct estimate, min/max, means, string lengths)",
    )
    pf.add_argument("--input", required=True)
    pf.add_argument(
        "--output", default=None,
        help="optional parquet file for the profile table",
    )
    pf.add_argument(
        "--columns", default=None,
        help="comma-separated subset (default: every column)",
    )
    pf.add_argument("--hll-p", type=int, default=12)
    pf.set_defaults(fn=cmd_profile)

    tc = sub.add_parser("token-count", help="corpus token totals")
    tc.add_argument("--input", required=True)
    tc.add_argument("--text-column", default="content")
    tc.add_argument(
        "--tokenizer", default=None, metavar="PATH",
        help="real tokenizer artifact (tokenizer.json parses "
        "dependency-free; hub names need tokenizers/transformers) — "
        "adds a real_tokens total from an actor-pool encode",
    )
    tc.set_defaults(fn=cmd_token_count)

    pp = sub.add_parser(
        "prep-artifacts", help="build offline DSIR artifacts from a corpus"
    )
    pp.add_argument("--input", required=True)
    pp.add_argument("--output", required=True)
    pp.add_argument("--sample-fraction", type=float, default=0.25)
    pp.add_argument("--text-column", default="content")
    pp.add_argument("--max-docs", type=int, default=None)
    pp.add_argument(
        "--fasttext", action="store_true",
        help="also train a REAL fastText-format quality classifier "
        "(pure-numpy SGD, reference ft_trainer.py lifecycle) and "
        "export quality.model.bin, loadable by any fastText loader",
    )
    pp.add_argument("--samples-per-class", type=int, default=5000)
    pp.set_defaults(fn=cmd_prep_artifacts)

    q2 = sub.add_parser("query", help="run a named analysis query")
    q2.add_argument("name", nargs="?", default=None)
    q2.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    q2.add_argument("--head", type=int, default=10)
    q2.add_argument("--list", action="store_true")
    q2.set_defaults(fn=cmd_query)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _ensure_ray(args.num_cpus)
    result = args.fn(args)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
