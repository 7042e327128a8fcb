"""Benchmark harness.

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) at ``$RAY_GRAFT_CPUS`` CPUs (default 32) and print
ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {name: sec, ...}, "sf": .., "num_cpus": N, ...}

``--scaling``: run the same benchmark twice in fresh processes at 8 and
32 CPUs on the same (pre-generated, page-warm) input and report both
throughputs plus scaling efficiency = (t_8 / t_32) / (32 / 8);
``--pairs N`` repeats that A/B N times and reports the median.

``--stats``: print the flagship's per-operator ``ds.stats()``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

USAGE = "usage: bench.py [--scaling [--pairs N]] [--stats]"


def _run_benchmarks(sf_dir: str, ncpu: int) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False

    from redpajama_data_ray.dedupe.exact import exact_dedup
    from redpajama_data_ray.dedupe.lsh import fuzzy_dedup
    from redpajama_data_ray.pipelines.analysis import (
        q_events_hourly,
        q_knn_cosine_top10,
        q_lineitem_pricing,
        q_token_totals_by_source,
    )
    from redpajama_data_ray.pipelines.quality import (
        QualityConfig,
        annotate,
        read_corpus,
    )
    from redpajama_data_ray.sources.corpus import (
        corpus_rows_for_sf,
        ensure_corpus_parquet,
        sf_from_dir,
    )

    sf = sf_from_dir(sf_dir)
    # untimed: synthesize (cached) + warm the page cache
    corpus_dir = ensure_corpus_parquet(sf)
    import ray.data as rd

    rd.read_parquet(corpus_dir).count()
    n_files = corpus_rows_for_sf(sf) + 1  # + the oversized file

    timings: dict = {}

    # headline: full quality pipeline -> parquet sink (tmpfs when
    # available so run-to-run disk writeback noise doesn't dominate the
    # compute/shuffle measurement; both scaling legs use the same sink)
    sink_root = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    out_dir = f"{sink_root}/bench_out/quality_sf{sf}_cpus{ncpu}"
    import shutil

    # best-of-2: the flagship is the recorded headline and the host is
    # shared with other work — min-of-N is the standard low-noise
    # wall-clock estimator (both runs are full fresh executions)
    runs = []
    # two in-process runs: the second reuses warm Ray worker processes
    # (imports + model init amortized), which is the steady-state
    # number a long-running job sees
    n_runs = 2
    cfg = QualityConfig()
    for _ in range(n_runs):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        ds = annotate(read_corpus(sf_dir), cfg)
        ds.write_parquet(out_dir)
        runs.append(time.time() - t0)
    headline = min(runs)
    timings["flagship_quality"] = round(headline, 3)
    for i, r in enumerate(runs[1:], start=2):
        timings[f"flagship_quality_run{i}"] = round(r, 3)

    if os.environ.get("BENCH_SKIP_DIST") != "1":
        # the documented poly64 shingle-hash deviation (sha1 is
        # reference byte-parity; functions/minhash.py) — recorded so
        # each round's bench shows what the deviation buys. Runs in
        # the same warm session as the sha1 runs, best-of-2, same sink.
        poly_cfg = QualityConfig(minhash_shingle_hash="poly64")
        poly_runs = []
        for _ in range(n_runs):
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.time()
            ds = annotate(read_corpus(sf_dir), poly_cfg)
            ds.write_parquet(out_dir)
            poly_runs.append(time.time() - t0)
        timings["flagship_poly64"] = round(min(poly_runs), 3)
        # leave the SINK in sha1 mode for the per-op timings below
        # (dedup ops consume these signature columns; mode choice does
        # not change their cost shape, but keep provenance consistent
        # with the recorded flagship)
        shutil.rmtree(out_dir, ignore_errors=True)
        ds = annotate(read_corpus(sf_dir), cfg)
        ds.write_parquet(out_dir)

    # session hygiene: the flagship leaves ~30 heavyweight model
    # workers (each holds its annotate stage) idling after its dataset
    # completes; until Ray reaps them they slow the NEXT hash-shuffle
    # stages 2-4x (measured: first post-flagship join 30.5 s, then 13.3,
    # then 10.2 as workers die; 9 s in a quiet session). Restart the
    # session so every per-op number means "op cost on a quiet
    # cluster", not "op cost behind another pipeline's residue".
    ray.shutdown()
    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False

    # exact dedup over the annotated output (content_sha256 shuffle)
    t0 = time.time()
    ann = rd.read_parquet(
        out_dir, columns=["doc_id", "id_int", "content_sha256"]
    )
    exact_dedup(ann).count()
    timings["exact_dedup"] = round(time.time() - t0, 3)

    # fuzzy dedup (minhash explode -> one root task labels the clusters)
    t0 = time.time()
    sig = rd.read_parquet(out_dir, columns=["id_int", "signature_sim0.8"])
    deduped, _ = fuzzy_dedup(sig, "signature_sim0.8")
    deduped.count()
    timings["fuzzy_dedup"] = round(time.time() - t0, 3)

    if os.environ.get("BENCH_SKIP_DIST") == "1":
        # scaling mode measures the flagship; skip the forced
        # distributed-fallback timings (they'd add ~2 min per leg
        # without informing the efficiency ratio)
        return _finish(timings, headline, sf, ncpu, n_files, out_dir)

    # forced distributed paths (dataset-side joins / min-label
    # propagation — the dup-heavy scale fallbacks) on the same inputs
    t0 = time.time()
    ann = rd.read_parquet(
        out_dir, columns=["doc_id", "id_int", "content_sha256"]
    )
    exact_dedup(ann, distributed=True).count()
    timings["exact_dedup_join"] = round(time.time() - t0, 3)
    t0 = time.time()
    sig = rd.read_parquet(out_dir, columns=["id_int", "signature_sim0.8"])
    deduped, _ = fuzzy_dedup(sig, "signature_sim0.8", distributed=True)
    deduped.count()
    timings["fuzzy_dedup_dist"] = round(time.time() - t0, 3)

    # frequent-line dedup over the annotated corpus content (count
    # pass + broadcast drop-mask delivery; ~140k frequent lines at
    # sf0.1 — real boilerplate density in the code corpus)
    from redpajama_data_ray.dedupe.decontaminate import (
        benchmark_ngram_keys,
        decontaminate,
    )
    from redpajama_data_ray.dedupe.lines import line_dedup

    t0 = time.time()
    corp = rd.read_parquet(out_dir, columns=["doc_id", "content"])
    line_dedup(
        corp, text_col="content", id_col="doc_id", min_count=2
    ).count()
    timings["line_dedup"] = round(time.time() - t0, 3)

    # benchmark decontamination: documents table texts as the
    # "benchmark" (gram-key build + full-corpus 13-gram probe)
    t0 = time.time()
    bench = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    keys = benchmark_ngram_keys(bench, text_col="text", n=13)
    corp = rd.read_parquet(out_dir, columns=["doc_id", "content"])
    decontaminate(corp, ray.put(keys), text_col="content", n=13).count()
    timings["decontaminate"] = round(time.time() - t0, 3)

    # duplicated-substring spans (ExactSubstr-style): per-position
    # rolling hashes + winnowing over the annotated corpus content,
    # corpus-wide fingerprint counts, broadcast span delivery
    from redpajama_data_ray.dedupe.spans import substring_dedup

    t0 = time.time()
    corp = rd.read_parquet(out_dir, columns=["doc_id", "content"])
    substring_dedup(
        corp, text_col="content", id_col="doc_id", k=50, winnow_w=8
    ).count()
    timings["substring_dedup"] = round(time.time() - t0, 3)

    # sequence packing (hash-bucket shuffle of the corpus text +
    # per-bucket window assembly — the one operator whose shuffle must
    # move the tokens themselves)
    from redpajama_data_ray.functions.packing import pack_sequences

    t0 = time.time()
    corp = rd.read_parquet(out_dir, columns=["doc_id", "content"])
    pack_sequences(
        corp, seq_len=2048, n_buckets=256, text_col="content"
    ).count()
    timings["pack_sequences"] = round(time.time() - t0, 3)

    # code-quality signal suite (stateless vectorized batch kernel,
    # RPv1-GitHub/StarCoder rules) over the raw code corpus
    from redpajama_data_ray.functions.code_signals import code_signal_batch

    t0 = time.time()
    corp = rd.read_parquet(
        corpus_dir, columns=["repo", "path", "lang", "content"]
    )
    corp.map_batches(code_signal_batch, batch_format="pyarrow").count()
    timings["code_quality"] = round(time.time() - t0, 3)

    # group-keyed sampling family (round 9): per-domain quota and
    # token-budget sampling — only narrow partials/histograms
    # exchange; the corpus text never shuffles
    from redpajama_data_ray.functions.splits import (
        cap_per_group,
        token_budget_sample,
    )

    t0 = time.time()
    corp = rd.read_parquet(out_dir, columns=["doc_id", "repo"])
    cap_per_group(
        corp, 1000, group_col="repo", id_col="doc_id"
    ).count()
    timings["domain_cap"] = round(time.time() - t0, 3)

    t0 = time.time()
    corp = rd.read_parquet(out_dir, columns=["doc_id", "repo", "n_chars"])
    token_budget_sample(
        corp, 1_000_000, token_col="n_chars", group_col="repo",
        id_col="doc_id",
    ).count()
    timings["token_budget"] = round(time.time() - t0, 3)

    # analysis queries over driver tables
    for name, fn in (
        ("token_totals", q_token_totals_by_source),
        ("events_hourly", q_events_hourly),
        ("lineitem_pricing", q_lineitem_pricing),
        ("knn_cosine_top10", q_knn_cosine_top10),
    ):
        t0 = time.time()
        res = fn(sf_dir)
        if hasattr(res, "count") and not hasattr(res, "num_rows"):
            res.count()
        timings[name] = round(time.time() - t0, 3)

    return _finish(timings, headline, sf, ncpu, n_files, out_dir)


def _finish(timings, headline, sf, ncpu, n_files, out_dir) -> dict:
    import shutil

    import ray

    shutil.rmtree(out_dir, ignore_errors=True)  # don't leak tmpfs
    result = {
        "metric": "flagship_quality_pipeline_sec",
        "value": round(headline, 3),
        "unit": "sec",
        # headline estimator, stated so round-over-round comparisons
        # stay apples-to-apples (all in-process runs are also reported
        # as flagship_quality_run{i})
        "policy": "min_of_2_in_process",
        "queries": timings,
        "sf": sf,
        "num_cpus": ncpu,
        "files": n_files,
        "files_per_sec": round(n_files / headline, 2),
    }
    ray.shutdown()
    return result


def _scaling(sf_dir: str, pairs: int = 1) -> dict:
    lo, hi = 8, 32

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_SKIP_DIST="1"
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # each leg is one fresh process whose flagship is best-of-2
    # IN-PROCESS (second run reuses warm workers) — min-of-N as the
    # low-noise wall-clock estimator, identical policy for both legs.
    # With --pairs N the A/B is run N times back-to-back and the
    # MEDIAN per-pair efficiency is the headline: on a shared host a
    # single pair conflates neighbor load (contends a leg) and turbo
    # clocks (flatters the small leg) — the per-pair list makes a
    # disturbed leg visible instead of silently poisoning the ratio.
    results = []
    for _ in range(max(1, pairs)):
        r_lo = run(lo)
        r_hi = run(hi)
        t_lo, t_hi = r_lo["value"], r_hi["value"]
        results.append((r_lo, r_hi, (t_lo / t_hi) / (hi / lo)))
    effs = sorted(e for _, _, e in results)
    median = effs[len(effs) // 2] if len(effs) % 2 else (
        (effs[len(effs) // 2 - 1] + effs[len(effs) // 2]) / 2
    )
    r_lo, r_hi, _ = min(results, key=lambda t: abs(t[2] - median))
    return {
        "metric": "scaling_efficiency",
        "value": round(median, 3),
        "unit": "ratio",
        "pairs": [
            {
                "sec_8": a["value"],
                "sec_32": b["value"],
                "efficiency": round(e, 3),
            }
            for a, b, e in results
        ],
        "sec_8": r_lo["value"],
        "sec_32": r_hi["value"],
        "files_per_sec_8": r_lo["files_per_sec"],
        "files_per_sec_32": r_hi["files_per_sec"],
        "sf": r_lo["sf"],
        "queries_8": r_lo["queries"],
        "queries_32": r_hi["queries"],
    }


def _stats(sf_dir: str, ncpu: int) -> None:
    """Print the flagship plan + per-operator ds.stats() breakdown."""
    import ray

    ray.init(
        address="local", num_cpus=ncpu,
        include_dashboard=False, logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False
    import shutil

    import ray.data as rd

    from redpajama_data_ray.pipelines.quality import (
        QualityConfig, annotate, read_corpus,
    )
    from redpajama_data_ray.sources.corpus import ensure_corpus_parquet

    rd.read_parquet(ensure_corpus_parquet(0.01)).count()  # warm
    sink = "/dev/shm/bench_stats" if os.path.isdir("/dev/shm") else "/tmp/bench_stats"
    shutil.rmtree(sink, ignore_errors=True)
    ds = annotate(read_corpus(sf_dir), QualityConfig())
    ds.write_parquet(sink)
    print(ds.stats())
    shutil.rmtree(sink, ignore_errors=True)
    ray.shutdown()


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    unknown = [
        a for a in sys.argv[1:]
        if a.startswith("--") and a not in ("--scaling", "--pairs", "--stats")
    ]
    if unknown:
        raise SystemExit(f"unknown flag(s) {unknown}; {USAGE}")
    if "--scaling" in sys.argv:
        pairs = 1
        if "--pairs" in sys.argv:
            pairs = int(sys.argv[sys.argv.index("--pairs") + 1])
        print(json.dumps(_scaling(sf_dir, pairs)))
        return
    if "--stats" in sys.argv:
        _stats(sf_dir, ncpu)
        return
    print(json.dumps(_run_benchmarks(sf_dir, ncpu)))


if __name__ == "__main__":
    main()
