"""The three workloads: what one timed round runs, what the traced run
adds, and the checks against the independent answers in ``oracles``.

A round is one closed-loop job: the driver submits it and waits for the
complete result. Checks run after the round, outside its wall time.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs
import oracles
from session import WORK


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _ids(ds, col: str = "doc_id") -> set:
    return set(_collect(ds).column(col).to_pylist())


def _diff(what: str, got: set, want: set) -> List[str]:
    if got == want:
        return []
    return [f"{what}: {len(got - want)} unexpected, {len(want - got)} missing of {len(want)}"]


class Workload:
    name = ""
    ops_per_round = 1
    extra_ops = 0
    in_object_store = False  # load the input into Ray at set-up

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.dir, self.table, self.truth, self.checksum = inputs.load(self.name, seed)
        self.rows = self.table.num_rows

    def load(self) -> None:
        """Input load inside set-up: read the cached table again, and
        into the object store where the operations take a Dataset."""
        import ray.data as rd

        self.table = pq.read_table(self.dir)
        if self.in_object_store:
            self.ds = rd.read_parquet(self.dir).materialize()

    def warm_up(self) -> None:
        """One untimed round, so that worker imports, actor start-up and
        first-call caches are paid before timing."""
        self.round()

    def round(self):
        raise NotImplementedError

    def extra(self) -> List[str]:
        """Traced run only: the further paths, checked; returns failures."""
        return []

    def check(self, result) -> List[str]:
        raise NotImplementedError


class QualityCode(Workload):
    """The CLI ``quality`` job: annotate the corpus and write the four
    outputs (annotated, signals, minhash, kept)."""

    name = "quality_code"
    MINHASH_SAMPLE = 24

    def __init__(self, seed: int, tracer):
        super().__init__(seed, tracer)
        from redpajama_data_ray.functions.minhash import MinHasher

        h = MinHasher(shingle_hash="sha1")
        self.provenance = {"shingle_hash": h.shingle_hash, "checksum": h.checksum}
        t = self.table
        ids = pc.binary_join_element_wise(
            t["repo"], pc.binary_join_element_wise(t["path"], t["commit"], "@"), "/"
        )
        self.content = dict(zip(ids.to_pylist(), t["content"].to_pylist()))

    def round(self):
        import ray.data as rd
        from redpajama_data_ray.pipelines.outputs import write_outputs
        from redpajama_data_ray.pipelines.quality import QualityConfig, _default_actors, annotate

        out = os.path.join(WORK, "out", "quality")
        shutil.rmtree(out, ignore_errors=True)
        actors = _default_actors()
        # the CLI's read: split at the read, 4 blocks per annotate actor
        ds = rd.read_parquet(self.dir, override_num_blocks=4 * actors)
        with self.tracer.span("pipelines.quality.annotate"):
            annotated = annotate(ds, QualityConfig())
        with self.tracer.span("pipelines.outputs.write_outputs", actors=actors):
            return write_outputs(annotated, out, minhash_provenance=self.provenance)

    def check(self, paths: Dict[str, str]) -> List[str]:
        from redpajama_data_ray.functions.doc_signals import DocView
        from redpajama_data_ray.functions.pii import PII_COUNT_COLUMNS
        from redpajama_data_ray.functions.rules import RuleConfig, decide_table

        bad: List[str] = []
        t = pq.read_table(paths["annotated"])
        ids = t["doc_id"].to_pylist()
        if t.num_rows != self.rows or set(ids) != set(self.content):
            bad.append(f"annotated: {t.num_rows} rows for {self.rows} input files")
            return bad
        content = t["content"].to_pylist()
        if oracles.sha256_hex(content) != t["content_scrubbed_sha256"].to_pylist():
            bad.append("content_scrubbed_sha256 differs from sha256(content)")
        pii = np.sum([t[c].to_numpy() for c in PII_COUNT_COLUMNS], axis=0)
        changed = [i for i in np.flatnonzero(pii == 0) if content[i] != self.content[ids[i]]]
        if changed:
            bad.append(f"{len(changed)} rows without PII have changed content")
        keep, _ = decide_table(t, RuleConfig())
        if not np.array_equal(np.asarray(keep, bool), t["keep"].to_numpy(zero_copy_only=False)):
            bad.append("keep differs from decide_table over the output signals")
        reasons = t["drop_reasons"].to_pylist()
        if any(not k and not r for k, r in zip(t["keep"].to_pylist(), reasons)):
            bad.append("a dropped row has no drop reason")
        kept = pq.read_table(paths["kept"], columns=["doc_id"]).num_rows
        if kept != int(np.sum(keep)):
            bad.append(f"kept output has {kept} rows, keep marks {int(np.sum(keep))}")
        # reference minhash over a fixed sample (documents under 5k words)
        ref = oracles.ReferenceMinHash()
        sig = t["signature_sim0.8"].to_pylist()
        order = np.argsort(np.array(ids, dtype=object))
        checked = 0
        for i in order[:: max(1, len(order) // (2 * self.MINHASH_SAMPLE))]:
            words = DocView(self.content[ids[i]]).norm_words
            if len(words) > 5000:
                continue
            got = sig[i]
            want = None if got is None else ref.bands(words, len(got), len(got[0]) // 4)
            if got is None and len(words) >= 13:
                want = "a signature"
            if got != want:
                bad.append(f"signature_sim0.8 of {ids[i]} differs from the reference minhash")
            checked += 1
            if checked == self.MINHASH_SAMPLE:
                break
        return bad


class DedupPlanted(Workload):
    """Exact and fuzzy dedup over planted duplicates."""

    name = "dedup_planted"
    ops_per_round = 2
    extra_ops = 2
    in_object_store = True
    DIST_ROWS = 5_000

    def __init__(self, seed: int, tracer):
        super().__init__(seed, tracer)
        t = self.table
        doc_id = np.array(t["doc_id"].to_pylist(), dtype=object)
        id_int = t["id_int"].to_numpy()
        key = np.array(t["content_sha256"].to_pylist(), dtype=object)
        self.want_exact = oracles.exact_survivors(doc_id, key)
        label = oracles.components(self.rows, oracles.band_edges(t["signature_sim0.8"]))
        self.want_fuzzy = oracles.fuzzy_survivors(doc_id, id_int, label)
        # the distributed fuzzy path runs on a prefix only: its label
        # propagation costs ~4 s of fixed shuffle work per iteration
        n = self.DIST_ROWS
        self.want_fuzzy_dist = oracles.fuzzy_survivors(
            doc_id[:n], id_int[:n],
            oracles.components(n, oracles.band_edges(t["signature_sim0.8"].slice(0, n))),
        )
        # the generator's own record of what it planted must agree
        planted = self.truth["component"]
        singles = planted < 0
        planted = np.where(singles, -1 - np.arange(self.rows), planted)
        same = len(np.unique(planted)) == len(np.unique(label)) and len(
            np.unique(np.stack([planted, label], 1), axis=0)
        ) == len(np.unique(label))
        self.planted_ok = same and self.want_exact == oracles.exact_survivors(doc_id, self.truth["key"])

    def round(self):
        from redpajama_data_ray.dedupe.exact import exact_dedup
        from redpajama_data_ray.dedupe.lsh import fuzzy_dedup

        with self.tracer.span("dedupe.exact") as a:
            exact = exact_dedup(self.ds).materialize()
        with self.tracer.span("dedupe.fuzzy") as b:
            fuzzy = fuzzy_dedup(self.ds)[0].materialize()
        if self.tracer.enabled:
            a["dropped_rows"] = self.rows - exact.count()
            b["dropped_rows"] = self.rows - fuzzy.count()
        return {"exact": exact, "fuzzy": fuzzy}

    def check(self, res) -> List[str]:
        bad = [] if self.planted_ok else ["the generator's planted structure differs from the oracle"]
        bad += _diff("exact survivors", _ids(res["exact"]), self.want_exact)
        bad += _diff("fuzzy survivors", _ids(res["fuzzy"]), self.want_fuzzy)
        return bad

    def extra(self) -> List[str]:
        import ray.data as rd
        from redpajama_data_ray.dedupe.exact import exact_dedup
        from redpajama_data_ray.dedupe.lsh import cluster_labels, explode_bands, fuzzy_dedup

        tr = self.tracer
        with tr.span("dedupe.exact_join"):
            exact = exact_dedup(self.ds, distributed=True).materialize()
        prefix = rd.from_arrow(self.table.slice(0, self.DIST_ROWS)).materialize()
        with tr.span("dedupe.fuzzy_dist", rows=self.DIST_ROWS):
            fuzzy = fuzzy_dedup(prefix, distributed=True)[0].materialize()
        with tr.span("dedupe.lsh.explode") as a:
            exploded = (
                self.ds.select_columns(["id_int", "signature_sim0.8"])
                .map_batches(explode_bands("signature_sim0.8"), batch_format="pyarrow")
                .materialize()
            )
        with tr.span("dedupe.lsh.cluster"):
            cluster_labels(self.ds)
        h = _collect(exploded)["band_hash"].to_numpy()
        _, inv, cnt = np.unique(h, return_inverse=True, return_counts=True)
        a["band_rows"] = len(h)
        a["dup_band_rows"] = int(np.sum(cnt[inv] > 1))
        return _diff("exact survivors (join path)", _ids(exact), self.want_exact) + _diff(
            "fuzzy survivors (distributed path)", _ids(fuzzy), self.want_fuzzy_dist
        )


class SampleSkewed(Workload):
    """Per-group cap and a column profile over Zipf-sized groups, one
    holding half the rows; the traced run adds the per-group token
    budget and both join deliveries."""

    name = "sample_skewed"
    ops_per_round = 2
    extra_ops = 3
    in_object_store = True
    CAP, BUDGET, SAMPLE_SEED = 20, 20_000, 42
    COLUMNS = ["doc_id", "source", "tokens", "score", "lang", "offset"]

    def __init__(self, seed: int, tracer):
        super().__init__(seed, tracer)
        t = self.table
        args = dict(seed=self.SAMPLE_SEED, cap=self.CAP, budget=self.BUDGET)
        self.want_cap = oracles.duckdb_ids(t, oracles.CAP_SQL.format(**args))
        self.want_budget = oracles.duckdb_ids(t, oracles.BUDGET_SQL.format(**args))
        self.want_profile = oracles.duckdb_profile(t, self.COLUMNS)

    def _cap(self, delivery: str):
        from redpajama_data_ray.functions.splits import cap_per_group

        return cap_per_group(
            self.ds, self.CAP, group_col="source", id_col="doc_id",
            seed=self.SAMPLE_SEED, delivery=delivery,
        ).materialize()

    def _budget(self, delivery: str):
        from redpajama_data_ray.functions.splits import token_budget_sample

        return token_budget_sample(
            self.ds, self.BUDGET, "tokens", group_col="source", id_col="doc_id",
            seed=self.SAMPLE_SEED, delivery=delivery,
        ).materialize()

    def round(self):
        from redpajama_data_ray.functions.profile import profile_table

        with self.tracer.span("functions.splits.cap"):
            cap = self._cap("auto")
        with self.tracer.span("functions.profile"):
            prof = profile_table(self.ds, self.COLUMNS)
        return {"cap": cap, "profile": prof}

    def _check_profile(self, prof: pa.Table) -> List[str]:
        bad = []
        hll_err = 4 * 1.04 / np.sqrt(2**12)  # four standard errors at p = 12
        for r in prof.to_pylist():
            want = self.want_profile[r["column"]]
            c = r["column"]
            if (r["n"], r["nulls"]) != (want["n"], want["nulls"]):
                bad.append(f"profile {c}: n/nulls {r['n']}/{r['nulls']} != {want['n']}/{want['nulls']}")
            for k in ("min", "max"):
                got, exp = r[f"{k}_repr"], want[k]
                if isinstance(exp, str):
                    ok = got == exp
                else:
                    ok = got is not None and type(exp)(got) == exp
                if not ok:
                    bad.append(f"profile {c}: {k} {got!r} != {exp!r}")
            if abs(r["approx_distinct"] - want["distinct"]) > hll_err * want["distinct"] + 1:
                bad.append(f"profile {c}: distinct {r['approx_distinct']} vs {want['distinct']}")
        return bad

    def check(self, res) -> List[str]:
        return _diff("cap_per_group", _ids(res["cap"]), self.want_cap) + self._check_profile(
            res["profile"]
        )

    def extra(self) -> List[str]:
        with self.tracer.span("functions.splits.budget"):
            budget = self._budget("auto")
        with self.tracer.span("functions.splits.cap_join"):
            cap = self._cap("join")
        with self.tracer.span("functions.splits.budget_join"):
            budget_join = self._budget("join")
        return (
            _diff("token_budget_sample", _ids(budget), self.want_budget)
            + _diff("cap_per_group (join)", _ids(cap), self.want_cap)
            + _diff("token_budget_sample (join)", _ids(budget_join), self.want_budget)
        )


WORKLOADS = {w.name: w for w in (QualityCode, DedupPlanted, SampleSkewed)}


def kernel_ledger(table: pa.Table, docs: int = 100, repeats: int = 2) -> Dict[str, float]:
    """Seconds spent in each annotate kernel over a fixed sample of the
    corpus (every k-th file under 20k characters), each kernel called
    through its own public function in the order ``AnnotateStage`` uses,
    plus one whole ``AnnotateStage.__call__`` over the same batch. Each
    figure is the minimum of ``repeats`` passes, so host noise between
    the whole call and the kernel loop does not leak into their
    difference (the glue)."""
    import hashlib

    from redpajama_data_ray.functions.doc_signals import DOC_SIGNAL_NAMES, DocView
    from redpajama_data_ray.functions.importance import token_hashes
    from redpajama_data_ray.functions.minhash import MinHasher
    from redpajama_data_ray.functions.pii import scrub_text
    from redpajama_data_ray.functions.registry import registered_signals
    from redpajama_data_ray.functions.rules import RuleConfig, decide
    from redpajama_data_ray.stages.annotate import AnnotateStage
    from redpajama_data_ray.stages.ids import assign_ids

    lengths = pc.utf8_length(table["content"]).to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(lengths < 20_000)
    idx = idx[:: max(1, len(idx) // docs)][:docs]
    batch = assign_ids(table.take(idx))
    texts = batch["content"].to_pylist()
    stage = AnnotateStage(
        include_scrub=True, rules=RuleConfig(), extra_signals=list(registered_signals().values())
    )
    poly = MinHasher(shingle_hash="poly64")
    stage(batch.slice(0, 8))  # first-call caches
    clock = time.perf_counter
    passes = []
    for _ in range(repeats):
        t = clock()
        stage(batch)
        acc = {"annotate_call": clock() - t}
        acc.update(dict.fromkeys(
            ("langid", "doc_signals", "line_signals", "perplexity", "classifier_dsir",
             "minhash", "minhash_poly64", "pii", "rules"), 0.0
        ))
        for text in texts:
            v = DocView(text)
            t = clock(); lang, score = stage.langid.predict(text); acc["langid"] += clock() - t
            kernel = stage.kernels.get(lang, stage.kernel)
            t = clock(); doc = kernel.doc_signals_view(v); acc["doc_signals"] += clock() - t
            t = clock(); kernel.line_signals_view(v); acc["line_signals"] += clock() - t
            t = clock(); _, bucket = stage.pplx.score(text); acc["perplexity"] += clock() - t
            t = clock()
            hashes = token_hashes(v.raw_words)
            if text.strip():
                stage.classifier.score_from_hashes(hashes)
            stage.dsir.score_from_hashes(hashes, len(text))
            acc["classifier_dsir"] += clock() - t
            t = clock(); stage.hasher.banded_signatures(v.norm_words); acc["minhash"] += clock() - t
            t = clock(); poly.banded_signatures(v.norm_words); acc["minhash_poly64"] += clock() - t
            t = clock()
            scrubbed, counts = scrub_text(text)
            hashlib.sha256(scrubbed.encode("utf-8")).hexdigest()
            acc["pii"] += clock() - t
            t = clock()
            row = {k: doc[k] for k in DOC_SIGNAL_NAMES}
            row.update(lang_score=score, ppl_bucket=bucket, **counts)
            decide(row, stage.rules)
            acc["rules"] += clock() - t
        passes.append(acc)
    led = {k: min(p[k] for p in passes) for k in passes[0]}
    led["docs"] = len(idx)
    return led
