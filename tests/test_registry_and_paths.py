"""Signal plugin registry (§2.10), UT1 categories and input sniffing."""

import pyarrow as pa
import pytest
import ray.data

from redpajama_data_ray.functions.registry import (
    register_signal,
    registered_signals,
    registry_schema,
    unregister_signal,
)
from redpajama_data_ray.pipelines.quality import QualityConfig, annotate
from redpajama_data_ray.sources.corpus import generate_corpus_table


def test_register_signal_flows_through_pipeline():
    @register_signal("rps_doc_exclaim_count", pa.float64())
    def exclaim(texts):
        return [float(t.count("!")) for t in texts]

    try:
        assert ("rps_doc_exclaim_count", pa.float64()) in registry_schema()
        table = generate_corpus_table(40, seed=21)
        ds = ray.data.from_arrow(table)
        out = annotate(
            ds,
            QualityConfig(
                max_actors=2, include_minhash=False,
                include_classifier=False, include_dsir=False,
                include_line_signals=False,
            ),
        ).to_pandas()
        assert "rps_doc_exclaim_count" in out.columns
        expected = {
            f"{r}/{p}@{c}": float(t.count("!"))
            for r, p, c, t in zip(
                table["repo"].to_pylist(), table["path"].to_pylist(),
                table["commit"].to_pylist(), table["content"].to_pylist(),
            )
        }
        for _, row in out.iterrows():
            assert row["rps_doc_exclaim_count"] == expected[row["doc_id"]]
    finally:
        unregister_signal("rps_doc_exclaim_count")
    assert "rps_doc_exclaim_count" not in registered_signals()


def test_register_rejects_bad_prefix():
    with pytest.raises(ValueError):
        register_signal("bad_name", pa.float64())(lambda t: t)


class TestUT1:
    def test_load_ut1_index_tarball_layout(self, tmp_path):
        """Real loading path: <category>/domains files, UT1 layout."""
        from redpajama_data_ray.functions.ut1 import (
            CATEGORY_ID, load_ut1_index,
        )

        for cat, doms in (
            ("adult", ["bad.example.com", "# comment", "", "x.example.org"]),
            ("phishing", ["bad.example.com", "scam.example.net"]),
            ("not_a_known_category", ["weird.example.com"]),
        ):
            d = tmp_path / cat
            d.mkdir()
            (d / "domains").write_text("\n".join(doms) + "\n")
        idx = load_ut1_index(str(tmp_path))
        # first-sorted-category wins for dual-listed domains
        assert idx["bad.example.com"] == CATEGORY_ID["adult"]
        assert idx["scam.example.net"] == CATEGORY_ID["phishing"]
        assert idx["x.example.org"] == CATEGORY_ID["adult"]
        # unknown category registered deterministically past the block
        assert idx["weird.example.com"] >= len(CATEGORY_ID)

    def test_categorize_domains_subdomain_fallback(self):
        import pyarrow as pa
        import ray.data

        from redpajama_data_ray.functions.ut1 import (
            EMBEDDED_UT1_INDEX, categorize_domains,
        )

        t = pa.table(
            {
                "domain": [
                    "adult.example.com",          # exact
                    "cdn.adult.example.com",      # subdomain fallback
                    "clean.example.com",          # no match
                    None,                          # null domain
                ]
            }
        )
        out = categorize_domains(
            ray.data.from_arrow(t), EMBEDDED_UT1_INDEX
        )
        rows = [
            r["ut1_category"]
            for b in out.iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        ]
        assert rows[0] == rows[1] and rows[0] is not None
        assert rows[2] is None and rows[3] is None

    def test_blocklist_hit_rate_sanity(self):
        """Expanded wordlists: the synthetic corpus (clean code) should
        have ~zero LDNOOBW hits, while planted profanity is counted —
        hit-rate sanity per VERDICT r1 item 7."""
        from redpajama_data_ray.functions.doc_signals import SignalKernel
        from redpajama_data_ray.sources.corpus import generate_corpus_table

        kern = SignalKernel("en")
        t = generate_corpus_table(100, seed=11)
        hits = sum(
            kern.doc_signals(c)["rps_doc_ldnoobw_words"]
            for c in t.column("content").to_pylist()
        )
        assert hits <= 2  # clean synthetic code corpus
        planted = kern.doc_signals(
            "this porn site has xxx video and adult video content"
        )
        assert planted["rps_doc_ldnoobw_words"] >= 3.0
        # stopword fraction responds to the fuller sets
        prose = kern.doc_signals(
            "it was the best of times and it was the worst of times"
        )
        assert prose["rps_doc_stop_word_fraction"] > 0.5


def test_sf_dir_sniffing_is_strict(tmp_path):
    """A directory whose name merely STARTS with 'sf' (like the corpus
    cache's sf1.0_seed42_n1000000_v4) must be read as the parquet it
    contains, never silently rerouted to the sf0.001 synth corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from redpajama_data_ray.cli import _read_input
    from redpajama_data_ray.sources.corpus import sf_from_dir

    d = tmp_path / "sf1.0_seed42_n77_v9"
    d.mkdir()
    pq.write_table(
        pa.table({"content": ["a", "b"], "path": ["p1", "p2"]}),
        d / "part.parquet",
    )
    ds = _read_input(str(d), max_docs=None, shuffle_files=False)
    assert ds.count() == 2

    with pytest.raises(ValueError, match="scale factor"):
        sf_from_dir(str(d))
    assert sf_from_dir("/root/testdata/sf0.01") == 0.01
