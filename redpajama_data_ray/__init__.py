"""redpajama_data_ray — a Ray-Data-native data-processing engine with the
query/data-processing capabilities of togethercomputer/RedPajama-Data.

Built from scratch on ray.data.Dataset pipelines: zero-copy Arrow batches,
one fused annotate task per read block (language ID, perplexity, signals,
minhash, PII scrub, keep/drop), shuffle-based dedup (exact sha256, MinHash-LSH,
SimHash, n-gram Jaccard, embedding cosine), similarity search, and a
manifest/checkpoint layer for resumable partitioned output.

Reference semantics (what to compute) follow the public RedPajama-Data V2
pipeline; citations to `/root/reference/...` file:line appear in docstrings
so parity can be audited. The execution architecture is Ray-Data-first and
shares no code with the reference.
"""

__version__ = "0.1.0"
