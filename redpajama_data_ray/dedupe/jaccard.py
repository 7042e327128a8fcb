"""Exact n-gram Jaccard similarity — the verification step for fuzzy
dedup candidates, and a standalone brute-force near-dup oracle for
tests (small inputs only; the scale path is MinHash-LSH in ``lsh.py``).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..text import form_ngrams, normalize


def shingle_set(text: str, n: int = 13) -> Set[str]:
    """The same shingles MinHash hashes (dedupe/utils.py:104: space-joined
    word n-grams of the normalized text, de-duplicated)."""
    tokens = normalize(text).split()
    return {" ".join(g) for g in form_ngrams(iter(tokens), n)}


def jaccard(a: Set[str], b: Set[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def distributed_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.5,
    whitespace_tokens: bool = True,
):
    """Exact n-gram-Jaccard near-dup pairs, Ray-native.

    Inverted-index shape: explode DISTINCT shingles per doc, find
    shingles shared by >1 doc with the size-adaptive counter
    (``combine.key_stats``), and count pair intersections over only those
    shared shingles — the shared population is small by construction,
    so the pair table stays driver-sized (same scale argument as the
    LSH edge list, run_lsh.py:295-322). Shingle keys stay exact strings
    so results match a SQL oracle bit-for-bit.

    Returns a pyarrow table (doc_a, doc_b, jaccard) with
    jaccard >= threshold, rounded to 6 decimals.
    """
    from collections import Counter as _Counter

    import pyarrow as pa
    import ray

    from ..text.normalization import ngrams_zip

    def explode(t: "pa.Table") -> "pa.Table":
        ids_out: List[int] = []
        sh_out: List[str] = []
        cnt_ids: List[int] = []
        cnt_vals: List[int] = []
        join = " ".join
        for i, text in zip(
            t.column(id_col).to_pylist(), t.column(text_col).to_pylist()
        ):
            toks = (
                (text or "").split()
                if whitespace_tokens
                else list(normalize(text or "").split())
            )
            sh = set(map(join, ngrams_zip(toks, n)))
            cnt_ids.append(i)
            cnt_vals.append(len(sh))
            ids_out.extend([i] * len(sh))
            sh_out.extend(sh)
        return pa.table(
            {
                "doc": pa.array(ids_out, pa.int64()),
                "s": pa.array(sh_out, pa.string()),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow").materialize()

    # per-doc distinct-shingle counts (one row per doc -> driver dict)
    from .combine import key_stats

    doc_counts = {}
    for b in key_stats(exploded, "doc", "doc").iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for d, c in zip(b.column("doc").to_pylist(), b.column("cnt").to_pylist()):
            doc_counts[d] = c

    # shingles shared by >1 doc
    shared = set()
    for b in key_stats(exploded, "s", "doc", min_cnt=2).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        shared.update(b.column("s").to_pylist())
    if not shared:
        return pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    ref = ray.put(shared)

    def members(t: "pa.Table") -> "pa.Table":
        sh = ray.get(ref)
        mask = [s in sh for s in t.column("s").to_pylist()]
        return t.filter(pa.array(mask, pa.bool_()))

    groups: dict = {}
    inter: "_Counter" = _Counter()
    for b in exploded.map_batches(members, batch_format="pyarrow").iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for s, d in zip(b.column("s").to_pylist(), b.column("doc").to_pylist()):
            groups.setdefault(s, []).append(d)
    for docs in groups.values():
        docs.sort()
        for x in range(len(docs)):
            for y in range(x + 1, len(docs)):
                inter[(docs[x], docs[y])] += 1

    a_out, b_out, j_out = [], [], []
    for (da, db), i in sorted(inter.items()):
        union = doc_counts[da] + doc_counts[db] - i
        j = i / union if union else 1.0
        if j >= threshold:
            a_out.append(da)
            b_out.append(db)
            j_out.append(round(j, 6))
    return pa.table(
        {
            "doc_a": pa.array(a_out, pa.int64()),
            "doc_b": pa.array(b_out, pa.int64()),
            "jaccard": pa.array(j_out, pa.float64()),
        }
    )


def brute_force_near_dups(
    texts_by_id: dict, threshold: float, ngram: int = 13
) -> List[Tuple[int, int, float]]:
    """O(n^2) exact near-dup pairs — test oracle only."""
    ids = sorted(texts_by_id)
    shingles = {i: shingle_set(texts_by_id[i], ngram) for i in ids}
    out = []
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            j = jaccard(shingles[a], shingles[b])
            if j >= threshold:
                out.append((a, b, j))
    return out
