"""Distributed BPE tokenizer training — the artifact-prep step that
closes the token-count loop.

The reference encodes documents with a real HF BPE tokenizer
(`/root/reference/app/src/token_count.py:46,236-240`) but treats the
tokenizer itself as a downloaded artifact. A training-data engine that
builds corpora should also be able to build the tokenizer FROM the
corpus. This module trains a byte-level (or whitespace) BPE vocabulary
and exports a real ``tokenizer.json`` that any HF loader — including
this repo's dependency-free reader (:mod:`.hf_tokenizer`) and the
``token-count --tokenizer`` CLI path — loads and serves.

Scale split (the same one huggingface/tokenizers and SentencePiece
use — their trainers consume word COUNTS, not the corpus):

* the only corpus-sized pass is the pre-tokenized word histogram,
  built with the dedup stack's combiner pattern (one ``(word, cnt)``
  row per distinct word per block via ``np.unique``, summed by
  :func:`..dedupe.combine.combine_counts` — one root task small, hash
  shuffle past ``TREE_STATS_LIMIT``);
* merge learning runs driver-side over the BOUNDED histogram. The
  ``words_top_k`` cut (count desc, word asc — deterministic) is the
  100-TB knob: source code has a long tail of unique identifiers, and
  dropping tail words only perturbs merge-frequency ESTIMATES (HF's
  own trainer has the analogous ``limit_alphabet``/``min_frequency``
  pruning); every text still encodes exactly because the byte-level
  alphabet covers all 256 bytes.

Training/serving segmentation identity is BY CONSTRUCTION: the
trainer builds the exported spec first and pre-tokenizes the corpus
through :class:`..functions.hf_tokenizer.HFTokenizer` running that
very spec, so the words the merges were learned on are exactly the
pieces ``encode()`` will see.

Deliberate deviation from huggingface/tokenizers (documented, like
``fasttext_train``): merge ties (equal pair counts) break by
lexicographically smallest pair, giving a blocking- and
insertion-order-independent result; HF's heap breaks ties by
insertion order, which is reproducible only within HF. The CONTRACT
here is determinism + a valid greedy-BPE artifact, not bit-parity
with HF's merge list.
"""

from __future__ import annotations

import heapq
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from ..dedupe.combine import combine_counts
from .hf_tokenizer import HFTokenizer, _byte_to_unicode

_PRETOKENIZERS = ("bytelevel", "whitespace")


def make_spec(
    vocab: Optional[Dict[str, int]] = None,
    merges: Optional[List[str]] = None,
    pretokenizer: str = "bytelevel",
    lowercase: bool = False,
    special_tokens: Sequence[str] = (),
) -> dict:
    """The serialized-tokenizer dict (huggingface/tokenizers
    ``serialization.rs`` layout) this trainer exports. Called with no
    vocab/merges it is the skeleton the trainer itself pre-tokenizes
    through, so train and serve segmentation cannot drift."""
    if pretokenizer not in _PRETOKENIZERS:
        raise ValueError(
            f"pretokenizer must be one of {_PRETOKENIZERS}, got "
            f"{pretokenizer!r}"
        )
    if pretokenizer == "bytelevel":
        pre = {
            "type": "ByteLevel",
            "add_prefix_space": True,
            "trim_offsets": True,
            "use_regex": True,
        }
        decoder = {"type": "ByteLevel"}
    else:
        pre = {"type": "Whitespace"}
        decoder = None
    vocab = dict(vocab or {})
    return {
        "version": "1.0",
        "truncation": None,
        "padding": None,
        "added_tokens": [
            {
                "id": vocab.get(t, i),
                "content": t,
                "single_word": False,
                "lstrip": False,
                "rstrip": False,
                "normalized": False,
                "special": True,
            }
            for i, t in enumerate(special_tokens)
        ],
        "normalizer": {"type": "Lowercase"} if lowercase else None,
        "pre_tokenizer": pre,
        "post_processor": None,
        "decoder": decoder,
        "model": {
            "type": "BPE",
            "dropout": None,
            "unk_token": None,
            "continuing_subword_prefix": None,
            "end_of_word_suffix": None,
            "fuse_unk": False,
            "byte_fallback": False,
            "vocab": vocab,
            "merges": list(merges or []),
        },
    }


def word_count_partials(
    ds: Dataset, text_col: str, spec: dict
) -> Dataset:
    """One ``(word, cnt)`` row per distinct pre-tokenized word per
    batch — the combiner-pattern partial, bounded by each block's
    word vocabulary, never by its token count."""

    def _partial(t: pa.Table) -> pa.Table:
        # each actor/task builds the (tiny) skeleton tokenizer once
        # per batch — construction is a few dict lookups + two regex
        # compiles, negligible next to the findall pass
        tok = HFTokenizer(spec)
        pieces: List[str] = []
        for x in t.column(text_col).to_pylist():
            if x:
                pieces.extend(tok._pretokenize(tok._normalize(x)))
        if not pieces:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        uniq, counts = np.unique(
            np.asarray(pieces, dtype=object), return_counts=True
        )
        return pa.table(
            {
                "word": pa.array(uniq.tolist(), pa.string()),
                "cnt": pa.array(counts.astype(np.int64)),
            }
        )

    return ds.map_batches(_partial, batch_format="pyarrow")


def word_histogram(
    ds: Dataset,
    text_col: str,
    spec: dict,
    words_top_k: Optional[int] = 1_000_000,
) -> Tuple[List[str], np.ndarray]:
    """Corpus-wide (word, count) histogram, cut to the ``words_top_k``
    most frequent (count desc, word asc — the deterministic cut), as
    driver-side arrays. The result is vocabulary-bounded by
    construction; this is the ONLY driver materialization in BPE
    training."""
    # pin the partials so combine_counts sizes from metadata instead
    # of re-running the pre-tokenize scan (same rationale as
    # vocab.token_frequencies)
    partials = word_count_partials(ds, text_col, spec).materialize()
    combined = combine_counts(partials, key="word")
    if words_top_k is not None:
        combined = combined.sort(
            ["cnt", "word"], descending=[True, False]
        ).limit(int(words_top_k))
    batches = list(
        combined.iter_batches(batch_size=65536, batch_format="pyarrow")
    )
    tbl = (
        pa.concat_tables(batches)
        if batches
        else pa.table(
            {
                "word": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
    )
    return (
        tbl.column("word").to_pylist(),
        tbl.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64),
    )


def learn_merges(
    words: Sequence[str],
    counts: np.ndarray,
    vocab_size: int,
    min_frequency: int = 2,
    initial_alphabet: Optional[Sequence[str]] = None,
    special_tokens: Sequence[str] = (),
) -> Tuple[Dict[str, int], List[str]]:
    """Greedy BPE merge learning over a word histogram (the classic
    Sennrich'16 algorithm with incremental pair-count maintenance).

    Returns ``(vocab, merges)`` — ids are specials first, then the
    sorted alphabet, then one id per learned merge in learning order
    (reusing the existing id when two merge paths produce the same
    surface token, as huggingface/tokenizers does). Ties on pair
    count break by lexicographically smallest pair — deterministic
    under any histogram ordering (see module docstring).
    """
    if min_frequency < 1:
        min_frequency = 1
    vocab: Dict[str, int] = {}
    for t in special_tokens:
        if t not in vocab:
            vocab[t] = len(vocab)
    alphabet = set(initial_alphabet or [])
    for w in words:
        alphabet.update(w)
    for ch in sorted(alphabet):
        if ch not in vocab:
            vocab[ch] = len(vocab)

    # words as mutable symbol lists; pair -> count and pair -> word
    # indices containing it (the standard inverted index so each merge
    # touches only affected words)
    sym: List[List[str]] = [list(w) for w in words]
    cnt = np.asarray(counts, dtype=np.int64)
    pair_counts: Dict[Tuple[str, str], int] = {}
    pair_words: Dict[Tuple[str, str], set] = {}
    for wi, syms in enumerate(sym):
        c = int(cnt[wi])
        for a, b in zip(syms, syms[1:]):
            p = (a, b)
            pair_counts[p] = pair_counts.get(p, 0) + c
            pair_words.setdefault(p, set()).add(wi)

    merges: List[str] = []
    # lazy-invalidation max-heap on (-count, pair): pops are verified
    # against the live pair_counts and stale entries discarded, so
    # each merge costs O(touched log heap) instead of a full
    # O(|pairs|) scan (the scan made merge learning ~30x slower than
    # the distributed histogram at sf0.1). Ordering on (-count, pair)
    # IS the selection rule — max count, ties by smallest pair — so
    # determinism is unchanged
    heap: List[Tuple[int, Tuple[str, str]]] = [
        (-c, p) for p, c in pair_counts.items()
    ]
    heapq.heapify(heap)
    while len(vocab) < vocab_size and heap:
        best_neg, best = heapq.heappop(heap)
        cur = pair_counts.get(best)
        if cur is None or cur != -best_neg:
            continue  # stale entry; the live count was re-pushed
        if cur < min_frequency:
            # the heap top is the max live count: nothing qualifies
            break
        first, second = best
        merged = first + second
        merges.append(f"{first} {second}")
        if merged not in vocab:
            vocab[merged] = len(vocab)
        touched: set = set()
        for wi in sorted(pair_words.get(best, ())):
            syms = sym[wi]
            c = int(cnt[wi])
            # retract this word's pair contributions, apply the merge,
            # re-add — O(len(word)) and exact. Counts move once per
            # OCCURRENCE; the inverted index once per DISTINCT pair
            # (a pair repeated inside one word — "ĠĠ ĠĠ ĠĠ" — must
            # not hit its index entry twice)
            old_pairs = list(zip(syms, syms[1:]))
            for p in old_pairs:
                left = pair_counts[p] - c
                if left:
                    pair_counts[p] = left
                else:
                    del pair_counts[p]
                touched.add(p)
            for p in set(old_pairs):
                s = pair_words[p]
                s.discard(wi)
                if not s and p != best:
                    del pair_words[p]
            out: List[str] = []
            i = 0
            n = len(syms)
            while i < n:
                if (
                    i < n - 1
                    and syms[i] == first
                    and syms[i + 1] == second
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            sym[wi] = out
            for p in zip(out, out[1:]):
                pair_counts[p] = pair_counts.get(p, 0) + c
                touched.add(p)
            for p in set(zip(out, out[1:])):
                pair_words.setdefault(p, set()).add(wi)
        pair_words.pop(best, None)
        pair_counts.pop(best, None)
        touched.discard(best)
        for p in touched:
            c2 = pair_counts.get(p)
            if c2 is not None:
                heapq.heappush(heap, (-c2, p))
    return vocab, merges


def train_bpe(
    ds: Dataset,
    text_col: str = "content",
    vocab_size: int = 8192,
    min_frequency: int = 2,
    pretokenizer: str = "bytelevel",
    lowercase: bool = False,
    words_top_k: Optional[int] = 1_000_000,
    special_tokens: Sequence[str] = (),
) -> dict:
    """Train a BPE tokenizer on a corpus and return the serialized
    ``tokenizer.json`` dict (see module docstring for the scale
    split). ``pretokenizer="bytelevel"`` seeds the full 256-byte
    alphabet so every text encodes with zero unknowns; ``whitespace``
    uses the observed character alphabet."""
    skeleton = make_spec(
        pretokenizer=pretokenizer,
        lowercase=lowercase,
        special_tokens=special_tokens,
    )
    words, counts = word_histogram(ds, text_col, skeleton, words_top_k)
    if pretokenizer == "bytelevel":
        initial = list(_byte_to_unicode().values())
    else:
        initial = []
    vocab, merges = learn_merges(
        words,
        counts,
        vocab_size=vocab_size,
        min_frequency=min_frequency,
        initial_alphabet=initial,
        special_tokens=special_tokens,
    )
    return make_spec(
        vocab=vocab,
        merges=merges,
        pretokenizer=pretokenizer,
        lowercase=lowercase,
        special_tokens=special_tokens,
    )


def write_tokenizer_json(spec: dict, path: str) -> str:
    """Atomic write of the serialized tokenizer (tmp + rename, like
    the state commits)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(spec, f, ensure_ascii=False, indent=1)
    os.replace(tmp, path)
    return path
