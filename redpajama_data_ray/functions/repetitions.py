"""Vectorized repetition signals (top-ngram / dupe-ngram fractions).

Numpy reimplementation of the reference's Counter-based formulas
(/root/reference/app/src/core/quality_signals/repetitions.py:37-145):
words -> dense int ids via a dict, n-gram keys via recursive uint64
pairing (exact, collision-free), duplicate masking via a prefix-sum
cover array, early exit once a level has no repeats. Semantics are
bit-identical to the naive path (tested against it):

- top-ngram tie-break = earliest first-occurrence (Counter insertion
  order), score = chars(top) * count / total_chars, 0.0 when the top
  count <= 1;
- dupe-ngrams: positions covered by any n-gram occurring >= 2 times,
  overlap counted once, char-length weighted.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..config import PRECISION

def _round(x: float) -> float:
    return round(x, PRECISION)


_TOP_NAMES = tuple(f"rps_doc_frac_chars_top_{n}gram" for n in (2, 3, 4))
_DUPE_NAMES = tuple(
    f"rps_doc_frac_chars_dupe_{n}grams" for n in range(5, 11)
)


def repetition_signals(norm_words: Sequence[str]) -> Dict[str, float]:
    """All 9 repetition signals via recursive n-gram pairing.

    Level-n n-gram keys are built from level-(n-1) keys packed with the
    next word id into one uint64 (both halves < 2^32, so packing is a
    bijection — no hash collisions); ``np.unique`` relabels each level
    back to dense ids and yields exact window counts. Two properties
    make this fast: every level is pure uint64 numpy (no tuple hashing),
    and a level with no repeated n-gram proves all longer levels have
    none either (a repeated (n+1)-gram contains a repeated n-gram), so
    the loop early-exits — on natural text that skips most levels.
    Values are bit-identical to :func:`repetition_signals_naive`
    (tested on randomized inputs and the synthetic corpus)."""
    out: Dict[str, float] = {}
    n_words = len(norm_words)
    if n_words == 0:
        for nm in _TOP_NAMES + _DUPE_NAMES:
            out[nm] = 0.0
        return out
    word_to_id: Dict[str, int] = {}
    ids_list = []
    word_lens = np.empty(n_words, dtype=np.int64)
    for i, w in enumerate(norm_words):
        j = word_to_id.get(w)
        if j is None:
            j = len(word_to_id)
            word_to_id[w] = j
        ids_list.append(j)
        word_lens[i] = len(w)
    total_chars = int(word_lens.sum())
    cum = np.concatenate(([0], np.cumsum(word_lens)))
    ids = np.array(ids_list, dtype=np.uint64)

    cur = ids  # level-(n-1) dense keys, values < 2^32
    s32 = np.uint64(32)
    done = False
    for n in range(2, 11):
        name = _TOP_NAMES[n - 2] if n <= 4 else _DUPE_NAMES[n - 5]
        if n_words < n or done:
            out[name] = 0.0
            continue
        keys = (cur[:-1] << s32) | ids[n - 1 :]
        _, inv, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        per_window = counts[inv]
        top = int(per_window.max())
        if n <= 4:
            if top <= 1:
                out[name] = 0.0
            else:
                # Counter.most_common tie-break: earliest first
                # occurrence wins
                fi = int(np.argmax(per_window == top))
                out[name] = _round(
                    int(cum[fi + n] - cum[fi]) * top / total_chars
                )
        else:
            if top <= 1 or total_chars == 0:
                out[name] = 0.0
            else:
                dup_starts = np.nonzero(per_window > 1)[0]
                cover = np.zeros(n_words + 1, dtype=np.int64)
                np.add.at(cover, dup_starts, 1)
                np.add.at(cover, dup_starts + n, -1)
                mask = np.cumsum(cover[:-1]) > 0
                out[name] = _round(
                    int(word_lens[mask].sum()) / total_chars
                )
        if top <= 1:
            done = True
        else:
            cur = inv.astype(np.uint64)
    return out


def repetition_signals_batch(
    labels: np.ndarray,
    counts: np.ndarray,
    codes: np.ndarray,
    word_lens: np.ndarray,
    bounds: np.ndarray,
) -> Dict[str, np.ndarray]:
    """:func:`repetition_signals` of every document of a batch at once.

    The batch's words are one array (document i holds
    ``bounds[i]:bounds[i + 1]``): ``codes`` names each word, ``labels``
    names each (document, word) pair densely and ``counts`` holds that
    pair's count, so level 1 comes from the caller's one ``np.unique``.
    Level n packs the level-(n-1) label of a window with the code of its
    last word, as the per-document path does, but only for candidate
    windows: a window can repeat only if both of its (n-1)-grams repeat,
    so every other window has count 1 and is never sorted. Returns one
    float64 array per signal, values equal to the per-document path."""
    n_docs = len(bounds) - 1
    out = {
        name: np.zeros(n_docs, dtype=np.float64)
        for name in _TOP_NAMES + _DUPE_NAMES
    }
    n_words = len(codes)
    doc = np.repeat(np.arange(n_docs), np.diff(bounds))
    cum = np.concatenate(([0], np.cumsum(word_lens)))
    total_chars = cum[bounds[1:]] - cum[bounds[:-1]]
    s32 = np.uint64(32)
    for n in range(2, 11):
        m = n_words - n + 1
        if m <= 0:
            break
        cand = (
            (counts[:m] > 1)
            & (counts[1 : m + 1] > 1)
            & (doc[:m] == doc[n - 1 :])
        )
        pos = np.flatnonzero(cand)
        keys = (labels[pos].astype(np.uint64) << s32) | codes[
            pos + n - 1
        ].astype(np.uint64)
        _, inv, cnt = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        per_window = cnt[inv]
        rep = per_window > 1
        if not rep.any():
            # no repeated n-gram: none of any longer n either
            break
        starts, top = pos[rep], per_window[rep]
        name = _TOP_NAMES[n - 2] if n <= 4 else _DUPE_NAMES[n - 5]
        if n <= 4:
            # per document the most frequent window, earliest first
            # (Counter.most_common's tie-break)
            order = np.lexsort((starts, -top, doc[starts]))
            starts, top = starts[order], top[order]
            d = doc[starts]
            first = np.concatenate(([True], d[1:] != d[:-1]))
            fi, top, d = starts[first], top[first], d[first]
            chars = (cum[fi + n] - cum[fi]) * top
            out[name][d] = [
                _round(c / t)
                for c, t in zip(chars.tolist(), total_chars[d].tolist())
            ]
        else:
            # words covered by any repeated window, weighted by length
            cover = np.bincount(starts, minlength=n_words + 1) - np.bincount(
                starts + n, minlength=n_words + 1
            )
            covered = np.where(np.cumsum(cover[:-1]) > 0, word_lens, 0)
            dup = np.concatenate(([0], np.cumsum(covered)))
            dup = dup[bounds[1:]] - dup[bounds[:-1]]
            d = np.unique(doc[starts])
            out[name][d] = [
                _round(c / t)
                for c, t in zip(dup[d].tolist(), total_chars[d].tolist())
            ]
        labels = np.zeros(m, dtype=np.int64)
        labels[pos] = inv
        counts = np.zeros(m, dtype=np.int64)
        counts[pos] = per_window
    return out


# back-compat alias (the old split fast path was merged into
# repetition_signals; parity tests exercise this name)
_repetition_signals_vectorized = repetition_signals


# --- naive reference-shaped path, kept as the oracle for the fast path ---

def repetition_signals_naive(norm_words: Sequence[str]) -> Dict[str, float]:
    """Direct Counter-based implementation (reference formulas).

    Words are mapped to small ints first (int-tuple hashing is ~2x
    faster than str-tuple hashing); the mapping is a bijection so
    n-gram equality, counts, and Counter insertion order (hence the
    most_common tie-break) are identical to operating on the strings."""
    from collections import Counter

    from ..text.normalization import ngrams_zip

    out: Dict[str, float] = {}
    word_to_id: Dict[str, int] = {}
    ids = []
    id_lens = []
    word_lens = []
    for w in norm_words:
        i = word_to_id.get(w)
        if i is None:
            i = len(word_to_id)
            word_to_id[w] = i
            id_lens.append(len(w))
        ids.append(i)
        word_lens.append(len(w))
    total_chars = sum(word_lens)
    for n in (2, 3, 4):
        name = f"rps_doc_frac_chars_top_{n}gram"
        counts = Counter(ngrams_zip(ids, n))
        if not counts:
            out[name] = 0.0
            continue
        ngram, count = counts.most_common(1)[0]
        out[name] = (
            0.0
            if count <= 1
            else _round(
                sum(id_lens[i] for i in ngram) * count / total_chars
            )
        )
    n_words = len(ids)
    for n in range(5, 11):
        name = f"rps_doc_frac_chars_dupe_{n}grams"
        if n_words < n:
            out[name] = 0.0
            continue
        grams = list(ngrams_zip(ids, n))
        counts = Counter(grams)
        if max(counts.values()) == 1:
            out[name] = 0.0
            continue
        dupes = {g for g, c in counts.items() if c > 1}
        mask = [0] * n_words
        for i, g in enumerate(grams):
            if g in dupes:
                for j in range(i, i + n):
                    mask[j] = 1
        duped = sum(l for l, m in zip(word_lens, mask) if m)
        out[name] = 0.0 if total_chars == 0 else _round(duped / total_chars)
    return out
