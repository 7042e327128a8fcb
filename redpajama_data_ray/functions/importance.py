"""DSIR importance weights (hashed n-gram log-likelihood ratios).

Replicates the reference's DSIR signal semantics
(/root/reference/app/src/core/quality_signals/importance_weights.py:52-303):
a document's feature vector is a ``buckets``-dim count vector over raw
unigrams + bigrams; the score is ``<features, log p_target - log p_source>``
normalized by total count, with an optional Poisson length correction.

Deviation (documented in SURVEY.md §7.4): the reference hashes n-grams
with Python's builtin ``hash()`` pinned by PYTHONHASHSEED=42
(/root/reference/app/src/core/quality_signals/utils/dsir.py:5-6) — an
interpreter-environment dependency. We use zlib.crc32 (stable everywhere,
C-speed); our oracle/artifacts use the same hash so parity holds within
this repo.

The hot path is two-phase so consumers can share work per document:
``token_hashes(words)`` computes the crc32 array once, and
``features_from_hashes(hashes, buckets)`` derives the count vector for
any bucket count (DSIR and the quality classifier use different bucket
sizes but the same hashes).
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..text import wordpunct_tokenize

DEFAULT_BUCKETS = 10_000  # reference: configs/rp_v2.0.conf:32


def token_hashes(words: Sequence[str]) -> np.ndarray:
    """crc32 of every raw unigram and space-joined bigram (uint64).

    Each word is utf-8 encoded once; a bigram's crc input is built by
    bytes concatenation (identical bytes to encoding the space-joined
    string). C-level ``map`` loops + one list->array conversion instead
    of per-element numpy assignment (~3x over the naive loop)."""
    n = len(words)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    crc = zlib.crc32
    enc = [w.encode("utf-8") for w in words]
    uni = list(map(crc, enc))
    if n > 1:
        sp = b" "
        uni.extend(
            [crc(a + sp + b) for a, b in zip(enc, enc[1:])]
        )
    return np.array(uni, dtype=np.uint64)


def features_from_hashes(hashes: np.ndarray, buckets: int) -> np.ndarray:
    """int64 count vector over hashed features (dsir.py:9-20 analog)."""
    if len(hashes) == 0:
        return np.zeros(buckets, dtype=np.int64)
    return np.bincount(
        (hashes % np.uint64(buckets)).astype(np.int64), minlength=buckets
    )


def text_features(text: str, buckets: int = DEFAULT_BUCKETS) -> np.ndarray:
    return features_from_hashes(
        token_hashes(wordpunct_tokenize(text)), buckets
    )


def build_hash_dist(
    texts: Iterable[str], buckets: int = DEFAULT_BUCKETS
) -> Tuple[np.ndarray, float]:
    """Aggregate count distribution + mean length (Poisson lambda MLE)
    over a corpus sample (offline artifact path: artifacts/hash_dist.py)."""
    total = np.zeros(buckets, dtype=np.int64)
    lengths: List[int] = []
    for t in texts:
        total += text_features(t, buckets)
        lengths.append(len(t))
    lam = float(np.mean(lengths)) if lengths else 1.0
    return total, lam


class DSIRScorer:
    """Importance weight ``<features, log p_tgt - log p_src>`` / n_feats,
    with optional ``log Pois(len; lam_tgt) - log Pois(len; lam_src)``
    length correction (importance_weights.py:87-103,194-240)."""

    def __init__(
        self,
        target_counts: np.ndarray,
        source_counts: np.ndarray,
        lambda_target: Optional[float] = None,
        lambda_source: Optional[float] = None,
        length_correction: bool = False,
    ):
        tgt = target_counts.astype(np.float64) + 1.0
        src = source_counts.astype(np.float64) + 1.0
        self.log_diff = np.log(tgt / tgt.sum()) - np.log(src / src.sum())
        self.buckets = len(self.log_diff)
        self.length_correction = length_correction
        self.lambda_target = lambda_target
        self.lambda_source = lambda_source

    def score_from_hashes(
        self, hashes: np.ndarray, text_len: int
    ) -> Optional[float]:
        n = len(hashes)
        if n == 0:
            return None
        idx = (hashes % np.uint64(self.buckets)).astype(np.int64)
        logratio = float(self.log_diff[idx].sum()) / n
        if self.length_correction and self.lambda_target:
            ln = max(text_len, 1)
            logratio += self._log_poisson(ln, self.lambda_target) - \
                self._log_poisson(ln, self.lambda_source)
        return round(logratio, 8)

    def score(self, text: str) -> Optional[float]:
        words = wordpunct_tokenize(text)
        return self.score_from_hashes(token_hashes(words), len(text))

    @staticmethod
    def _log_poisson(k: int, lam: float) -> float:
        return k * math.log(lam) - lam - math.lgamma(k + 1)
