"""Document fingerprinting: 64-bit SimHash.

``simhash64``: 64-bit SimHash over normalized word 2-shingles
(Charikar 2002) for near-dup detection by Hamming distance.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from ..text import form_ngrams


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "little"
    )


def simhash64(tokens: Sequence[str], shingle: int = 2) -> int:
    """64-bit SimHash over token shingles; 0 for empty input."""
    if len(tokens) < shingle:
        feats = [" ".join(tokens)] if tokens else []
    else:
        feats = [" ".join(g) for g in form_ngrams(iter(tokens), shingle)]
    if not feats:
        return 0
    hs = np.array(
        [_hash64(f.encode("utf-8")) for f in feats], dtype=np.uint64
    )
    bits = (hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    votes = 2 * bits.astype(np.int64).sum(axis=0) - len(hs)
    out_bits = np.nonzero(votes > 0)[0]
    return int(sum(1 << int(i) for i in out_bits))
