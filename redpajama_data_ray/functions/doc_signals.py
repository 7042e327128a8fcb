"""Per-document quality-signal kernel.

Computes every doc-level and line-level quality signal of the reference
pipeline in one pass over a document. Semantics are replicated from:

- doc signals:    /root/reference/app/src/core/quality_signals/
                  natural_language.py, repetitions.py, content.py
- line signals:   /root/reference/app/src/core/quality_signals/lines.py
- derived views:  /root/reference/app/src/core/document.py:40-107

Two paths compute the same values:

- the per-document path, ``DocView`` + ``SignalKernel``: one pass of
  Python per document, shaped like the reference. It is the oracle of
  the batch path;
- the batch view, ``BatchView``: every signal of a whole batch one
  column at a time. Each per-word property is taken once per distinct
  word of the batch (one Arrow dictionary for the normalized words and
  one for the raw words), each per-character property once per
  distinct code point, and the per-document and per-line values are
  numpy segment sums. ``AnnotateStage`` runs it; it is tested
  bit-equal to the per-document path on hypothesis batches of
  adversarial text (tests/test_batch_signals.py).

Scores are rounded to PRECISION=8 decimals with Python ``round``
(/root/reference/app/src/core/constants.py:1); ``None`` encodes
"not applicable" exactly where the reference emits null.
"""

from __future__ import annotations

import math
import re
import zlib
from collections import Counter
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pyarrow as pa

from ..config import PRECISION
from ..text import TextSlice, split_lines, wordpunct_tokenize
from ..text.normalization import _PUNCT_TABLE as _PUNCT_TABLE_
from .wordlists import get_bad_words, get_stop_words

_SENT_RE = re.compile(r"\b[^.!?]+[.!?]*", re.UNICODE)
_ALPHA_RE = re.compile(r"[a-zA-Z]")
_LOREM_RE = re.compile(r"lorem ipsum", re.IGNORECASE)

_SYMBOLS = ("#", "...", "…")
_ELLIPSIS = ("...", "…")
_TERMINAL_PUNCT = (".", "!", "?", "”")
_BULLETS = (
    "•", "‣", "▶", "◀", "◦",
    "■", "□", "▪", "▫", "–",
)

# column names of all doc-level signals, in output order
DOC_SIGNAL_NAMES: Tuple[str, ...] = (
    "rps_doc_num_sentences",
    "rps_doc_word_count",
    "rps_doc_mean_word_length",
    "rps_doc_symbol_to_word_ratio",
    "rps_doc_frac_lines_end_with_ellipsis",
    "rps_doc_frac_no_alph_words",
    "rps_doc_frac_unique_words",
    "rps_doc_unigram_entropy",
    "rps_doc_frac_all_caps_words",
    "rps_doc_frac_chars_top_2gram",
    "rps_doc_frac_chars_top_3gram",
    "rps_doc_frac_chars_top_4gram",
    "rps_doc_frac_chars_dupe_5grams",
    "rps_doc_frac_chars_dupe_6grams",
    "rps_doc_frac_chars_dupe_7grams",
    "rps_doc_frac_chars_dupe_8grams",
    "rps_doc_frac_chars_dupe_9grams",
    "rps_doc_frac_chars_dupe_10grams",
    "rps_doc_lorem_ipsum",
    "rps_doc_curly_bracket",
    "rps_doc_ldnoobw_words",
    "rps_doc_stop_word_fraction",
)

# line-level signals: name -> arrow list<float64> column
LINE_SIGNAL_NAMES: Tuple[str, ...] = (
    "rps_lines_javascript_counts",
    "rps_lines_ending_with_terminal_punctution_mark",  # reference spelling
    "rps_lines_num_words",
    "rps_lines_uppercase_letter_fraction",
    "rps_lines_numerical_chars_fraction",
    "rps_lines_start_with_bulletpoint",
)


def _round(x: float) -> float:
    return round(x, PRECISION)


class DocView:
    """Derived views of one document, computed once and shared by all
    signals (mirrors Document: /root/reference/app/src/core/document.py)."""

    __slots__ = (
        "raw", "norm", "raw_lines", "norm_lines",
        "raw_words", "norm_words",
    )

    def __init__(self, content: str):
        self.raw = content
        # punct-strip + lowercase ONCE over the whole doc, shared by the
        # doc-level normalize and every per-line normalize. Safe because
        # str.translate(punct) and str.lower() never touch "\n" (line
        # structure is preserved) and NFD is concatenation-safe at "\n"
        # boundaries (a starter char blocks canonical reordering), so
        # per-line ws-collapse + NFD over the batched transform is
        # byte-identical to normalize() per line (fuzz-tested).
        from unicodedata import normalize as _nfd

        stripped = content.translate(_PUNCT_TABLE_).lower()
        self.norm = _nfd("NFD", " ".join(stripped.split()))
        self.raw_lines: Tuple[TextSlice, ...] = split_lines(content)
        pieces = stripped.split("\n")
        # _LINE_RE yields no trailing empty line for "...\n" while
        # str.split does; zip truncates to the raw line count
        self.norm_lines: Tuple[TextSlice, ...] = tuple(
            TextSlice(
                _nfd("NFD", " ".join(piece.split())), s.start, s.end
            )
            for s, piece in zip(self.raw_lines, pieces)
        )
        self.raw_words: List[str] = wordpunct_tokenize(content)
        self.norm_words: List[str] = self.norm.split()


class SignalKernel:
    """Stateful per-language tables + stateless math for all signals.

    Instantiate once per actor / test; call :meth:`doc_signals` and
    :meth:`line_signals` per document.
    """

    def __init__(
        self,
        language: str = "en",
        stop_words: Optional[Set[str]] = None,
        bad_words: Optional[Set[str]] = None,
    ):
        self.stop_words = (
            stop_words if stop_words is not None else get_stop_words(language)
        )
        self.bad_words = (
            bad_words if bad_words is not None else get_bad_words(language)
        )
        # n-gram lengths present in the blocklist (content.py:66-69)
        self._bad_gram_vals = sorted(
            {w.count(" ") + 1 for w in self.bad_words}
        )
        # prescreen: first tokens of multi-word entries — n-gram scans
        # run only when a first token is present in the document
        self._bad_first_tokens = {
            w.split(" ", 1)[0] for w in self.bad_words if " " in w
        }

    # ---------------- doc-level ----------------

    def doc_signals(self, content: str) -> Dict[str, Optional[float]]:
        return self.doc_signals_view(DocView(content))

    def doc_signals_view(self, v: DocView) -> Dict[str, Optional[float]]:
        out: Dict[str, Optional[float]] = {}

        n_raw = len(v.raw_words)
        n_norm = len(v.norm_words)

        # natural_language.py:37-47
        out["rps_doc_num_sentences"] = float(len(_SENT_RE.findall(v.raw)))
        # natural_language.py:50-55
        out["rps_doc_word_count"] = float(n_norm)
        # natural_language.py:58-69
        if n_norm == 0:
            out["rps_doc_mean_word_length"] = None
        else:
            out["rps_doc_mean_word_length"] = _round(
                sum(len(w) for w in v.norm_words) / n_norm
            )
        # natural_language.py:72-92
        if n_raw == 0:
            out["rps_doc_symbol_to_word_ratio"] = None
        else:
            n_sym = float(sum(v.raw.count(s) for s in _SYMBOLS))
            out["rps_doc_symbol_to_word_ratio"] = _round(n_sym / n_raw)
        # natural_language.py:95-115
        n_lines = len(v.raw_lines)
        if n_lines == 0:
            out["rps_doc_frac_lines_end_with_ellipsis"] = None
        else:
            n_ell = float(
                sum(
                    s.text.rstrip().endswith(_ELLIPSIS)
                    for s in v.raw_lines
                )
            )
            out["rps_doc_frac_lines_end_with_ellipsis"] = _round(
                n_ell / n_lines
            )
        # natural_language.py:118-138, 184-197, content.py:168-188 —
        # three per-raw-word scans fused into one pass (same results)
        if n_raw == 0:
            out["rps_doc_frac_no_alph_words"] = None
            out["rps_doc_frac_all_caps_words"] = None
            n_stop = 0
        else:
            # run the three per-word predicates over UNIQUE words and
            # weight by count — identical totals, ~3x fewer regex/str
            # calls on repetitive (code) corpora
            n_alpha = 0
            n_upper = 0
            n_stop = 0
            alpha_search = _ALPHA_RE.search
            stop = self.stop_words
            for w, c in Counter(v.raw_words).items():
                if alpha_search(w) is not None:
                    n_alpha += c
                if w.isupper():
                    n_upper += c
                if w in stop:
                    n_stop += c
            out["rps_doc_frac_no_alph_words"] = _round(1.0 - n_alpha / n_raw)
            out["rps_doc_frac_all_caps_words"] = _round(n_upper / n_raw)
        # natural_language.py:141-155, 158-181 — one Counter serves both
        # the unique fraction (distinct count) and the entropy
        if n_norm == 0:
            out["rps_doc_frac_unique_words"] = None
            out["rps_doc_unigram_entropy"] = None
        else:
            counter = Counter(v.norm_words)
            out["rps_doc_frac_unique_words"] = _round(len(counter) / n_norm)
            total = n_norm
            log = math.log
            entropy = sum(
                -c / total * log(c / total) for c in counter.values()
            )
            out["rps_doc_unigram_entropy"] = _round(entropy)
        # repetitions.py (vectorized; parity tested vs the naive path)
        from .repetitions import repetition_signals

        out.update(repetition_signals(v.norm_words))
        # content.py:103-126
        if len(v.norm) == 0 or "lorem ipsum" not in v.norm:
            out["rps_doc_lorem_ipsum"] = 0.0
        else:
            out["rps_doc_lorem_ipsum"] = _round(
                len(_LOREM_RE.findall(v.norm)) / len(v.norm)
            )
        # content.py:129-150
        if len(v.raw) == 0 or ("{" not in v.raw and "}" not in v.raw):
            out["rps_doc_curly_bracket"] = 0.0
        else:
            out["rps_doc_curly_bracket"] = _round(
                (v.raw.count("{") + v.raw.count("}")) / len(v.raw)
            )
        # content.py:49-100
        out["rps_doc_ldnoobw_words"] = self._ldnoobw_count(v)
        # content.py:168-188 (n_stop counted in the fused raw-word pass;
        # guard is on NORMALIZED words, ratio over RAW words, as in the
        # reference)
        if n_norm == 0:
            out["rps_doc_stop_word_fraction"] = 0.0
        else:
            out["rps_doc_stop_word_fraction"] = _round(n_stop / n_raw)
        return out

    def _ldnoobw_count(self, v: DocView) -> float:
        if len(v.norm) == 0:
            return 0.0
        from ..text.normalization import ngrams_zip

        num = 0
        need_multi: Optional[bool] = None
        for n in self._bad_gram_vals:
            if n == 1:
                num += sum(w in self.bad_words for w in v.norm_words)
            else:
                if need_multi is None:
                    need_multi = not self._bad_first_tokens.isdisjoint(
                        v.norm_words
                    )
                if not need_multi:
                    continue
                join = " ".join
                num += sum(
                    join(g) in self.bad_words
                    for g in ngrams_zip(v.norm_words, n)
                )
        return float(num)

    # ---------------- line-level ----------------

    def line_signals(self, content: str) -> Dict[str, Optional[List[float]]]:
        return self.line_signals_view(DocView(content))

    def line_signals_view(
        self, v: DocView
    ) -> Dict[str, Optional[List[float]]]:
        out: Dict[str, Optional[List[float]]] = {}
        # lines.py:33-49 (normalized lines)
        out["rps_lines_javascript_counts"] = [
            0.0
            if len(s.text) == 0
            else float(sum(1 for w in s.text.split() if w == "javascript"))
            for s in v.norm_lines
        ]
        # lines.py:52-67 (raw lines)
        out["rps_lines_ending_with_terminal_punctution_mark"] = [
            float(s.text.rstrip().endswith(_TERMINAL_PUNCT))
            for s in v.raw_lines
        ]
        # lines.py:70-81 (normalized lines)
        out["rps_lines_num_words"] = [
            float(len(s.text.split())) for s in v.norm_lines
        ]
        # lines.py:84-98 (raw lines)
        out["rps_lines_uppercase_letter_fraction"] = [
            0.0
            if len(s.text) == 0
            else _round(sum(map(str.isupper, s.text)) / len(s.text))
            for s in v.raw_lines
        ]
        # lines.py:101-116 (normalized lines)
        out["rps_lines_numerical_chars_fraction"] = [
            0.0
            if len(s.text) == 0
            else _round(sum(map(str.isnumeric, s.text)) / len(s.text))
            for s in v.norm_lines
        ]
        # lines.py:119-153 (raw lines; empty doc -> null list)
        if len(v.raw_lines) == 0:
            out["rps_lines_start_with_bulletpoint"] = None
        else:
            out["rps_lines_start_with_bulletpoint"] = [
                float(s.text.lstrip().startswith(_BULLETS))
                for s in v.raw_lines
            ]
        return out

    def all_signals(self, content: str) -> Dict[str, object]:
        """Doc + line signals in one dict over a single DocView pass."""
        v = DocView(content)
        out: Dict[str, object] = {}
        out.update(self.doc_signals_view(v))
        out.update(self.line_signals_view(v))
        return out


# ---------------- batch view ----------------

# per-code-point flag bits of a batch's text (see _char_flags)
_UPPER, _SPACE, _PUNCT, _WORD = 1, 2, 4, 8
_NEWLINE = ord("\n")
_DOT = ord(".")
_TERMINAL_CPS = [ord(c) for c in _TERMINAL_PUNCT]
_BULLET_CPS = [ord(c) for c in _BULLETS]


def _char_flags(cp: np.ndarray) -> np.ndarray:
    """``str.isupper`` / ``str.isspace`` / punctuation-strip / regex
    ``\\w`` flags of every code point in ``cp``, evaluated once per
    distinct code point of the batch (a full 0x110000 evaluation costs
    ~0.5 s)."""
    seen = np.zeros(0x110000, dtype=bool)
    seen[cp] = True
    distinct = np.flatnonzero(seen).tolist()
    table = np.zeros(0x110000, dtype=np.uint8)
    table[distinct] = [
        _UPPER * ch.isupper()
        + _SPACE * ch.isspace()
        + _PUNCT * (c in _PUNCT_TABLE_)
        + _WORD * (ch.isalnum() or ch == "_")
        for c, ch in zip(distinct, map(chr, distinct))
    ]
    return table[cp]


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Segment boundaries (len n+1) of consecutive segments."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _span_sum(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Exact integer sum of ``values[starts[i]:ends[i]]`` for every i."""
    cs = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return cs[ends] - cs[starts]


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0.0 (the IEEE quotient Python's
    int / int gives)."""
    out = np.zeros(len(num), dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _rounded(x: np.ndarray) -> List[float]:
    # Python round, not np.round: they differ in the last bit
    return list(map(round, x.tolist(), repeat(PRECISION)))


def _col(values, null: Optional[np.ndarray] = None) -> pa.Array:
    return pa.array(values, pa.float64(), mask=null)


class BatchView:
    """Every doc and line signal of a whole batch, one column at a time.

    The batch counterpart of :class:`DocView` + :class:`SignalKernel`,
    which stay the per-document oracle it is tested bit-equal against.
    Per document only C-level ``str`` calls run (the normalization,
    the word split, the sentence regex); everything per word or per
    line is numpy over the batch:

    - characters: the batch's text joined by "\\n" is one code-point
      array, and ``isupper`` / ``isspace`` / ``\\w`` are taken once per
      distinct code point;
    - words: the normalized words of all documents (one ``str`` split
      per document) and the raw words (cut from the batch's UTF-8
      bytes at the ``\\w`` / non-space runs) are dictionary-encoded
      with Arrow; each per-word property (length, ``_ALPHA_RE``,
      ``isupper``, stop-word and LDNOOBW membership per language,
      crc32) is taken once per distinct word and summed per document
      through the offsets;
    - lines: the line signals are per-line segment sums over the
      code-point and word arrays;
    - repetition signals run level by level over the batch's word
      codes (``repetitions.repetition_signals_batch``); token hashes
      take one crc32 per distinct word and per distinct word pair.

    Floats stay bit-equal to the oracle: sums keep the reference's
    order and rounding is Python ``round(x, 8)``.
    """

    def __init__(self, texts: Sequence[str]):
        from unicodedata import normalize as _nfd

        n = len(texts)
        self.n = n
        self.norm_words: List[List[str]] = []
        norm_flat: List[str] = []
        n_norm = np.zeros(n, dtype=np.int64)
        chars = np.zeros(n, dtype=np.int64)
        pieces = np.zeros(n, dtype=np.int64)
        self.sentences = np.zeros(n, dtype=np.float64)
        self.symbols = np.zeros(n, dtype=np.float64)
        self.lorem: List[float] = [0.0] * n
        self.curly: List[float] = [0.0] * n
        for i, t in enumerate(texts):
            stripped = t.translate(_PUNCT_TABLE_).lower()
            norm = _nfd("NFD", " ".join(stripped.split()))
            words = norm.split()
            self.norm_words.append(words)
            norm_flat.extend(words)
            n_norm[i] = len(words)
            chars[i] = len(t)
            pieces[i] = t.count("\n") + 1
            self.sentences[i] = len(_SENT_RE.findall(t))
            self.symbols[i] = sum(t.count(s) for s in _SYMBOLS)
            if "lorem ipsum" in norm:
                self.lorem[i] = _round(
                    len(_LOREM_RE.findall(norm)) / len(norm)
                )
            if "{" in t or "}" in t:
                self.curly[i] = _round(
                    (t.count("{") + t.count("}")) / len(t)
                )
        self.n_norm = n_norm
        self.norm_bounds = _bounds(n_norm)
        enc = pa.array(norm_flat, pa.string()).dictionary_encode()
        self.norm_codes = enc.indices.to_numpy()
        self.norm_vocab: List[str] = enc.dictionary.to_pylist()
        self.norm_len = np.fromiter(
            map(len, self.norm_vocab), np.int64, len(self.norm_vocab)
        )
        # the whole batch as one code-point array, documents joined
        # by "\n" (whitespace: no word and no line spans two documents)
        joined = "\n".join(texts)
        cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        flags = _char_flags(cp)
        doc_start = _bounds(chars + 1)[:-1]
        self._raw_words(joined, cp, flags, doc_start, doc_start + chars)
        self._hashes = None
        self._lines(cp, flags, pieces)

    def _raw_words(self, joined, cp, flags, doc_start, doc_end) -> None:
        """``wordpunct_tokenize`` of every document as dictionary codes:
        a token is a maximal run of ``\\w`` characters or of other
        non-space characters. The token strings are cut from the
        batch's UTF-8 bytes with the spaces removed, so every token is
        one slice of that buffer and no per-token ``str`` is made."""
        # isspace and \\w never hold together: 0 other, _SPACE, _WORD
        kind = flags & (_SPACE | _WORD)
        solid = kind != _SPACE
        start = np.flatnonzero(
            solid & (kind != np.concatenate(([_SPACE], kind[:-1])))
        )
        self.n_raw = np.searchsorted(start, doc_end) - np.searchsorted(
            start, doc_start
        )
        self.raw_bounds = _bounds(self.n_raw)
        # UTF-8 length of each code point, then the bytes of the
        # non-space code points only
        width = np.ones(len(cp), dtype=np.uint8)
        for limit in (0x80, 0x800, 0x10000):
            width += cp >= limit
        data = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)[
            np.repeat(solid, width)
        ]
        before = _bounds(width * solid)  # bytes kept before each one
        offsets = np.concatenate((before[start], before[-1:]))
        tokens = pa.LargeStringArray.from_buffers(
            len(offsets) - 1, pa.py_buffer(offsets), pa.py_buffer(data)
        )
        enc = tokens.dictionary_encode()
        self.raw_codes = enc.indices.to_numpy()
        self.raw_vocab: List[str] = enc.dictionary.to_pylist()

    def _lines(self, cp, flags, pieces: np.ndarray) -> None:
        """Line geometry over the batch's code points. A document of
        k newlines holds k + 1 "\\n"-separated pieces; each piece is a
        raw line except a document's last one when it is empty
        (``split_lines`` yields no line after a final "\\n")."""
        total = int(pieces.sum())
        nl = np.flatnonzero(cp == _NEWLINE)
        starts = np.concatenate(([0], nl + 1))[:total]
        ends = np.concatenate((nl, [len(cp)]))[:total]
        last = np.cumsum(pieces) - 1
        is_line = np.ones(total, dtype=bool)
        is_line[last] = ends[last] > starts[last]
        # a raw line keeps its "\n"; a document's last piece has none
        line_len = ends - starts + 1
        line_len[last] -= 1
        space = (flags & _SPACE) != 0
        # non-space positions, with sentinels: the last one at or
        # before a piece's end is its rstrip() end, the first one at
        # or after its start is its lstrip() start
        solid = np.concatenate(([-1], np.flatnonzero(~space), [len(cp)]))
        tail = solid[np.searchsorted(solid, ends) - 1]
        head = solid[np.searchsorted(solid, starts)]
        has_tail = tail >= starts
        cpx = np.concatenate((cp, [0]))  # head == len(cp) reads the pad

        def at(pos):
            return cpx[np.clip(pos, 0, len(cp))]

        dot_run = (
            (at(tail) == _DOT)
            & (tail - 2 >= starts)
            & (at(tail - 1) == _DOT)
            & (at(tail - 2) == _DOT)
        )
        ellipsis = has_tail & ((at(tail) == ord("…")) | dot_run)
        upper = _span_sum((flags & _UPPER) != 0, starts, ends)
        self._is_line = is_line
        piece_doc = np.repeat(np.arange(self.n), pieces)
        self.n_lines = np.bincount(piece_doc[is_line], minlength=self.n)
        self.n_ellipsis = np.bincount(
            piece_doc[is_line & ellipsis], minlength=self.n
        )
        self._raw_line = {
            "rps_lines_ending_with_terminal_punctution_mark": has_tail
            & np.isin(at(tail), _TERMINAL_CPS),
            "rps_lines_uppercase_letter_fraction": _ratio(upper, line_len),
            "rps_lines_start_with_bulletpoint": (head < ends)
            & np.isin(at(head), _BULLET_CPS),
        }
        # words per piece of the normalized text: runs of non-space
        # characters once the punctuation strip deleted its characters
        # (lower() and NFD neither make nor remove whitespace)
        kept = (flags & _PUNCT) == 0
        kspace = space[kept]
        word_start = ~kspace & np.concatenate(([True], kspace[:-1]))
        piece_of = np.cumsum(cp[kept] == _NEWLINE)
        self._piece_words = np.bincount(
            piece_of[word_start], minlength=total
        )

    def _per_doc(self, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        return _span_sum(values, bounds[:-1], bounds[1:])

    def doc_signals(
        self, kernels: Sequence[SignalKernel], kernel_idx: np.ndarray
    ) -> Dict[str, pa.Array]:
        """Every doc signal column; row i uses the stop-word and
        LDNOOBW tables of ``kernels[kernel_idx[i]]``."""
        n = self.n
        n_norm, n_raw = self.n_norm, self.n_raw
        no_norm, no_raw = n_norm == 0, n_raw == 0
        raw_kernel = np.repeat(kernel_idx, n_raw)
        norm_doc = np.repeat(np.arange(n), n_norm)
        out: Dict[str, pa.Array] = {}
        out["rps_doc_num_sentences"] = _col(self.sentences)
        out["rps_doc_word_count"] = _col(n_norm.astype(np.float64))
        word_chars = self._per_doc(
            self.norm_len[self.norm_codes], self.norm_bounds
        )
        out["rps_doc_mean_word_length"] = _col(
            _rounded(_ratio(word_chars, n_norm)), no_norm
        )
        out["rps_doc_symbol_to_word_ratio"] = _col(
            _rounded(_ratio(self.symbols, n_raw)), no_raw
        )
        out["rps_doc_frac_lines_end_with_ellipsis"] = _col(
            _rounded(_ratio(self.n_ellipsis, self.n_lines)),
            self.n_lines == 0,
        )
        # per distinct raw word: alpha, all-caps, and one stop-word
        # bit per kernel; a row reads the bit of its own kernel
        search = _ALPHA_RE.search
        alpha = np.array(
            [search(w) is not None for w in self.raw_vocab], dtype=bool
        )
        caps = np.array([w.isupper() for w in self.raw_vocab], dtype=bool)
        stop_bits = np.array(
            [
                sum(
                    1 << j
                    for j, k in enumerate(kernels)
                    if w in k.stop_words
                )
                for w in self.raw_vocab
            ],
            dtype=np.int64,
        )
        codes = self.raw_codes
        n_alpha = self._per_doc(alpha[codes], self.raw_bounds)
        n_caps = self._per_doc(caps[codes], self.raw_bounds)
        n_stop = self._per_doc(
            (stop_bits[codes] >> raw_kernel) & 1, self.raw_bounds
        )
        out["rps_doc_frac_no_alph_words"] = _col(
            _rounded(1.0 - _ratio(n_alpha, n_raw)), no_raw
        )
        # one np.unique over (document, word) pairs serves the unique
        # fraction, the entropy and level 1 of the repetition signals
        key = norm_doc * max(len(self.norm_vocab), 1) + self.norm_codes
        _, first, pair, pair_count = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        unique, entropy = self._unigram_stats(norm_doc, first, pair_count)
        out["rps_doc_frac_unique_words"] = _col(
            _rounded(_ratio(unique, n_norm)), no_norm
        )
        out["rps_doc_unigram_entropy"] = _col(_rounded(entropy), no_norm)
        out["rps_doc_frac_all_caps_words"] = _col(
            _rounded(_ratio(n_caps, n_raw)), no_raw
        )
        from .repetitions import repetition_signals_batch

        reps = repetition_signals_batch(
            pair,
            pair_count[pair],
            self.norm_codes,
            self.norm_len[self.norm_codes],
            self.norm_bounds,
        )
        for name, values in reps.items():
            out[name] = _col(values)
        out["rps_doc_lorem_ipsum"] = _col(self.lorem)
        out["rps_doc_curly_bracket"] = _col(self.curly)
        out["rps_doc_ldnoobw_words"] = _col(
            self._ldnoobw(kernels, kernel_idx, norm_doc).astype(np.float64)
        )
        # guard on normalized words, ratio over raw words (reference)
        out["rps_doc_stop_word_fraction"] = _col(
            _rounded(np.where(no_norm, 0.0, _ratio(n_stop, n_raw)))
        )
        return {name: out[name] for name in DOC_SIGNAL_NAMES}

    def _unigram_stats(self, norm_doc, first, counts):
        """Distinct-word count and unigram entropy per document, from
        the first position and count of each (document, word) pair.
        The entropy is a Python sum over each document's distinct words
        in first-occurrence order, as the oracle's Counter sums it."""
        n, n_norm = self.n, self.n_norm
        order = np.argsort(first)
        counts = counts[order].astype(np.float64)
        doc = norm_doc[first[order]]
        unique = np.bincount(doc, minlength=n)
        total = n_norm[doc].astype(np.float64)
        p = counts / total
        logs = np.array(list(map(math.log, p.tolist())))  # not np.log
        terms = (-counts / total * logs).tolist()
        b = _bounds(unique).tolist()
        entropy = np.array(
            [sum(terms[b[i] : b[i + 1]]) for i in range(n)], dtype=np.float64
        )
        return unique, entropy

    def _ldnoobw(
        self,
        kernels: Sequence[SignalKernel],
        kernel_idx: np.ndarray,
        norm_doc: np.ndarray,
    ) -> np.ndarray:
        """LDNOOBW hits per document: single-word entries through one
        bit per kernel on the normalized vocabulary, multi-word entries
        as code n-grams matched inside each document."""
        n, codes, vocab = self.n, self.norm_codes, self.norm_vocab
        bits = np.array(
            [
                sum(
                    1 << j
                    for j, k in enumerate(kernels)
                    if 1 in k._bad_gram_vals and w in k.bad_words
                )
                for w in vocab
            ],
            dtype=np.int64,
        )
        hits = self._per_doc(
            (bits[codes] >> np.repeat(kernel_idx, self.n_norm)) & 1,
            self.norm_bounds,
        )
        index = None
        for j, k in enumerate(kernels):
            rows = kernel_idx == j
            for entry in k.bad_words:
                if " " not in entry or not rows.any():
                    continue
                if index is None:
                    index = {w: i for i, w in enumerate(vocab)}
                gram = [index.get(w) for w in entry.split(" ")]
                m = len(codes) - len(gram) + 1
                if None in gram or m <= 0:
                    continue
                match = norm_doc[:m] == norm_doc[len(gram) - 1 :]
                for o, c in enumerate(gram):
                    match &= codes[o : o + m] == c
                hits += np.bincount(norm_doc[:m][match], minlength=n) * rows
        return hits

    def line_signals(self) -> Dict[str, pa.Array]:
        """Every line signal column (list<float64> per document)."""
        words = self._piece_words
        piece = np.repeat(np.arange(len(words)), words)
        codes = self.norm_codes

        def per_piece(weights):
            return np.bincount(piece, weights=weights, minlength=len(words))

        vocab = self.norm_vocab
        js = vocab.index("javascript") if "javascript" in vocab else -1
        numeric = np.array(
            [sum(map(str.isnumeric, w)) for w in vocab],
            dtype=np.float64,
        )
        # a normalized line is its words joined by single spaces
        chars = per_piece(self.norm_len[codes].astype(np.float64))
        chars += np.maximum(words - 1, 0)
        norm_line = {
            "rps_lines_javascript_counts": per_piece(
                (codes == js).astype(np.float64)
            ),
            "rps_lines_num_words": words.astype(np.float64),
            "rps_lines_numerical_chars_fraction": _ratio(
                per_piece(numeric[codes]), chars
            ),
        }
        lines = self._is_line
        offsets = pa.array(_bounds(self.n_lines), pa.int32())
        out: Dict[str, pa.Array] = {}
        for name in LINE_SIGNAL_NAMES:
            v = self._raw_line.get(name)
            v = (norm_line[name] if v is None else v)[lines]
            if name in (
                "rps_lines_uppercase_letter_fraction",
                "rps_lines_numerical_chars_fraction",
            ):
                v = _rounded(v)
            null = (
                pa.array(self.n_lines == 0)
                if name == "rps_lines_start_with_bulletpoint"
                else None
            )
            out[name] = pa.ListArray.from_arrays(
                offsets, _col(np.asarray(v, dtype=np.float64)), mask=null
            )
        return out

    def token_hashes(self, i: int) -> np.ndarray:
        """``importance.token_hashes`` of document i's raw words: crc32
        of every unigram, then of every space-joined bigram, each taken
        once per distinct word or word pair of the batch."""
        if self._hashes is None:
            enc = [w.encode("utf-8") for w in self.raw_vocab]
            uni = np.array(list(map(zlib.crc32, enc)), dtype=np.uint64)
            codes = self.raw_codes.astype(np.uint64)
            # pairs inside a document: drop the one that spans a boundary
            inner = np.ones(max(len(codes) - 1, 0), dtype=bool)
            cut = self.raw_bounds[1:-1]
            inner[cut[(cut > 0) & (cut < len(codes))] - 1] = False
            pairs = ((codes[:-1] << np.uint64(32)) | codes[1:])[inner]
            uniq, inv = np.unique(pairs, return_inverse=True)
            crc, sp, mask = zlib.crc32, b" ", np.uint64(0xFFFFFFFF)
            bi = np.array(
                [
                    crc(enc[a] + sp + enc[b])
                    for a, b in zip(
                        (uniq >> np.uint64(32)).tolist(),
                        (uniq & mask).tolist(),
                    )
                ],
                dtype=np.uint64,
            )
            pair_bounds = _bounds(np.maximum(self.n_raw - 1, 0))
            self._hashes = (uni, bi[inv], pair_bounds)
        uni, bi, pb = self._hashes
        b = self.raw_bounds
        return np.concatenate(
            (uni[self.raw_codes[b[i] : b[i + 1]]], bi[pb[i] : pb[i + 1]])
        )
