"""The batch view (``functions/doc_signals.py`` ``BatchView``) against
its per-document oracle, ``DocView`` + ``SignalKernel``: every doc and
line column bit-equal (values, ``None`` and null placement, list
lengths), the same token hashes and normalized words, on hypothesis
batches of adversarial text with a language per row."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from redpajama_data_ray.functions.doc_signals import (
    DOC_SIGNAL_NAMES,
    LINE_SIGNAL_NAMES,
    BatchView,
    DocView,
    SignalKernel,
)
from redpajama_data_ray.functions.importance import token_hashes
from redpajama_data_ray.functions.rules import RuleConfig
from redpajama_data_ray.stages.annotate import AnnotateStage
from text_strategies import LANGUAGES, adversarial_rows, repetitive_text

_KERNELS = [SignalKernel(language=lang) for lang in LANGUAGES]


def _same(got, want) -> bool:
    # repr tells 0.1 + 0.2 from 0.3 and None from 0.0; == alone
    # would also accept -0.0 for 0.0
    return got == want and repr(got) == repr(want)


def _assert_batch_matches_oracle(texts, langs):
    idx = [LANGUAGES.index(x) if x in LANGUAGES else 0 for x in langs]
    view = BatchView(texts)
    cols = view.doc_signals(_KERNELS, np.array(idx, dtype=np.int64))
    assert list(cols) == list(DOC_SIGNAL_NAMES)
    lines = view.line_signals()
    assert list(lines) == list(LINE_SIGNAL_NAMES)
    for col in list(cols.values()) + list(lines.values()):
        assert len(col) == len(texts)
    for i, text in enumerate(texts):
        v = DocView(text)
        kernel = _KERNELS[idx[i]]
        want = kernel.doc_signals_view(v)
        want.update(kernel.line_signals_view(v))
        for name, col in list(cols.items()) + list(lines.items()):
            got = col[i].as_py()
            assert _same(got, want[name]), (name, i, text, got, want[name])
        assert view.norm_words[i] == v.norm_words
        assert np.array_equal(view.token_hashes(i), token_hashes(v.raw_words))
        assert view.token_hashes(i).dtype == np.uint64


@settings(max_examples=150, deadline=None)
@given(adversarial_rows())
def test_batch_view_bit_equal_to_per_document_oracle(rows):
    _assert_batch_matches_oracle(
        [t if t is not None else "" for t, _ in rows], [x for _, x in rows]
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(repetitive_text(), min_size=1, max_size=6))
def test_batch_repetition_signals_on_repetitive_text(texts):
    """The batch's repetition levels prune windows whose (n-1)-grams
    do not repeat; on text where most n-grams repeat across documents
    and lines, every level still matches the per-document path."""
    _assert_batch_matches_oracle(texts, ["en"] * len(texts))


def test_batch_view_edge_batches():
    """Batches the strategy rarely draws in full: empty, all-empty,
    documents that are only line breaks, multi-word LDNOOBW entries
    at document boundaries, and a long repetitive document."""
    for texts in (
        [],
        [""],
        ["", "", ""],
        ["\n", "\n\n", "a\n", "\r\n", "\n "],
        ["deep", "throat sex", "toy", "sex toy sex toys deep throat"],
        ["x...\n…\n  • b\n– c", "Lorem ipsum\nlorem ipsum dolor"],
        [("for i in range(10): print(i) # loop\n" * 300), "ⒶⒷ ½ ٣"],
    ):
        for lang in LANGUAGES + ("code",):
            _assert_batch_matches_oracle(texts, [lang] * len(texts))


_STAGE = AnnotateStage(include_scrub=True, rules=RuleConfig())


@settings(max_examples=25, deadline=None)
@given(adversarial_rows())
def test_annotate_stage_uses_each_rows_language(rows):
    """Through the stage: each row's doc and line signals equal the
    oracle kernel of the language the stage predicted for it."""
    texts = [t for t, _ in rows]
    out = _STAGE(pa.table({"content": pa.array(texts, pa.string())}))
    langs = out["lang_pred"].to_pylist()
    for i, text in enumerate(texts):
        lang = langs[i] if langs[i] in LANGUAGES else "en"
        kernel = _KERNELS[LANGUAGES.index(lang)]
        v = DocView(text or "")
        want = kernel.doc_signals_view(v)
        want.update(kernel.line_signals_view(v))
        for name in DOC_SIGNAL_NAMES + LINE_SIGNAL_NAMES:
            assert _same(out[name][i].as_py(), want[name]), (name, text)
