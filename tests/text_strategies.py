"""Shared hypothesis strategies: adversarial text for the signal kernels.

Every text signal splits, strips, cases or counts characters, and each
of those steps has Unicode corner cases where Python, Arrow and the
reference can disagree. ``adversarial_text`` draws documents built
from atoms that hit them:

- line breaks: CRLF, lone CR, and the characters ``str.split`` treats
  as whitespace but the line splitter does not (``\\x0b \\x0c \\x1c-\\x1f
  \\x85 \\u2028 \\u2029 \\u3000``);
- combining marks, non-BMP letters and emoji;
- ``Ⓐ`` (``isupper`` but not a letter), ``½`` and ``٣`` (``isnumeric``);
- empty and whitespace-only lines, a trailing newline;
- punctuation-only words, ellipses, bullets, curly brackets;
- stop words of the five signal languages, LDNOOBW words and phrases,
  ``javascript`` and ``lorem ipsum``.

``adversarial_rows`` draws ``(text, language)`` rows with ``""`` and
``None`` texts and a language per row from the five signal languages
plus ones that fall back to English. ``repetitive_text`` draws from a
handful of words, so n-grams up to length 10 repeat.
"""

from hypothesis import strategies as st

LANGUAGES = ("en", "fr", "de", "es", "it")

_WORDS = (
    # stop words of each signal language
    "the", "and", "of", "le", "les", "et", "der", "und", "die",
    "el", "los", "y", "il", "che", "di",
    # LDNOOBW words and phrases (multi-word entries match as n-grams)
    "sex", "toy", "deep", "throat", "xxx", "video", "merde", "sexo",
    "cazzo", "scheiße",
    # line and doc signal triggers
    "javascript", "JavaScript", "lorem", "ipsum", "Lorem", "IPSUM",
    "def", "return", "x_1", "foo_bar", "CONST", "Ünïcödé", "naïve",
    "straße", "İstanbul", "ΟΔΟΣ", "é", "́a", "ä́",
    "𝐀𝐁", "😀", "Ⓐ", "ⓐⒶ", "½", "٣", "Ⅻ", "123", "4.5", "0x1F",
)
_PUNCT = (
    ".", "...", "…", "!", "?", "”", "#", "##", "{", "}", "{}", "---",
    "''", '"', "()", "•", "–", "▶", "■", "@", "_", ";", ":", "/", "\\",
)
_SPACES = (
    " ", "  ", "\t", "\n", "\n\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
    "\x1d", "\x1e", "\x1f", "\x85", " ", " ", "　",
    " ", " \n ",
)

_atom = st.one_of(
    st.sampled_from(_WORDS),
    st.sampled_from(_PUNCT),
    st.sampled_from(_SPACES),
    # anything else Unicode has (no surrogates: Arrow text is UTF-8)
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
    ),
)


@st.composite
def adversarial_text(draw, max_atoms: int = 40) -> str:
    """One document of adversarial atoms, sometimes empty, whitespace
    only, or ending in a newline."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return ""
    if kind == 1:
        return "".join(draw(st.lists(st.sampled_from(_SPACES), max_size=5)))
    text = "".join(draw(st.lists(_atom, max_size=max_atoms)))
    if draw(st.booleans()):
        text += "\n"
    return text


@st.composite
def adversarial_rows(draw, max_rows: int = 8):
    """A batch of ``(text, language)`` rows; ``text`` may be ``None``,
    and a language outside ``LANGUAGES`` selects the English tables."""
    return draw(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.just(""), adversarial_text()),
                st.sampled_from(LANGUAGES + ("code", "zz", None)),
            ),
            min_size=1,
            max_size=max_rows,
        )
    )


def repetitive_text(max_words: int = 80):
    """Words from a tiny vocabulary: most n-grams repeat, some only
    across a line break or at a document's end."""
    word = st.sampled_from(("a", "bb", "a", "ccc", "é", "the", "a\n"))
    return st.lists(word, max_size=max_words).map(" ".join)
