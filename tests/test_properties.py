"""Property-based tests (SURVEY.md §5.4): invariants over arbitrary
text, checked with hypothesis."""

from hypothesis import given, settings, strategies as st

from redpajama_data_ray.functions.doc_signals import SignalKernel
from redpajama_data_ray.functions.minhash import MinHasher
from redpajama_data_ray.functions.pii import scrub_text
from redpajama_data_ray.functions.rules import RULE_IDS, decide
from redpajama_data_ray.text import normalize
from text_strategies import adversarial_text

_K = SignalKernel()
_M = MinHasher(ngram_size=3)

_text = st.text(max_size=400)
_tokens = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=8,
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(_text)
def test_normalize_idempotent(s):
    once = normalize(s)
    assert normalize(once) == once


@settings(max_examples=60, deadline=None)
@given(adversarial_text())
def test_fraction_signals_in_unit_interval(s):
    sig = _K.doc_signals(s)
    for name in (
        "rps_doc_frac_lines_end_with_ellipsis",
        "rps_doc_frac_no_alph_words",
        "rps_doc_frac_unique_words",
        "rps_doc_frac_all_caps_words",
        "rps_doc_stop_word_fraction",
    ):
        v = sig[name]
        assert v is None or 0.0 <= v <= 1.0, (name, v, s)
    for n in range(5, 11):
        v = sig[f"rps_doc_frac_chars_dupe_{n}grams"]
        assert 0.0 <= v <= 1.0


@settings(max_examples=60, deadline=None)
@given(adversarial_text())
def test_dupe_fraction_monotone_in_n(s):
    sig = _K.doc_signals(s)
    vals = [sig[f"rps_doc_frac_chars_dupe_{n}grams"] for n in range(5, 11)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


@settings(max_examples=60, deadline=None)
@given(_tokens)
def test_minhash_depends_only_on_shingle_set(tokens):
    s1 = _M.banded_signatures(tokens)
    s2 = _M.banded_signatures(list(tokens))
    assert s1 == s2
    if len(tokens) < 3:
        assert all(v is None for v in s1.values())
    else:
        assert all(v is not None for v in s1.values())


@settings(max_examples=80, deadline=None)
@given(_text)
def test_pii_scrub_idempotent(s):
    once, counts1 = scrub_text(s)
    twice, counts2 = scrub_text(once)
    assert twice == once
    assert all(v == 0 for v in counts2.values())


@settings(max_examples=60, deadline=None)
@given(adversarial_text())
def test_decide_total_and_deterministic(s):
    sig = dict(_K.doc_signals(s))
    sig["lang_score"] = 0.9
    sig["ppl_bucket"] = "head"
    keep1, reasons1 = decide(sig)
    keep2, reasons2 = decide(dict(reversed(list(sig.items()))))
    assert (keep1, reasons1) == (keep2, reasons2)
    assert set(reasons1) <= set(RULE_IDS)
    assert keep1 == (len(reasons1) == 0)


# ---------------- multimodal codec properties ----------------

from hypothesis import given, settings as _settings
from hypothesis import strategies as st


@given(
    h=st.integers(1, 24), w=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
@_settings(max_examples=30, deadline=None)
def test_bmp_roundtrip_property(h, w, seed):
    import numpy as np

    from redpajama_data_ray.multimodal.stages import decode_image, encode_bmp

    px = np.random.default_rng(seed).integers(0, 256, (h, w, 3), np.uint8)
    assert np.array_equal(decode_image(encode_bmp(px)), px)


@given(
    h=st.integers(1, 24), w=st.integers(1, 24),
    c=st.sampled_from([1, 2, 3, 4]), seed=st.integers(0, 2**32 - 1),
)
@_settings(max_examples=30, deadline=None)
def test_png_roundtrip_property(h, w, c, seed):
    import numpy as np

    from redpajama_data_ray.multimodal.png import decode_png, encode_png

    shape = (h, w) if c == 1 else (h, w, c)
    px = np.random.default_rng(seed).integers(0, 256, shape, np.uint8)
    out = decode_png(encode_png(px))
    assert out.shape == (h, w, 3)
    if c == 3:
        assert np.array_equal(out, px)
    elif c == 4:
        assert np.array_equal(out, px[:, :, :3])
    elif c == 1:
        base = px if px.ndim == 2 else px[:, :, 0]
        assert np.array_equal(out[:, :, 0], base)


@given(
    n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
)
@_settings(max_examples=20, deadline=None)
def test_wav_roundtrip_property(n, seed):
    import numpy as np

    from redpajama_data_ray.multimodal.stages import decode_wav, encode_wav

    x = np.random.default_rng(seed).uniform(-1, 1, n)
    s, rate = decode_wav(encode_wav(x))
    assert rate == 16000 and len(s) == n
    assert np.abs(s - x).max() < 1.0 / 32000


@given(
    h=st.integers(1, 32), w=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
@_settings(max_examples=25, deadline=None)
def test_jpeg_roundtrip_property(h, w, seed):
    """Baseline JPEG is lossy; at quality 95 a smooth gradient must
    round-trip within small quantization error, any size (odd widths,
    single-pixel edges, MCU padding)."""
    import numpy as np

    from redpajama_data_ray.multimodal.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    # bounded-slope gradient (<=3 levels/px): steeper content has
    # genuinely unbounded JPEG quantization error, smooth content must
    # round-trip tightly (measured worst over all sizes: max 11)
    g = np.clip(
        yy * 3 + xx * 2 + int(rng.integers(0, 32)), 0, 255
    ).astype(np.uint8)
    px = np.stack(
        [g, 255 - g, (g // 2 + 60).astype(np.uint8)], axis=-1
    )
    out = decode_jpeg(encode_jpeg(px, quality=95))
    assert out.shape == (h, w, 3)
    err = np.abs(out.astype(int) - px.astype(int))
    assert err.max() <= 14 and err.mean() <= 5.0


def test_jpeg_flat_color_exact():
    """A flat block is pure DC energy — must survive encode/decode with
    at most rounding error."""
    import numpy as np

    from redpajama_data_ray.multimodal.jpeg import decode_jpeg, encode_jpeg

    px = np.full((16, 16, 3), 137, np.uint8)
    out = decode_jpeg(encode_jpeg(px, quality=90))
    assert np.abs(out.astype(int) - 137).max() <= 2


def test_jpeg_grayscale_and_dispatch():
    import numpy as np

    from redpajama_data_ray.multimodal.jpeg import encode_jpeg
    from redpajama_data_ray.multimodal.stages import decode_image

    g = np.tile(np.arange(48, dtype=np.uint8) * 5, (24, 1))
    out = decode_image(encode_jpeg(g, quality=95))  # magic-byte dispatch
    assert out.shape == (24, 48, 3)
    assert np.abs(out[:, :, 0].astype(int) - g.astype(int)).max() <= 3


def test_jpeg_progressive_rejected():
    import pytest

    from redpajama_data_ray.multimodal.jpeg import decode_jpeg

    # hand-built SOI + SOF2 marker
    payload = b"\xff\xd8\xff\xc2\x00\x0b\x08\x00\x10\x00\x10\x01\x01\x11\x00"
    with pytest.raises(NotImplementedError, match="progressive"):
        decode_jpeg(payload)


def test_jpeg_420_subsampled_roundtrip():
    """4:2:0 exercises the decoder's 2x2-Y multi-block MCU path and
    chroma upsampling. On chroma-flat content (r=g=b) subsampling
    loses nothing, so the bound stays tight; on colored gradients the
    loss is the (expected) half-resolution chroma."""
    import numpy as np

    from redpajama_data_ray.multimodal.jpeg import decode_jpeg, encode_jpeg

    for h, w in [(16, 16), (9, 7), (33, 31), (1, 1)]:
        yy, xx = np.mgrid[0:h, 0:w]
        g = np.clip(yy * 3 + xx * 2 + 9, 0, 255).astype(np.uint8)
        # chroma-flat: tight bound even subsampled
        flat = np.repeat(g[:, :, None], 3, axis=2)
        out = decode_jpeg(encode_jpeg(flat, quality=95, subsample=True))
        assert out.shape == (h, w, 3)
        assert np.abs(out.astype(int) - flat.astype(int)).max() <= 8
        # colored: bounded mean error (chroma loss is real but small)
        col = np.stack(
            [g, 255 - g, (g // 2 + 60).astype(np.uint8)], axis=-1
        )
        out2 = decode_jpeg(encode_jpeg(col, quality=95, subsample=True))
        err = np.abs(out2.astype(int) - col.astype(int))
        assert err.mean() <= 10.0


def test_jpeg_random_content_roundtrip_and_dqt_zigzag():
    """Random (high-frequency) content must round-trip within normal
    baseline-JPEG error — the natural-order DQT bytes the encoder
    used to emit scrambled every decoder's dequantization step sizes
    (measured mean abs error ~38/channel before the zigzag fix, ~3
    after)."""
    import numpy as np

    from redpajama_data_ray.multimodal.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    out = decode_jpeg(encode_jpeg(px, quality=95))
    err = np.abs(out.astype(int) - px.astype(int))
    assert err.mean() < 12.0  # scrambled tables read ~38 here


def test_jpeg_fill_bytes_and_truncation():
    """T.81 B.1.1.2 fill bytes (0xFF padding before a marker) must
    parse; a payload ending in a lone 0xFF must raise ValueError, not
    IndexError."""
    import numpy as np
    import pytest

    from redpajama_data_ray.multimodal.jpeg import decode_jpeg, encode_jpeg

    px = np.full((8, 8, 3), 90, dtype=np.uint8)
    buf = encode_jpeg(px, quality=90)
    dqt = buf.index(b"\xff\xdb")
    padded = buf[:dqt] + b"\xff" + buf[dqt:]  # fill byte before DQT
    out = decode_jpeg(padded)
    assert out.shape == (8, 8, 3)
    with pytest.raises(ValueError, match="lone 0xFF"):
        decode_jpeg(b"\xff\xd8\xff")


def test_jpeg_multiscan_rejected_by_name():
    """A first scan covering fewer components than the SOF declares
    (legal non-interleaved baseline) raises NotImplementedError
    instead of silently leaving chroma planes zero."""
    import numpy as np
    import pytest

    from redpajama_data_ray.multimodal.jpeg import decode_jpeg, encode_jpeg

    px = np.full((8, 8, 3), 90, dtype=np.uint8)
    buf = bytearray(encode_jpeg(px, quality=90))
    sos = bytes(buf).index(b"\xff\xda")
    # rewrite the SOS header to a single-component scan (ns=1)
    seglen = int.from_bytes(buf[sos + 2 : sos + 4], "big")
    single = (
        b"\xff\xda" + (3 + 2 + 1).to_bytes(2, "big") + b"\x01"
        + bytes([buf[sos + 5], buf[sos + 6]]) + b"\x00\x3f\x00"
    )
    patched = bytes(buf[:sos]) + single + bytes(buf[sos + 2 + seglen:])
    with pytest.raises(NotImplementedError, match="multi-scan"):
        decode_jpeg(patched)


def test_netpbm_maxval_scaling():
    """P5/P6 samples are stored 0..maxval — decode must scale to the
    0..255 pixel range (a maxval=15 PGM is not a near-black image)."""
    import numpy as np

    from redpajama_data_ray.multimodal.stages import decode_image

    p5 = b"P5\n2 2\n15\n" + bytes([0, 5, 10, 15])
    out = decode_image(p5)
    assert out[:, :, 0].flatten().tolist() == [0, 85, 170, 255]
    assert (out[:, :, 0] == out[:, :, 1]).all()
    # maxval=255 stays byte-exact
    p6 = b"P6\n1 1\n255\n" + bytes([7, 8, 9])
    assert decode_image(p6).flatten().tolist() == [7, 8, 9]
