"""Golden tests for the real model-artifact parse paths (VERDICT r3
item 3): the pure-numpy fastText ``.bin`` reader and the pure-Python
HF ``tokenizer.json`` BPE reader return real scores/ids from real
format bytes — not just error branches.

Reference behaviors these mirror: fastText supervised predict
(`/root/reference/app/src/core/quality_signals/classifiers.py:58`)
and HF tokenizer encoding (`token_count.py:46,236-240`).
"""

import json
import math
import struct

import numpy as np
import pyarrow as pa
import pytest

from redpajama_data_ray.functions.fasttext_bin import (
    LOSS_OVA,
    ft_hash,
    load_fasttext_bin,
    write_fasttext_bin,
)
from redpajama_data_ray.functions.hf_tokenizer import HFTokenizer
from redpajama_data_ray.functions.model_loading import (
    load_classifier_model,
    load_langid_model,
    load_token_counter,
)

# ------------------------------------------------------------------
# fastText .bin
# ------------------------------------------------------------------


def test_ft_hash_fnv1a_vectors():
    """fastText's Dictionary::hash is FNV-1a-32 (signed-char XOR);
    for ASCII it equals the published FNV-1a test vectors."""
    assert ft_hash("") == 2166136261
    assert ft_hash("a") == 0xE40C292C
    assert ft_hash("hello") == 0x4F9F2CAB
    # non-ASCII bytes sign-extend (int8_t cast) — deterministic
    assert ft_hash("é") == 1023043777


def _write_tiny(path, **kw):
    """3-word 2-label analytic model: input rows are axis-aligned so
    expected probabilities are hand-computable."""
    words = ["</s>", "hello", "world"]
    labels = ["__label__good", "__label__bad"]
    inm = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], dtype=np.float32)
    om = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    if kw.get("bucket"):
        # extend the input matrix with bucket rows (nwords + bucket)
        rng = np.random.RandomState(7)
        inm = np.vstack(
            [inm, rng.randn(kw["bucket"], 2).astype(np.float32)]
        )
    write_fasttext_bin(str(path), words, labels, inm, om, dim=2, **kw)
    return inm, om


def test_roundtrip_predict_analytic(tmp_path):
    p = tmp_path / "tiny.bin"
    _write_tiny(p)
    m = load_fasttext_bin(str(p))
    assert m.nwords == 3 and m.nlabels == 2
    assert m.labels == ["__label__good", "__label__bad"]
    # "hello" -> ids {hello, </s>}, hidden = mean([2,0],[0,0]) = [1,0]
    # scores = [1, 0] -> p(good) = e/(e+1)
    labels, probs = m.predict("hello", k=2)
    assert labels[0] == "__label__good"
    assert probs[0] == pytest.approx(math.e / (math.e + 1), abs=1e-6)
    assert probs[1] == pytest.approx(1 / (math.e + 1), abs=1e-6)
    # "world" flips the argmax symmetrically
    labels2, probs2 = m.predict("world")
    assert labels2[0] == "__label__bad"
    assert probs2[0] == pytest.approx(math.e / (math.e + 1), abs=1e-6)
    # OOV-only with no buckets: only EOS contributes -> hidden zero ->
    # uniform softmax
    _, probs3 = m.predict("zzz", k=2)
    assert probs3[0] == pytest.approx(0.5, abs=1e-6)


def test_word_ngram_buckets(tmp_path):
    """word_ngrams=2 adds hashed bigram rows exactly as
    Dictionary::addWordNgrams computes them."""
    p = tmp_path / "ng.bin"
    bucket = 64
    inm, om = _write_tiny(p, bucket=bucket, word_ngrams=2)
    m = load_fasttext_bin(str(p))
    h_hello, h_world, h_eos = (
        ft_hash("hello"), ft_hash("world"), ft_hash("</s>"),
    )
    bi1 = (h_hello * 116049371 + h_world) % (2 ** 64) % bucket
    bi2 = (h_world * 116049371 + h_eos) % (2 ** 64) % bucket
    ids = [1, 2, 0, 3 + bi1, 3 + bi2]  # hello, world, </s>, bigrams
    hidden = inm[ids].mean(axis=0)
    scores = om @ hidden
    e = np.exp(scores - scores.max())
    want = e / e.sum()
    labels, probs = m.predict("hello world", k=2)
    got = dict(zip(labels, probs))
    assert got["__label__good"] == pytest.approx(
        float(want[0]), abs=1e-6
    )


def test_subword_buckets(tmp_path):
    """minn/maxn character n-grams enumerate like
    Dictionary::computeSubwords: over '<word>', whole padded word
    included, 1-char BOW/EOW-only grams skipped."""
    p = tmp_path / "sub.bin"
    bucket = 128
    inm, om = _write_tiny(p, bucket=bucket, minn=3, maxn=4)
    m = load_fasttext_bin(str(p))
    # OOV token "hey": padded "<hey>" (len 5), n in {3,4}
    grams = ["<he", "<hey", "hey", "hey>", "ey>"]
    ids = [3 + ft_hash(g) % bucket for g in grams] + [0]  # + </s>
    hidden = inm[ids].mean(axis=0)
    scores = om @ hidden
    e = np.exp(scores - scores.max())
    want = e / e.sum()
    labels, probs = m.predict("hey", k=2)
    got = dict(zip(labels, probs))
    assert got["__label__good"] == pytest.approx(
        float(want[0]), abs=1e-6
    )
    # in-vocab words also carry their subwords when maxn > 0
    grams_hello = [
        "<he", "<hel", "hel", "hell", "ell", "ello", "llo", "llo>",
        "lo>",
    ]
    ids2 = [1] + [3 + ft_hash(g) % bucket for g in grams_hello] + [0]
    hidden2 = inm[ids2].mean(axis=0)
    scores2 = om @ hidden2
    e2 = np.exp(scores2 - scores2.max())
    _, probs2 = m.predict("hello", k=2)
    lab2, pr2 = m.predict("hello", k=1)
    assert float(pr2[0]) == pytest.approx(
        float((e2 / e2.sum()).max()), abs=1e-6
    )


def test_ova_loss_sigmoid(tmp_path):
    p = tmp_path / "ova.bin"
    _write_tiny(p, loss=LOSS_OVA)
    m = load_fasttext_bin(str(p))
    labels, probs = m.predict("hello", k=2)
    assert probs[0] == pytest.approx(1 / (1 + math.e ** -1), abs=1e-6)
    assert probs[1] == pytest.approx(0.5, abs=1e-6)


def test_unsupported_variants_raise(tmp_path):
    words = ["</s>"]
    labels = ["__label__x", "__label__y"]
    inm = np.zeros((1, 2), dtype=np.float32)
    om = np.zeros((2, 2), dtype=np.float32)
    hs = tmp_path / "hs.bin"
    write_fasttext_bin(str(hs), words, labels, inm, om, dim=2, loss=1)
    with pytest.raises(NotImplementedError, match="hierarchical"):
        load_fasttext_bin(str(hs))
    # quantized flag set by hand
    good = tmp_path / "good.bin"
    write_fasttext_bin(str(good), words, labels, inm, om, dim=2)
    data = bytearray(good.read_bytes())
    # quant_input byte sits right after the dictionary block
    qpos = data.index(b"__label__y\x00") + len("__label__y\x00") + 9
    assert data[qpos] == 0
    data[qpos] = 1
    quant = tmp_path / "quant.bin"
    quant.write_bytes(bytes(data))
    with pytest.raises(NotImplementedError, match="quantized"):
        load_fasttext_bin(str(quant))
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_fasttext_bin(str(junk))


def test_v11_supervised_disables_subwords(tmp_path):
    """fasttext.cc loadModel: version==11 supervised models predate
    char ngrams — maxn is forced to 0 on load."""
    p = tmp_path / "v11.bin"
    _write_tiny(p, minn=3, maxn=4, bucket=16)
    data = bytearray(p.read_bytes())
    struct.pack_into("<i", data, 4, 11)  # version field
    p.write_bytes(bytes(data))
    m = load_fasttext_bin(str(p))
    assert m.args["maxn"] == 0
    assert m._subword_ids("hey") == []


def test_loader_fallback_langid_and_classifier(tmp_path):
    """model_loading dispatches .bin files to the pure reader when the
    fasttext package is absent — real scores, not errors."""
    lid = tmp_path / "lid.bin"
    words = ["</s>", "the", "le"]
    labels = ["__label__en", "__label__fr"]
    inm = np.array(
        [[0, 0], [3, 0], [0, 3]], dtype=np.float32
    )
    om = np.array([[1, 0], [0, 1]], dtype=np.float32)
    write_fasttext_bin(str(lid), words, labels, inm, om, dim=2)
    model = load_langid_model(str(lid))
    lang, score = model.predict("the the")
    assert lang == "en" and 0.5 < score <= 1.0
    lang2, _ = model.predict("le le le")
    assert lang2 == "fr"
    assert model.predict("") == ("unknown", 0.0)
    langs, probs = model.predict_batch(["the", "le"])
    assert langs == ["en", "fr"]

    # classifier: __label__cc argmax inverts the score
    # (classifiers.py:63-77 semantics)
    clf_p = tmp_path / "clf.bin"
    write_fasttext_bin(
        str(clf_p), words,
        ["__label__cc", "__label__wiki"], inm, om, dim=2,
    )
    clf = load_classifier_model(str(clf_p))
    # "the the" -> ids {the, the, </s>} -> hidden [2,0] -> p(cc) =
    # e^2/(e^2+1); argmax __label__cc inverts to 1-p
    p_cc = math.e ** 2 / (math.e ** 2 + 1)
    assert clf.score("the the") == pytest.approx(1 - p_cc, abs=1e-6)
    assert clf.score("le le") == pytest.approx(p_cc, abs=1e-6)


def test_langid_stage_with_real_bin(tmp_path):
    """Full file -> actor-pool path with a .bin artifact."""
    import ray.data

    from redpajama_data_ray.stages.langid import LangIdStage

    lid = tmp_path / "lid.bin"
    words = ["</s>", "def", "la"]
    inm = np.array([[0, 0], [3, 0], [0, 3]], dtype=np.float32)
    om = np.array([[1, 0], [0, 1]], dtype=np.float32)
    write_fasttext_bin(
        str(lid), words, ["__label__en", "__label__fr"], inm, om, dim=2
    )
    t = pa.table({"content": ["def def", "la la la", ""]})
    out = LangIdStage(model_path=str(lid))(t)
    assert out.column("lang_pred").to_pylist() == ["en", "fr", "unknown"]
    ds = ray.data.from_arrow(t).map_batches(
        LangIdStage,
        fn_constructor_kwargs=dict(model_path=str(lid)),
        batch_format="pyarrow",
        concurrency=(1, 1),
    )
    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert got.column("lang_pred").to_pylist() == ["en", "fr", "unknown"]


# ------------------------------------------------------------------
# tokenizer.json
# ------------------------------------------------------------------


def _bytelevel_spec():
    """GPT-2-style ByteLevel BPE over a tiny vocab ('Ġ' is the
    byte-level image of the space byte)."""
    units = ["Ġ", "h", "e", "l", "o", "w", "r", "d"]
    merged = ["he", "ll", "hell", "hello", "Ġhello"]
    vocab = {t: i for i, t in enumerate(units + merged)}
    merges = ["h e", "l l", "he ll", "hell o", "Ġ hello"]
    return {
        "model": {
            "type": "BPE",
            "vocab": vocab,
            "merges": merges,
            "unk_token": None,
        },
        "pre_tokenizer": {"type": "ByteLevel", "add_prefix_space": True},
        "added_tokens": [{"id": 100, "content": "<|endoftext|>"}],
    }


def test_bytelevel_bpe_counts(tmp_path):
    p = tmp_path / "tokenizer.json"
    p.write_text(json.dumps(_bytelevel_spec()))
    tok = HFTokenizer.from_file(str(p))
    v = tok.vocab
    # "hello hello" -> [Ġhello, Ġhello]
    assert tok.encode("hello hello") == [v["Ġhello"], v["Ġhello"]]
    # "hello world": world has no merges beyond none -> Ġ,w,o,r,l,d
    assert tok.count("hello world") == 1 + 6
    assert tok.count("") == 0
    # added token splits and counts as one id
    assert tok.encode("hello<|endoftext|>hello") == [
        v["Ġhello"], 100, v["Ġhello"],
    ]
    # loader fallback path (no tokenizers/transformers installed)
    counter = load_token_counter(str(p))
    assert counter("hello hello") == 2


def test_metaspace_byte_fallback_template(tmp_path):
    """Mistral/Llama-style: Metaspace pre-tokenizer, byte_fallback for
    OOV bytes, TemplateProcessing BOS."""
    vocab = {
        "<unk>": 0, "<s>": 1, "▁": 5, "▁hi": 6, "h": 7, "i": 8,
    }
    vocab.update({f"<0x{b:02X}>": 100 + b for b in range(256)})
    spec = {
        "model": {
            "type": "BPE",
            "vocab": vocab,
            "merges": [["▁", "hi"], ["h", "i"]],
            "unk_token": "<unk>",
            "byte_fallback": True,
        },
        "normalizer": {"type": "Sequence", "normalizers": [
            {"type": "NFC"},
        ]},
        "pre_tokenizer": {
            "type": "Metaspace", "replacement": "▁",
            "prepend_scheme": "always",
        },
        "post_processor": {
            "type": "TemplateProcessing",
            "single": [
                {"SpecialToken": {"id": "<s>", "type_id": 0}},
                {"Sequence": {"id": "A", "type_id": 0}},
            ],
        },
        "added_tokens": [
            {"id": 0, "content": "<unk>"},
            {"id": 1, "content": "<s>"},
        ],
    }
    p = tmp_path / "mistral-like.json"
    p.write_text(json.dumps(spec))
    tok = HFTokenizer.from_file(str(p))
    # "hi hi" -> BOS + ▁hi + ▁hi
    assert tok.encode("hi hi") == [1, 6, 6]
    # OOV char 'é' -> ▁ + two utf-8 fallback bytes (0xC3 0xA9)
    assert tok.encode("é") == [1, 5, 100 + 0xC3, 100 + 0xA9]
    assert tok.count("") == 1  # template BOS only


def test_tokenizer_named_errors(tmp_path):
    wp = tmp_path / "wp.json"
    wp.write_text(json.dumps({"model": {"type": "WordPiece", "vocab": {}}}))
    with pytest.raises(NotImplementedError, match="WordPiece"):
        HFTokenizer.from_file(str(wp))
    bad_pt = dict(_bytelevel_spec())
    bad_pt["pre_tokenizer"] = {"type": "Punctuation"}
    pb = tmp_path / "pt.json"
    pb.write_text(json.dumps(bad_pt))
    with pytest.raises(NotImplementedError, match="Punctuation"):
        HFTokenizer.from_file(str(pb))
    nj = tmp_path / "notjson.json"
    nj.write_text("not json {")
    with pytest.raises(ValueError, match="not a tokenizer.json"):
        HFTokenizer.from_file(str(nj))
    nm = tmp_path / "nomodel.json"
    nm.write_text(json.dumps({"version": "1.0"}))
    with pytest.raises(ValueError, match="no 'model'"):
        HFTokenizer.from_file(str(nm))


def test_no_eos_vocab_degrades_gracefully(tmp_path):
    """A .bin whose dictionary lacks </s> can produce empty
    predictions for all-OOV text — wrappers degrade instead of
    raising."""
    p = tmp_path / "noeos.bin"
    inm = np.array([[1.0, 0.0]], dtype=np.float32)
    om = np.array([[1, 0], [0, 1]], dtype=np.float32)
    write_fasttext_bin(
        str(p), ["hello"], ["__label__en", "__label__fr"], inm, om,
        dim=2,
    )
    lid = load_langid_model(str(p))
    assert lid.predict("zzz qqq") == ("unknown", 0.0)
    assert lid.predict("hello")[0] == "en"
    clf_p = tmp_path / "noeos_clf.bin"
    write_fasttext_bin(
        str(clf_p), ["hello"], ["__label__cc", "__label__wiki"],
        inm, om, dim=2,
    )
    clf = load_classifier_model(str(clf_p))
    assert clf.score("zzz qqq") == 0.5


# ------------------------------------------------------------------
# pure-numpy supervised trainer (reference ft_trainer.py lifecycle)
# ------------------------------------------------------------------


def _separable_samples(n=200, seed=0):
    rng = np.random.RandomState(seed)
    pos_vocab = ["good", "fine", "clean", "nice", "solid"]
    neg_vocab = ["bad", "ugly", "broken", "junk", "noisy"]
    out = []
    for i in range(n):
        vocab = pos_vocab if i % 2 == 0 else neg_vocab
        words = rng.choice(vocab, size=6).tolist()
        out.append(("pos" if i % 2 == 0 else "neg", " ".join(words)))
    return out


def test_trainer_converges_and_roundtrips(tmp_path):
    from redpajama_data_ray.functions.fasttext_train import (
        train_supervised,
    )

    samples = _separable_samples()
    model = train_supervised(samples, dim=16, epoch=8, seed=1)
    path = model.save(str(tmp_path / "clf.bin"))
    loaded = load_fasttext_bin(path)
    assert loaded.labels == ["__label__neg", "__label__pos"]
    correct = 0
    for label, text in samples:
        pred, probs = loaded.predict(text)
        correct += pred[0] == f"__label__{label}"
        assert 0.0 <= float(probs[0]) <= 1.0
    assert correct / len(samples) >= 0.95
    # the in-memory predictor and the file round-trip agree (float32
    # export is what both see)
    mem = model.predictor()
    for label, text in samples[:20]:
        la, pa_ = loaded.predict(text, k=2)
        lb, pb = mem.predict(text, k=2)
        assert la == lb
        np.testing.assert_allclose(pa_, pb, atol=1e-6)


def test_trainer_deterministic(tmp_path):
    from redpajama_data_ray.functions.fasttext_train import (
        train_supervised,
    )

    samples = _separable_samples(60, seed=3)
    a = train_supervised(samples, dim=8, epoch=3, seed=9)
    b = train_supervised(samples, dim=8, epoch=3, seed=9)
    pa_ = a.save(str(tmp_path / "a.bin"))
    pb = b.save(str(tmp_path / "b.bin"))
    assert open(pa_, "rb").read() == open(pb, "rb").read()


def test_trainer_word_ngrams_capture_order(tmp_path):
    """Unigram-identical, order-distinct classes are only separable
    with word-ngram buckets — proves the bigram feature path trains."""
    from redpajama_data_ray.functions.fasttext_train import (
        train_supervised,
    )

    samples = []
    for i in range(120):
        if i % 2 == 0:
            samples.append(("ab", "alpha beta alpha beta alpha beta"))
        else:
            samples.append(("ba", "beta alpha beta alpha beta alpha"))
    uni = train_supervised(samples, dim=8, epoch=6, seed=2)
    acc_uni = np.mean(
        [
            uni.predictor().predict(t)[0][0] == f"__label__{lb}"
            for lb, t in samples
        ]
    )
    bi = train_supervised(
        samples, dim=8, epoch=6, seed=2, word_ngrams=2, bucket=256
    )
    path = bi.save(str(tmp_path / "bi.bin"))
    loaded = load_fasttext_bin(path)
    acc_bi = np.mean(
        [
            loaded.predict(t)[0][0] == f"__label__{lb}"
            for lb, t in samples
        ]
    )
    assert acc_uni <= 0.6  # unigrams cannot separate
    assert acc_bi == 1.0


def test_trainer_subwords_generalize_to_oov(tmp_path):
    """minn/maxn training (the lid.176 feature) lets an UNSEEN word
    score through the character n-grams it shares with training words
    — train/serve hashing agree because both sides use the shared
    compute_subword_ids."""
    from redpajama_data_ray.functions.fasttext_train import (
        train_supervised,
    )

    run_family = ["running", "runner", "runs", "runnable"]
    jump_family = ["jumping", "jumper", "jumps", "jumped"]
    samples = []
    for i in range(40):
        samples.append(("r", " ".join(run_family[i % 3:] + run_family[: i % 3])))
        samples.append(("j", " ".join(jump_family[i % 3:] + jump_family[: i % 3])))
    model = train_supervised(
        samples, dim=16, epoch=8, seed=4, minn=3, maxn=5, bucket=2048
    )
    path = model.save(str(tmp_path / "sub.bin"))
    loaded = load_fasttext_bin(path)
    assert loaded.args["minn"] == 3 and loaded.args["maxn"] == 5
    # both OOV words: never in the dictionary, classified purely via
    # trained subword bucket rows
    assert "runniest" not in loaded.word_id
    assert loaded.predict("runniest")[0][0] == "__label__r"
    assert loaded.predict("jumpiest")[0][0] == "__label__j"
    # file round-trip and in-memory predictor agree on the OOV path
    mem = model.predictor()
    for w in ("runniest", "jumpiest"):
        la, pa_ = loaded.predict(w, k=2)
        lb, pb = mem.predict(w, k=2)
        assert la == lb
        np.testing.assert_allclose(pa_, pb, atol=1e-6)


def test_build_fasttext_classifier_end_to_end(tmp_path):
    import ray.data

    from redpajama_data_ray.pipelines.artifacts import (
        build_fasttext_classifier,
    )

    code = [
        "def f(x):\n    return x + 1\n} { == != import numpy",
        "class A:\n    pass\n;; || && left_join",
    ] * 30
    prose = [
        "the quick brown fox jumps over the lazy dog again and again",
        "many words flow together in long natural sentences about life",
    ] * 30
    t = pa.table({"content": code + prose})
    meta = build_fasttext_classifier(
        ray.data.from_arrow(t), str(tmp_path), samples_per_class=40,
        dim=16, epoch=6,
    )
    assert meta["n_cc"] > 0 and meta["n_wiki"] > 0
    clf = load_classifier_model(meta["model"])
    # classifiers.py semantics: score = P(not cc); prose scores higher
    s_prose = clf.score(prose[0])
    s_code = clf.score(code[0])
    assert 0.0 <= s_code < s_prose <= 1.0


def test_ns_loss_uses_sigmoid(tmp_path):
    """fastText's negative-sampling loss predicts per-label sigmoid
    (BinaryLogisticLoss::computeOutput), not softmax."""
    from redpajama_data_ray.functions.fasttext_bin import LOSS_NS

    p = tmp_path / "ns.bin"
    _write_tiny(p, loss=LOSS_NS)
    m = load_fasttext_bin(str(p))
    labels, probs = m.predict("hello", k=2)
    assert probs[0] == pytest.approx(1 / (1 + math.e ** -1), abs=1e-6)
    assert probs[1] == pytest.approx(0.5, abs=1e-6)


def test_metaspace_first_prepends_once(tmp_path):
    spec = {
        "model": {
            "type": "BPE",
            "vocab": {"▁": 0, "a": 1, "b": 2, "▁a": 3},
            "merges": [["▁", "a"]],
            "unk_token": None,
        },
        "pre_tokenizer": {"type": "Sequence", "pretokenizers": [
            {"type": "WhitespaceSplit"},
            {"type": "Metaspace", "replacement": "▁",
             "prepend_scheme": "first"},
        ]},
    }
    p = tmp_path / "first.json"
    p.write_text(json.dumps(spec))
    tok = HFTokenizer.from_file(str(p))
    # WhitespaceSplit yields ["a","b"]; 'first' prepends ▁ only to
    # the first piece: [▁a] + [b] — NOT [▁a, ▁b]
    assert tok.encode("a b") == [3, 2]
    p2 = tmp_path / "always.json"
    spec["pre_tokenizer"]["pretokenizers"][1]["prepend_scheme"] = "always"
    p2.write_text(json.dumps(spec))
    tok2 = HFTokenizer.from_file(str(p2))
    # 'always': ▁a + ▁,b (▁b not in vocab/merges -> ▁ then b)
    assert tok2.encode("a b") == [3, 0, 2]
