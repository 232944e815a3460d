"""Round trips of the feature-set and language-model files on awkward text.

Corpora are written to disk and read back with ``load_corpus``, so the
tokens are whatever the loader makes of non-ASCII words, Unicode
whitespace (NBSP, U+2028, U+3000) between them, and marker strings
(``<s>``, ``</s>``, ``<unk>``) in running text.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from subselect.corpus import TOKENIZERS, load_corpus
from subselect.features import extract_feature_set, fit_idf, load_feature_set, save_feature_set
from subselect.lm import load_lm, log_probs, save_lm, train_lm

MARKERS = ["<s>", "</s>", "<unk>"]
WORDS = ["a", "b", "naïve", "日本語", "Ωμέγα", "ß", "İstanbul", "é", "🙂", "a<s>", "</s>b"]
SEPARATORS = [" ", "\u00a0", "\u2028", "\u3000", "\t", " \u00a0"]

tokens = st.one_of(
    st.sampled_from(MARKERS + WORDS),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
        lambda t: t.split() == [t]
    ),
)
lines = st.lists(st.tuples(tokens, st.sampled_from(SEPARATORS)), min_size=1, max_size=8).map(
    lambda pairs: "".join(tok + sep for tok, sep in pairs)
)
texts = st.lists(lines, min_size=1, max_size=6).map(lambda ls: "".join(line + "\n" for line in ls))


def load_text(directory, name, text, tokenizer):
    path = Path(directory) / name
    path.write_text(text, encoding="utf-8")
    return load_corpus(path, None, tokenizer)


@settings(max_examples=60, deadline=None)
@given(
    ground_text=texts,
    in_domain_text=texts,
    max_order=st.integers(1, 4),
    weighting=st.sampled_from(["uniform", "freq"]),
    fitted=st.booleans(),
    tokenizer=st.sampled_from(TOKENIZERS),
)
def test_feature_set_file_round_trip(ground_text, in_domain_text, max_order, weighting, fitted, tokenizer):
    with tempfile.TemporaryDirectory() as tmp:
        ground = load_text(tmp, "ground.src", ground_text, tokenizer)
        in_domain = load_text(tmp, "in.src", in_domain_text, tokenizer)
        features = extract_feature_set(in_domain, max_order, weighting)
        if fitted:
            features = fit_idf(features, ground)
        path = Path(tmp) / "features.tsv"
        save_feature_set(features, path)
        loaded = load_feature_set(path)
        assert loaded == features
        save_feature_set(loaded, Path(tmp) / "again.tsv")
        assert (Path(tmp) / "again.tsv").read_bytes() == path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    train_text=texts,
    other_text=texts,
    order=st.integers(1, 4),
    smoothing=st.sampled_from(["mle", "add-k:0.5", "interpolated-wb"]),
    markers=st.booleans(),
    unk_floor=st.integers(1, 2),
    tokenizer=st.sampled_from(TOKENIZERS),
)
def test_language_model_file_round_trip(train_text, other_text, order, smoothing, markers, unk_floor, tokenizer):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = load_text(tmp, "train.src", train_text, tokenizer)
        other = load_text(tmp, "other.src", other_text, tokenizer)
        lm = train_lm(corpus, order, smoothing, markers, unk_floor, extra_vocab=["<s>", "日本語"])
        path = Path(tmp) / "lm.json"
        save_lm(lm, path)
        loaded = load_lm(path)
        assert (loaded.vocab, loaded.counts) == (lm.vocab, lm.counts)
        sentences = [*corpus, *other]
        assert log_probs(loaded, sentences) == log_probs(lm, sentences)
        save_lm(loaded, Path(tmp) / "again.json")
        assert (Path(tmp) / "again.json").read_bytes() == path.read_bytes()
