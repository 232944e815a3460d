"""Round trips of the feature-set and language-model files on awkward text.

Corpora are written to disk and read back with ``load_corpus``, so the
tokens are whatever the loader makes of non-ASCII words, Unicode
whitespace (NBSP, U+2028, U+3000) between them, and marker strings
(``<s>``, ``</s>``, ``<unk>``) in running text. The language-model
writer's bytes are also checked against ``lm_reference.file_text`` on
library-built corpora whose tokens JSON must escape.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lm_reference as ref
from subselect.corpus import TOKENIZERS, Corpus, Sentence, load_corpus
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


# quotes, backslashes and control characters are escaped, other non-ASCII text is not
ESCAPED = ['"', "\\", "\x01", 'a"b\\', "كتاب", "漢字", "a", "<s>"]


@settings(max_examples=40, deadline=None)
@given(
    train=st.lists(st.lists(st.sampled_from(ESCAPED), min_size=1, max_size=5), min_size=1, max_size=5),
    order=st.integers(1, 11),
    smoothing=st.sampled_from(["mle", "add-k:1e-05", "add-k:5e-324", "interpolated-wb"]),
    markers=st.booleans(),
)
# order 11 puts table "10" before "2"; without markers its orders 2 to 11 count nothing
@example(train=[["漢字"]], order=11, smoothing="add-k:5e-324", markers=False)
def test_language_model_file_is_one_json_dumps(train, order, smoothing, markers):
    lm = train_lm(Corpus(tuple(Sentence(i, tuple(toks)) for i, toks in enumerate(train))), order, smoothing, markers)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.json"
        save_lm(lm, path)
        assert path.read_bytes() == ref.file_text(lm).encode("utf-8")
