import logging
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subselect.cli import main
from subselect.corpus import TOKENIZERS, Corpus, Sentence, load_corpus, tokenize
from subselect.errors import AlignmentError, ConfigError, EmptyCorpusError
from subselect.features import FeatureInfo, FeatureSet, extract_feature_set, featurize, fit_idf, relevance_rows
from subselect.lm import load_lm, log_probs, save_lm, train_lm
from support import traced_peak


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTokenize:
    def test_whitespace_splits_runs(self):
        assert tokenize("A  b", "whitespace") == ["A", "b"]

    def test_lowercase_variant(self):
        assert tokenize("A b", "lowercase-whitespace") == ["a", "b"]

    def test_blank_line_gives_no_tokens(self):
        assert tokenize("", "whitespace") == []
        assert tokenize(" \t ", "whitespace") == []

    def test_tabs_and_unicode_whitespace(self):
        assert tokenize("a\tb c", "whitespace") == ["a", "b", "c"]

    def test_unknown_tokenizer_rejected(self):
        with pytest.raises(ConfigError):
            tokenize("a", "porter-stemmer")

    @given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=5), min_size=0, max_size=8))
    def test_join_then_tokenize_round_trips(self, tokens):
        assert tokenize(" ".join(tokens)) == tokens


class TestLoadMono:
    def test_loads_in_order_with_costs(self, tmp_path):
        src = write(tmp_path / "mono.txt", "a b\nc\n")
        corpus = load_corpus(src)
        assert [s.id for s in corpus] == [0, 1]
        assert [s.cost for s in corpus] == [2, 1]
        assert corpus.parallel is False
        assert corpus.total_cost == 3

    def test_blank_lines_skipped_and_counted(self, tmp_path, caplog):
        src = write(tmp_path / "mono.txt", "a b\n\na\n")
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(src)
        assert len(corpus) == 2
        assert corpus.n_skipped == 1
        assert [s.id for s in corpus] == [0, 1]
        assert any("skipped 1 blank line" in rec.getMessage() for rec in caplog.records)

    def test_zero_usable_lines_is_an_error(self, tmp_path):
        src = write(tmp_path / "empty.txt", "\n  \n")
        with pytest.raises(EmptyCorpusError):
            load_corpus(src)

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(str(tmp_path / "nope.txt"))

    def test_crlf_lines_accepted(self, tmp_path):
        src = tmp_path / "crlf.txt"
        src.write_bytes(b"a b\r\nc d\r\n")
        corpus = load_corpus(str(src))
        assert [s.source_tokens for s in corpus] == [("a", "b"), ("c", "d")]

    def test_a_line_holding_only_the_byte_order_mark_is_blank(self, tmp_path):
        src = tmp_path / "s.txt"
        src.write_bytes(b"\xef\xbb\xbf\na b\n")
        corpus = load_corpus(str(src))
        assert list(corpus) == [Sentence(0, ("a", "b"))]
        assert corpus.n_skipped == 1

    def test_lowercase_tokenizer_applied(self, tmp_path):
        src = write(tmp_path / "mono.txt", "A B\n")
        corpus = load_corpus(src, tokenizer="lowercase-whitespace")
        assert corpus[0].source_tokens == ("a", "b")


class TestLoadParallel:
    def test_aligned_pair(self, tmp_path):
        src = write(tmp_path / "s.txt", "a b\nc\n")
        tgt = write(tmp_path / "t.txt", "x\ny z\n")
        corpus = load_corpus(src, tgt)
        assert corpus.parallel is True
        assert corpus[0].target_tokens == ("x",)
        assert corpus[1].target_tokens == ("y", "z")
        # cost counts the source side only
        assert corpus[1].cost == 1

    def test_line_count_mismatch_names_both_counts(self, tmp_path):
        src = write(tmp_path / "s.txt", "a\nb\nc\n")
        tgt = write(tmp_path / "t.txt", "x\ny\n")
        with pytest.raises(AlignmentError, match="3 vs 2"):
            load_corpus(src, tgt)

    def test_blank_on_both_sides_skipped(self, tmp_path):
        src = write(tmp_path / "s.txt", "a b\n\na\n")
        tgt = write(tmp_path / "t.txt", "x\n\ny\n")
        corpus = load_corpus(src, tgt)
        assert len(corpus) == 2
        assert corpus.n_skipped == 1
        assert [s.id for s in corpus] == [0, 1]

    def test_blank_on_one_side_is_alignment_error(self, tmp_path):
        src = write(tmp_path / "s.txt", "a\n\n")
        tgt = write(tmp_path / "t.txt", "x\ny\n")
        with pytest.raises(AlignmentError, match="line 2"):
            load_corpus(src, tgt)

    def test_stray_carriage_return_is_whitespace_not_a_line_end(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_bytes(b"a b\rc\nd e\n")
        tgt.write_bytes(b"x y\nz\rw\n")
        corpus = load_corpus(str(src), str(tgt))
        assert [(s.source_tokens, s.target_tokens) for s in corpus] == [
            (("a", "b", "c"), ("x", "y")),
            (("d", "e"), ("z", "w")),
        ]
        assert corpus.n_skipped == 0

    def test_a_leading_byte_order_mark_is_dropped_on_both_sides(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_bytes(b"\xef\xbb\xbfa b c\na\n")
        tgt.write_bytes(b"\xef\xbb\xbfx\n\xef\xbb\xbfy\n")
        corpus = load_corpus(str(src), str(tgt))
        # only the file's first character is a byte-order mark; a later U+FEFF is text
        assert [(s.source_tokens, s.target_tokens) for s in corpus] == [
            (("a", "b", "c"), ("x",)),
            (("a",), ("\ufeffy",)),
        ]
        assert corpus.source.vocab == ("a", "b", "c")


class TestCorpusInvariants:
    def test_ids_must_be_contiguous(self):
        with pytest.raises(ValueError):
            Corpus((Sentence(1, ("a",)),))

    def test_parallel_requires_target_side(self):
        with pytest.raises(ValueError):
            Corpus((Sentence(0, ("a",)),), parallel=True)

    def test_sentences_are_immutable(self):
        sent = Sentence(0, ("a",))
        with pytest.raises(AttributeError):
            sent.id = 3


# tokens that no loader could produce: each is empty or holds whitespace
UNWRITABLE = ["", "a b", "x\ny", "\t", "a\u3000b", "a\x1fb"]


class TestTokensNoLoaderCouldProduce:
    @pytest.mark.parametrize("token", UNWRITABLE)
    def test_corpus_rejects_one_on_either_side(self, token):
        # so write_selected_corpus never writes a line that splits or vanishes
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            Corpus([Sentence(0, (token, "z")), Sentence(1, ("w",))])
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            Corpus([Sentence(0, ("z",), ("w", token))], parallel=True)

    @pytest.mark.parametrize("token", UNWRITABLE)
    def test_feature_set_rejects_one_in_a_feature(self, token):
        # so save_feature_set never writes a record that loads as another feature
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            FeatureSet(2, {("a",): FeatureInfo(), ("a", token): FeatureInfo(2.0, 1)}, 3)

    @pytest.mark.parametrize("token", UNWRITABLE)
    def test_sentence_lists_reject_one(self, token):
        ground = Corpus([Sentence(0, ("a", "b")), Sentence(1, ("c",))])
        features = fit_idf(extract_feature_set(ground, 2), ground)
        lm = train_lm(ground, order=2)
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            featurize(Sentence(0, ("a", token)), features)
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            relevance_rows([Sentence(0, ("a",)), Sentence(1, (token,))], features)
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            log_probs(lm, [("a",), (token, "b")])

    def test_a_language_model_round_trips_once_its_corpus_is_built(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(repr("a b"))):
            Corpus([Sentence(0, ("a b", "c"))])
        lm = train_lm(Corpus([Sentence(0, ("a\x01b", "c"))]), order=2)  # not whitespace: a token
        save_lm(lm, tmp_path / "lm.json")
        assert log_probs(load_lm(tmp_path / "lm.json"), [("a\x01b", "c")]) == log_probs(lm, [("a\x01b", "c")])


# whitespace that str.split() knows beyond the ASCII space, and letters
# whose lower case differs in length (U+0130) or not at all (U+00DF)
LINE_CHARS = "abAB\u0130\u00df \r\t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"


@st.composite
def corpus_files(draw):
    """Source lines, target lines or None, and whether the last line ends in a newline."""
    line = st.text(alphabet=LINE_CHARS, max_size=12)
    src = draw(st.lists(line, min_size=1, max_size=10))
    tgt = draw(st.one_of(st.none(), st.lists(line, min_size=len(src), max_size=len(src))))
    # a file whose last line is blank ends in a newline, or that line would not exist
    newline_at_end = draw(st.booleans()) or src[-1] == "" or (tgt is not None and tgt[-1] == "")
    return src, tgt, newline_at_end


def write_lines(path, lines, newline_at_end):
    path.write_bytes(("\n".join(lines) + ("\n" if newline_at_end else "")).encode("utf-8"))
    return str(path)


class TestLoaderProperty:
    @given(files=corpus_files(), tokenizer=st.sampled_from(TOKENIZERS))
    def test_loaded_corpus_is_the_tokenized_lines(self, tmp_path_factory, files, tokenizer):
        src_lines, tgt_lines, newline_at_end = files
        tmp = tmp_path_factory.mktemp("load")
        src = write_lines(tmp / "s.txt", src_lines, newline_at_end)
        tgt = None if tgt_lines is None else write_lines(tmp / "t.txt", tgt_lines, newline_at_end)

        pairs = [
            (tokenize(s, tokenizer), None if tgt_lines is None else tokenize(tgt_lines[i], tokenizer))
            for i, s in enumerate(src_lines)
        ]
        half = [i for i, (s, t) in enumerate(pairs) if t is not None and bool(s) != bool(t)]
        kept = [(s, t) for s, t in pairs if s or t]
        if half:
            with pytest.raises(AlignmentError, match=f"line {half[0] + 1}:"):
                load_corpus(src, tgt, tokenizer)
            return
        if not kept:
            with pytest.raises(EmptyCorpusError):
                load_corpus(src, tgt, tokenizer)
            return
        corpus = load_corpus(src, tgt, tokenizer)

        expected = tuple(
            Sentence(i, tuple(s), None if t is None else tuple(t)) for i, (s, t) in enumerate(kept)
        )
        assert tuple(corpus) == expected
        assert corpus.sentences == expected
        assert [corpus[i] for i in range(len(corpus))] == list(expected)
        assert corpus.n_skipped == len(pairs) - len(kept)
        assert corpus.total_cost == sum(len(s) for s, _ in kept)
        sides = [(corpus.source, [s for s, _ in kept])]
        if tgt is not None:
            sides.append((corpus.target, [t for _, t in kept]))
        for stream, texts in sides:
            assert list(stream.vocab) == sorted(set(tok for text in texts for tok in text))
            assert stream.ids.dtype == np.int32
            assert stream.lens.tolist() == [len(text) for text in texts]
        assert Corpus(expected, parallel=tgt is not None, n_skipped=corpus.n_skipped) == corpus


class TestCorpusViews:
    def test_a_loaded_corpus_builds_sentences_only_when_read(self, tmp_path):
        corpus = load_corpus(write(tmp_path / "mono.txt", "b a\n\nc b b\n"))
        assert corpus._sentences is None
        assert corpus.source.vocab == ("a", "b", "c")
        assert corpus.source.ids.tolist() == [1, 0, 2, 1, 1] and corpus.source.lens.tolist() == [2, 3]
        assert corpus[-1] == Sentence(1, ("c", "b", "b"))
        assert corpus[0:1] == (Sentence(0, ("b", "a")),)
        with pytest.raises(IndexError):
            corpus[2]
        assert corpus._sentences is None
        assert corpus.sentences is corpus.sentences

    def test_take_keeps_the_vocabulary(self, tmp_path):
        stream = load_corpus(write(tmp_path / "mono.txt", "b a\nc\nd d\n")).source
        part = stream.take([2, 0])
        assert part.vocab == stream.vocab
        assert list(part.texts()) == [("d", "d"), ("b", "a")]


def write_pool(path, n_lines, n_tokens, seed=0):
    """Zipf-distributed tokens over a 10k vocabulary, as the benchmark's pools are."""
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(10_000)]
    zipf = [1.0 / (r + 1) for r in range(len(vocab))]
    tokens = rng.choices(vocab, weights=zipf, k=n_lines * n_tokens)
    lines = (" ".join(tokens[i : i + n_tokens]) + "\n" for i in range(0, len(tokens), n_tokens))
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


class TestFootprint:
    def test_a_pool_holds_its_token_ids_not_its_token_strings(self, tmp_path):
        # 180k tokens: a str and a tuple slot per token came to about 12 MB
        path = write_pool(tmp_path / "pool.src", 12_000, 15)
        run = traced_peak(lambda: load_corpus(path))
        assert len(run.result) == 12_000 and run.result.total_cost == 180_000
        assert run.held <= 3 * 2**20

    def test_select_both_builds_no_sentence(self, tmp_path, monkeypatch):
        ground = write_pool(tmp_path / "ground.src", 300, 12, seed=1)
        in_domain = write_pool(tmp_path / "indomain.src", 30, 12, seed=2)
        tgt = write_pool(tmp_path / "ground.tgt", 300, 9, seed=3)

        def built(*args, **kwargs):
            raise AssertionError("a Sentence was built")

        monkeypatch.setattr(Sentence, "__init__", built)
        monkeypatch.setattr(Corpus, "sentences", property(built))
        assert main([
            "select", "--method", "both", "--in-domain-src", in_domain, "--ground-src", ground,
            "--ground-tgt", tgt, "--max-order", "3", "--budget-words", "400",
            "--out-dir", str(tmp_path / "out"),
        ]) == 0
        assert (tmp_path / "out" / "xent.selected.tgt").read_text().count("\n") > 0
