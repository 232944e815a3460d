import logging

import pytest
from hypothesis import given, strategies as st

from subselect.corpus import Corpus, Sentence, load_corpus, tokenize
from subselect.errors import AlignmentError, ConfigError, EmptyCorpusError


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
