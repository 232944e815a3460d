"""Integer-counted language-model tables against the tuple-counting
reference in ``lm_reference``: the same arrays, the same counts, and the
same file bytes."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lm_reference as ref
from subselect.corpus import Corpus, Sentence
from subselect.lm import BOS, EOS, UNK, LM_MAGIC, LM_VERSION, corpus_vocab, load_lm, save_lm, train_lm

FIELDS = ("keys", "counts", "hist_total", "hist_types")

# "a\x01" sorts before "a b" as a string but after "a" as a token, so
# file order is not id order
TOKENS = ["a", "b", "c", "a\x01", BOS, EOS, UNK]


def reference_file_bytes(model) -> bytes:
    """What ``save_lm`` wrote from tuple-keyed counts."""
    payload = {
        "format": LM_MAGIC,
        "version": LM_VERSION,
        "order": model.order,
        "smoothing": model.smoothing,
        "add_k": model.add_k,
        "markers": model.markers,
        "unk_floor": model.unk_floor,
        "vocab": sorted(model.vocab),
        "counts": {
            str(k): {" ".join(ngram): c for ngram, c in table.items()}
            for k, table in model.counts.items()
        },
    }
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")


def assert_same_tables(got, want):
    assert len(got) == len(want)
    for table, expected in zip(got, want):
        for field in FIELDS:
            a, b = getattr(table, field), getattr(expected, field)
            assert a.dtype == b.dtype == np.int64, field
            assert np.array_equal(a, b), field


@settings(max_examples=150, deadline=None)
@given(
    train=st.lists(st.lists(st.sampled_from(TOKENS + ["oov"]), max_size=8), min_size=1, max_size=6),
    extra=st.sets(st.sampled_from(["a", "q", "zz", "<s>"]), max_size=3),
    order=st.integers(min_value=1, max_value=7),
    smoothing=st.sampled_from(["mle", "add-k:0.25", "interpolated-wb"]),
    markers=st.booleans(),
    unk_floor=st.sampled_from([1, 2]),
)
def test_tables_counts_and_files_match_the_reference(train, extra, order, smoothing, markers, unk_floor):
    corpus = Corpus(tuple(Sentence(i, tuple(toks)) for i, toks in enumerate(train)))
    lm = train_lm(corpus, order, smoothing, markers, unk_floor, extra_vocab=extra)
    reference = ref._train(corpus, order, smoothing, markers, unk_floor, corpus_vocab(corpus, unk_floor) | extra)
    assert lm.vocab == reference.vocab
    reference.vocab = ref.ordered_vocab(reference.vocab)
    tok_id, tables = reference._tables
    assert lm.ids == tok_id
    assert_same_tables(lm.tables, tables)
    assert lm.counts == reference.counts

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.json"
        save_lm(lm, path)
        assert path.read_bytes() == reference_file_bytes(reference)
        assert_same_tables(load_lm(path).tables, tables)
