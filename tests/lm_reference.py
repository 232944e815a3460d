"""Scalar and tuple-keyed references for the language model.

``prob`` is the scalar definition of the three smoothing rules: a
recursion over a model's tuple-keyed ``counts`` and its settings alone,
with each history's total and type count derived from those counts.
``conditional_prob`` and ``log_prob`` apply it as the library's
``conditional_prob`` and ``log_probs`` do; the library's batch kernel
must give the same floats bit for bit.

``file_text`` is the v1 file as one ``json.dumps`` of a model's whole
payload, the bytes ``save_lm`` must write one order at a time.

``_train`` counts tuple windows into per-order dicts, kept verbatim
from before the tables were counted straight from integer keys, and
``_tables`` turns those dicts into the model's prefix tree on first use,
from id tuples alone: the integer counting and loading must give the
same tables and the same counts. ``_tables`` numbers tokens in the
iteration order of ``vocab``; give the model a vocabulary that iterates
in string order (``ordered_vocab``) to get the ids the library uses.

``load_lm`` is the whole-file v1 loader the library's one-pass reader
replaced, kept verbatim but for one rule: ``json.loads`` of the whole
text, each order's table checked and turned into token ids
(``_read_order``), and the prefix tree built from every n-gram at once
(``prefix_tree``, the tree builder the library had then). Like the library, it rejects a file that
lacks a table for some order from 1 to the model's. On any file the
library's ``load_lm`` must return the same model or raise the same
``ConfigError``.
"""

from __future__ import annotations

import json
import math
import weakref
from collections import Counter
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Iterable, Sequence

import numpy as np

from subselect import lm as library
from subselect.corpus import Corpus, Sentence, read_text
from subselect.errors import ConfigError, EmptyCorpusError
from subselect.lm import BOS, EOS, LM_MAGIC, LM_VERSION, SMOOTHINGS, UNK, _OrderTable, parse_smoothing
from subselect.ngramkeys import depths

_HISTORY_STATS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _history_stats(lm) -> tuple[dict[int, Counter], dict[int, Counter]]:
    """Per order, each history's summed count and its number of distinct
    continuations, derived from ``lm.counts`` once per model."""
    if lm not in _HISTORY_STATS:
        total = {k: Counter() for k in lm.counts}
        types = {k: Counter() for k in lm.counts}
        for k, table in lm.counts.items():
            for ngram, c in table.items():
                total[k][ngram[:-1]] += c
                types[k][ngram[:-1]] += 1
        _HISTORY_STATS[lm] = total, types
    return _HISTORY_STATS[lm]


def history_total(lm, hist: tuple[str, ...]) -> int:
    """The summed count of the n-grams that extend ``hist``."""
    return _history_stats(lm)[0].get(len(hist) + 1, {}).get(hist, 0)


def prob(lm, word: str, hist: tuple[str, ...]) -> float:
    """P(word | hist) for already-mapped tokens, by the model's smoothing rule."""
    k = len(hist) + 1
    counts = lm.counts.get(k, {})
    c_hist = history_total(lm, hist)
    event_vocab_size = len(lm.vocab) + 2  # the vocabulary, the end and the unknown markers
    if lm.smoothing == "mle":
        if c_hist == 0:
            return 0.0
        return counts.get(hist + (word,), 0) / c_hist
    if lm.smoothing == "add-k":
        return (counts.get(hist + (word,), 0) + lm.add_k) / (c_hist + lm.add_k * event_vocab_size)
    # interpolated Witten-Bell: blend MLE with the next-shorter history,
    # bottoming out at the uniform distribution over predictable events
    lower = prob(lm, word, hist[1:]) if k > 1 else 1.0 / event_vocab_size
    if c_hist == 0:
        return lower
    n_types = _history_stats(lm)[1][k][hist]
    return (counts.get(hist + (word,), 0) + n_types * lower) / (c_hist + n_types)


def conditional_prob(lm, word: str, history=()) -> float:
    """``prob`` with the history cut to its last order-1 tokens, and with
    every token that is neither in the vocabulary nor a marker read as the
    unknown marker."""
    mapped = tuple(t if t in lm.vocab or t in (BOS, EOS, UNK) else UNK for t in (*history, word))
    hist = mapped[:-1][-(lm.order - 1) :] if lm.order > 1 else ()
    return prob(lm, mapped[-1], hist)


def log_prob(lm, tokens) -> float:
    """``math.log`` of ``prob`` over each event of a sentence, summed left to
    right; negative infinity at a zero. Marker strings in the text are
    out-of-vocabulary."""
    mapped = tuple(t if t in lm.vocab else UNK for t in tokens)
    first = lm.order - 1 if lm.markers else 0
    seq = (BOS,) * first + mapped + ((EOS,) if lm.markers else ())
    total = 0.0
    for i in range(first, len(seq)):
        p = prob(lm, seq[i], seq[max(0, i - lm.order + 1) : i])
        if p <= 0.0:
            return float("-inf")
        total += math.log(p)
    return total


def file_text(lm) -> str:
    """A library model's v1 file: its settings, vocabulary and space-joined counts through one ``json.dumps``."""
    payload = {
        "format": LM_MAGIC,
        "version": LM_VERSION,
        "order": lm.order,
        "smoothing": lm.smoothing,
        "add_k": lm.add_k,
        "markers": lm.markers,
        "unk_floor": lm.unk_floor,
        "vocab": lm.tokens[:-3],
        "counts": {str(k): {" ".join(ngram): c for ngram, c in table.items()} for k, table in lm.counts.items()},
    }
    return json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n"


def ordered_vocab(vocab) -> dict[str, None]:
    """A vocabulary that iterates in string order, for ``_tables``' token ids."""
    return dict.fromkeys(sorted(vocab))


def _padded(
    sentences: Iterable[Sentence | Sequence[str]], vocab, order: int, markers: bool
) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """The sequences sentences are counted and scored over, concatenated.

    Tokens outside the vocabulary become the unknown marker; literal
    marker strings in running text are out-of-vocabulary too. With
    markers each sequence is start-padded to a full history and ends with
    the end marker, whose event is scored. Returns the tokens, each
    sentence's sequence length, each position's depth (the tokens before
    it in its sequence) and the depth of every sentence's first event.
    """
    first = order - 1 if markers else 0
    start_pad, end = ((BOS,) * first, (EOS,)) if markers else ((), ())
    flat: list[str] = []
    lens: list[int] = []
    for x in sentences:
        tokens = x.source_tokens if isinstance(x, Sentence) else x
        start = len(flat)
        flat.extend(start_pad)
        flat.extend(t if t in vocab else UNK for t in tokens)
        flat.extend(end)
        lens.append(len(flat) - start)
    lens_a = np.array(lens, dtype=np.int64)
    return flat, lens_a, depths(lens_a), first


class NgramLanguageModel:
    """The settings and tuple-keyed counts the reference ``_tables`` reads."""

    def __init__(self, order, smoothing, add_k, markers, unk_floor, vocab, counts):
        self.order = order
        self.smoothing = smoothing
        self.add_k = add_k
        self.markers = markers
        self.unk_floor = unk_floor
        self.vocab = vocab
        self.counts = counts

    @cached_property
    def _tables(self) -> tuple[dict[str, int], list[_OrderTable]]:
        """Token ids and the model's prefix tree, one ``_OrderTable`` a level, built from id tuples.

        Level k holds every counted k-gram and every k-token prefix of a
        longer one (count 0 unless counted), in lexicographic id order; a
        tuple's rank is its index in its level, the empty tuple's 0.
        """
        tok_id = {tok: i for i, tok in enumerate(chain(self.vocab, (EOS, UNK, BOS)))}
        base = len(tok_id)
        count: dict[tuple[int, ...], int] = {}
        for k in range(1, self.order + 1):
            for ngram, c in self.counts.get(k, {}).items():
                try:
                    ids = tuple(tok_id[tok] for tok in ngram)
                except KeyError as exc:
                    raise ConfigError(f"order-{k} counts hold {exc.args[0]!r}, outside the vocabulary") from exc
                count[ids] = c
                for j in range(1, k):
                    count.setdefault(ids[:j], 0)
        rank_of = {(): 0}
        tables: list[_OrderTable] = []
        for k in range(1, self.order + 1):
            level = sorted(ids for ids in count if len(ids) == k)
            hist_total = np.zeros(len(tables[-1].keys) if tables else 1, dtype=np.int64)
            hist_types = np.zeros_like(hist_total)
            for ids in level:
                hist_total[rank_of[ids[:-1]]] += count[ids]
                hist_types[rank_of[ids[:-1]]] += count[ids] > 0
            keys = np.array([rank_of[ids[:-1]] * base + ids[-1] for ids in level], dtype=np.int64)
            counts = np.array([count[ids] for ids in level], dtype=np.int64)
            tables.append(_OrderTable(keys, counts, hist_total, hist_types))
            rank_of.update(zip(level, range(len(level))))
        return tok_id, tables


def _train(
    corpus: Corpus, order: int, smoothing: str, markers: bool, unk_floor: int, vocab: set[str]
) -> NgramLanguageModel:
    """``train_lm`` over a vocabulary the caller has already collected."""
    if order < 1:
        raise ConfigError(f"LM order must be >= 1, got {order}")
    if unk_floor < 1:
        raise ConfigError(f"unk floor must be >= 1, got {unk_floor}")
    kind, add_k = parse_smoothing(smoothing)
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot train a language model on an empty corpus")

    vocab = vocab - {BOS, EOS, UNK}
    flat, _, depth, first = _padded(corpus, vocab, order, markers)
    counts: dict[int, dict[tuple[str, ...], int]] = {}
    for k in range(1, order + 1):
        # every length-k window that ends at an event; a window ending at
        # position i stays inside i's sentence when depth[i] >= k - 1
        ends = (depth >= max(first, k - 1)).tolist()
        windows = zip(*(flat[j:] for j in range(k)))
        counts[k] = dict(Counter(compress(windows, ends[k - 1 :])))
    return NgramLanguageModel(order, kind, add_k, markers, unk_floor, frozenset(vocab), counts)


def load_lm(path) -> library.NgramLanguageModel:
    """A v1 file read whole by ``json.loads``, checked, and built into the library's model."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not a language-model file") from exc
    if not isinstance(payload, dict) or payload.get("format") != LM_MAGIC:
        raise ConfigError(f"{path}: not a language-model file")
    if payload.get("version") != LM_VERSION:
        raise ConfigError(f"{path}: unsupported language-model version {payload.get('version')}")
    fields = ("order", "smoothing", "add_k", "markers", "unk_floor", "vocab", "counts")
    try:
        order, smoothing, add_k, markers, unk_floor, vocab, tables = map(payload.__getitem__, fields)
        # bool is a subclass of int, so compare the types themselves
        finite_k = type(add_k) in (int, float) and math.isfinite(add_k)
    except (KeyError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed language-model header") from exc
    if (
        type(order) is not int
        or order < 1
        or smoothing not in SMOOTHINGS
        or not finite_k
        or (smoothing == "add-k" and add_k <= 0)
        or type(markers) is not bool
        or type(unk_floor) is not int
        or unk_floor < 1
        or not isinstance(tables, dict)
    ):
        raise ConfigError(f"{path}: malformed language-model header")
    if not isinstance(vocab, list) or set(map(type, vocab)) - {str} or {BOS, EOS, UNK} & set(vocab):
        raise ConfigError(f"{path}: the vocabulary must be a list of tokens other than the markers")
    extra = [name for name in tables if not name.isdecimal() or name != str(int(name)) or not 1 <= int(name) <= order]
    if extra:
        raise ConfigError(f"{path}: count tables {sorted(extra)} are outside orders 1 to {order}")
    # the one rule the whole-file loader lacked: it read a missing table as an empty one
    missing = next(k for k in range(1, order + 2) if str(k) not in tables)
    if missing <= order:
        raise ConfigError(f"{path}: the file has no count table for order {missing}")
    ids = library._token_ids(vocab)
    base = len(ids)
    grams, counts = zip(*(_read_order(path, k, tables.pop(str(k)), ids) for k in range(1, order + 1)))
    lens = np.repeat(np.arange(1, order + 1), list(map(len, counts)))
    grams, counts = np.concatenate(grams), np.concatenate(counts)
    tree = prefix_tree(grams, lens, base, order)
    built = library._tree(((keys, library._at(counts, end)) for keys, end in tree), base)
    for k, below, level in zip(range(2, order + 1), built, built[1:]):
        # an n-gram's history must extend one the next-shorter order has:
        # its parent's parent must have a counted child at that order
        if not below.hist_types[below.keys[level.keys[level.counts > 0] // base] // base].all():
            raise ConfigError(f"{path}: order-{k} counts extend a history no shorter n-gram has")
    return library.NgramLanguageModel(order, smoothing, float(add_k), markers, unk_floor, ids, built)


def _read_order(path, k: int, table, ids: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """A v1 file's order-``k`` table, checked, as its n-grams' token ids end to end and their counts."""
    values = table.values() if isinstance(table, dict) else [None]
    n = len(values)
    try:
        # bool is a subclass of int, so compare the types themselves
        c = np.fromiter(values, dtype=np.int64, count=n) if set(map(type, values)) <= {int} else None
    except OverflowError:  # from 2**63 up
        c = None
    if c is None or (c < 1).any():
        raise ConfigError(f"{path}: order-{k} counts must be integers from 1 to 2**63 - 1")
    if set(map(str.count, table, repeat(" "))) - {k - 1}:
        raise ConfigError(f"{path}: an n-gram's length differs from its table's order")
    tokens = chain.from_iterable(map(str.split, table, repeat(" ")))
    try:
        return np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=n * k), c
    except KeyError as exc:
        raise ConfigError(f"{path}: order-{k} counts hold {exc.args[0]!r}, outside the vocabulary") from exc


def prefix_tree(tok: np.ndarray, lens: np.ndarray, base: int, levels: int):
    """Levels 1 to ``levels`` of the prefix tree of the n-grams whose token ids
    (below ``base``) come end to end in ``tok``.

    Yields per level k the sorted keys of every k-token prefix, and for
    each key the index of the n-gram it spells in full, -1 for a prefix
    only (the last such n-gram where several are equal).
    """
    starts = np.cumsum(lens) - lens
    prefix = np.zeros(len(lens), dtype=np.int64)  # each n-gram's rank at the level reached
    for k in range(1, levels + 1):
        sel = np.flatnonzero(lens >= k)
        key = prefix[sel] * base + tok[starts[sel] + k - 1]
        table, _, inverse = np.unique(key, return_index=True, return_inverse=True)
        prefix[sel] = inverse
        end = np.full(len(table), -1, dtype=np.int64)
        exact = lens[sel] == k
        end[inverse[exact]] = sel[exact]
        yield table, end
