"""Backoff n-gram language models with MLE, add-k, and Witten-Bell smoothing.

Events are the real tokens of each sentence plus one end marker; order-1
histories are padded with start markers. Counts are collected at every
history length down to zero so the interpolated smoother can recurse.
The predicted-event space is the regular vocabulary plus the end marker
and the unknown token, and every conditional distribution over it sums
to one (exactly for MLE on seen histories, within rounding otherwise).

A model is one n-gram prefix tree (``_OrderTable``, ``ngramkeys``).
Token ids follow string order: the sorted vocabulary, then the end,
unknown and start markers. Training maps the corpus's token ids to the
model's through one lookup per distinct token, interns each order's
windows once (``chain_ranks``) and counts the events with one
``np.bincount``. Reading or writing the v1 JSON file holds one order's
strings at a time: ``load_lm`` walks the file once, turns each count
table into token-id arrays as soon as it is decoded and builds the tree
a level at a time (``prefix_tree``); ``save_lm`` and the tuple-keyed
view ``counts`` spell an order from its keys (``spell``).
Every probability comes from one kernel, ``_event_probs``: per order it
interns a batch's own k-grams once, maps each distinct one into the
tree of every model given (models that share one id map) with one
lookup, and applies each model's smoothing rule. ``log_probs`` and
``score_corpus`` feed it batches of whole sentences of at most
``_BATCH_POSITIONS`` padded positions (``ngramkeys.batches``),
``conditional_prob`` one history and word.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from json.decoder import JSONDecodeError, scanstring
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, Sentence, TokenStream, as_stream, read_text
from .errors import ConfigError, EmptyCorpusError
from .ngramkeys import _LazyMapping, batches, chain_ranks, depths, prefix_tree, rank, spell

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LM_MAGIC = "subselect-ngram-lm"
LM_VERSION = 1

SMOOTHINGS = ("mle", "add-k", "interpolated-wb")

# Scoring pads and scores at most this many positions at a time (or one
# longer sentence), which bounds the kernel's temporaries on any pool.
_BATCH_POSITIONS = 1 << 14

# the v1 file: ``save_lm`` encodes this many n-grams per write; ``load_lm`` decodes with json's own scanner
_WRITE_CHUNK = 1 << 12
_DECODER = json.JSONDecoder()
_WS = r"[ \t\n\r]*"  # JSON's whitespace
_OPEN = re.compile(_WS + r'\{' + _WS + r'(?:(\})|(?="))')  # an object's start, then its end or a key
_COLON = re.compile(_WS + ":" + _WS)
_NEXT = re.compile(_WS + r'(?:(\})|,' + _WS + r'(?="))')  # after a value: the object's end or the next key


def parse_smoothing(text: str) -> tuple[str, float]:
    """Parse a smoothing id: ``mle``, ``add-k[:k]``, ``interpolated-wb``/``wb``."""
    if text == "mle":
        return "mle", 0.0
    if text in ("interpolated-wb", "wb"):
        return "interpolated-wb", 0.0
    if text == "add-k":
        return "add-k", 1.0
    if text.startswith("add-k:"):
        try:
            k = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad add-k constant in {text!r}") from exc
        if not math.isfinite(k) or k <= 0:  # load_lm's rule for a saved add_k
            raise ConfigError(f"add-k constant must be finite and positive, got {k}")
        return "add-k", k
    raise ConfigError(
        f"unknown smoothing {text!r}; expected one of: mle, add-k[:k], interpolated-wb"
    )


def _token_ids(vocab) -> dict[str, int]:
    """Each token's id: the vocabulary in string order, then the end, unknown and start markers."""
    return {tok: i for i, tok in enumerate([*dict.fromkeys(sorted(vocab)), EOS, UNK, BOS])}


def _padded(
    stream: TokenStream, ids: dict[str, int], order: int, markers: bool, budget: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """The id sequences a stream's sentences are counted and scored over, in batches of whole sentences.

    Tokens outside the vocabulary become the unknown marker; literal
    marker strings in running text are out-of-vocabulary too. With
    markers each sequence is start-padded to a full history and ends with
    the end marker, whose event is scored. A batch (``ngramkeys.batches``)
    ends at the last sentence that keeps it within ``budget`` positions, or
    holds one longer sentence alone. Yields per batch the token ids end to
    end, each sequence's length, each position's depth (the tokens before it
    in its sequence) and the depth of every first event.
    """
    eos, unk, bos = len(ids) - 3, len(ids) - 2, len(ids) - 1
    words = stream.lookup(ids, unk)
    words[words >= eos] = unk  # marker strings in running text
    edges = np.concatenate([[0], np.cumsum(stream.lens)])
    first, pad = (order - 1, order) if markers else (0, 0)
    for start, stop in batches(stream.lens + pad, budget):
        n_words = stream.lens[start:stop]
        lens = n_words + pad
        starts = np.cumsum(lens) - lens
        tok = np.full(int(lens.sum()), bos, dtype=np.int64)
        tok[np.repeat(starts + first, n_words) + depths(n_words)] = words[edges[start] : edges[stop]]
        if markers:
            tok[starts + lens - 1] = eos
        yield tok, lens, depths(lens), first


@dataclass(frozen=True)
class _OrderTable:
    """One level of a model's n-gram prefix tree (see ``ngramkeys``).

    ``keys`` holds the order's counted n-grams and the prefixes of longer
    ones, which count 0 unless counted themselves. An n-gram's history is
    its parent, an entry of the level below (the root for order 1), and
    the history statistics are indexed by the parent's rank there.
    """

    keys: np.ndarray  # sorted chained keys
    counts: np.ndarray  # aligned with keys
    hist_total: np.ndarray  # summed count of each history's n-grams
    hist_types: np.ndarray  # each history's continuations with a count above 0


def _tree(levels: Iterable[tuple[np.ndarray, np.ndarray]], base: int) -> list[_OrderTable]:
    """A model's tables from each level's sorted keys and their counts, level 1 first."""
    tables: list[_OrderTable] = []
    for keys, counts in levels:
        parent = keys // base
        n_hist = len(tables[-1].keys) if tables else 1  # the level below, or the root
        hist_total = np.zeros(n_hist, dtype=np.int64)
        np.add.at(hist_total, parent, counts)
        tables.append(_OrderTable(keys, counts, hist_total, np.bincount(parent[counts > 0], minlength=n_hist)))
    return tables


def _count(tok: np.ndarray, depth: np.ndarray, first: int, order: int, base: int) -> list[_OrderTable]:
    """The prefix tree of a padded id stream's windows, each counted where it ends at an event.

    A window that ends before the first event of its sentence is all
    start markers, a prefix of that event's windows, so the tree holds
    the counted n-grams and their prefixes and nothing else.
    """
    event = depth >= first
    levels = []
    for keys, ranks in chain_ranks(tok, depth, order, base):
        levels.append((keys, np.bincount(ranks[event & (ranks >= 0)], minlength=len(keys))))
    return _tree(levels, base)


def _at(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``values[idx]``, with 0 where the index is -1."""
    out = np.zeros(len(idx), dtype=values.dtype)
    ok = idx >= 0
    out[ok] = values[idx[ok]]
    return out


class NgramLanguageModel:
    """A count tree plus a smoothing rule; probabilities are computed on demand.

    ``ids`` numbers the tokens as ``_token_ids`` does, and ``tables``
    holds the levels of the prefix tree, one ``_OrderTable`` per order, 1
    to ``order``, keyed by those ids. Neither may change after construction.
    """

    def __init__(
        self,
        order: int,
        smoothing: str,
        add_k: float,
        markers: bool,
        unk_floor: int,
        ids: dict[str, int],
        tables: list[_OrderTable],
    ):
        self.order = order
        self.smoothing = smoothing
        self.add_k = add_k
        self.markers = markers
        self.unk_floor = unk_floor
        self.ids = ids
        self.tokens = list(ids)  # by id
        self.vocab = frozenset(self.tokens[:-3])
        self.tables = tables

    @property
    def event_vocab_size(self) -> int:
        """Size of the predicted-event space: vocab plus end and unknown markers."""
        return len(self.vocab) + 2

    def event_vocab(self) -> list[str]:
        return self.tokens[:-1]

    def _spelled(self, k: int, joined: bool = False) -> tuple[list, list[int]]:
        """Order ``k``'s counted n-grams (``ngramkeys.spell``), as token tuples or
        with ``joined`` their tokens joined by spaces, and their counts."""
        table = self.tables[k - 1]
        counted = table.counts > 0
        below, tokens = [t.keys for t in self.tables[: k - 1]], np.array(self.tokens, dtype=object)
        return spell(table.keys[counted], below, tokens, len(tokens), joined), table.counts[counted].tolist()

    @cached_property
    def counts(self) -> dict[int, Mapping[tuple[str, ...], int]]:
        """Per order, each n-gram's count under its token tuple.

        A read-only view for inspection: an order's tuples are decoded on
        its first lookup, but its length is its number of n-grams.
        """
        return {
            k: _LazyMapping(int(np.count_nonzero(t.counts)), lambda k=k: dict(zip(*self._spelled(k))))
            for k, t in enumerate(self.tables, start=1)
        }

    def conditional_prob(self, word: str, history: Sequence[str] = ()) -> float:
        """P(word | history), with tokens outside ``ids`` as the unknown marker.

        The history is truncated to the most recent order-1 tokens. A
        marker string stays itself, so ``history`` may start with ``<s>``.
        """
        hist = list(history)[-(self.order - 1) :] if self.order > 1 else []
        unk = self.ids[UNK]
        tok = np.array([self.ids.get(t, unk) for t in [*hist, word]], dtype=np.int64)
        return _event_probs([self], tok, np.arange(len(tok)), len(hist))[0].item()


def train_lm(
    corpus: Corpus,
    order: int = 4,
    smoothing: str = "interpolated-wb",
    markers: bool = True,
    unk_floor: int = 1,
    extra_vocab: Iterable[str] | None = None,
) -> NgramLanguageModel:
    """Train an order-k model on the source side of a corpus.

    Tokens seen fewer than ``unk_floor`` times collapse to the unknown
    marker (the default of 1 keeps everything). ``extra_vocab`` widens
    the vocabulary, e.g. to share one event space between the two models
    of a ranking pair. ``markers=False`` drops sentence start/end
    handling for analytic test cases.
    """
    kind, add_k = check_lm_settings(order, smoothing, unk_floor)
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot train a language model on an empty corpus")
    vocab = corpus_vocab(corpus, unk_floor)
    if extra_vocab is not None:
        vocab.update(extra_vocab)
    ids = _token_ids(vocab - {BOS, EOS, UNK})
    [(tok, _, depth, first)] = _padded(corpus.source, ids, order, markers, math.inf)
    tables = _count(tok, depth, first, order, len(ids))
    return NgramLanguageModel(order, kind, add_k, markers, unk_floor, ids, tables)


def check_lm_settings(order: int, smoothing: str, unk_floor: int) -> tuple[str, float]:
    """Check a model's training settings; return its smoothing kind and add-k constant."""
    if order < 1:
        raise ConfigError(f"LM order must be >= 1, got {order}")
    if unk_floor < 1:
        raise ConfigError(f"unk floor must be >= 1, got {unk_floor}")
    return parse_smoothing(smoothing)


def corpus_vocab(corpus: Corpus, unk_floor: int = 1) -> set[str]:
    """Source-side tokens meeting the frequency floor."""
    stream = corpus.source
    freq = np.bincount(stream.ids, minlength=len(stream.vocab))
    return set(map(stream.vocab.__getitem__, np.flatnonzero((freq >= unk_floor) & (freq > 0)).tolist()))


def log_probs(lm: NgramLanguageModel, sentences: Iterable[Sentence | Sequence[str]]) -> list[float]:
    """Natural-log probability of each sentence under the model, in order.

    With markers on, the end-marker event is included and histories are
    start-padded. An event the model gives zero probability (possible
    only for MLE) makes that sentence's result negative infinity.

    All sentences are scored together by ``_event_probs``; each result
    is the left-to-right sum of ``math.log`` of its events'
    probabilities, each exactly the ``conditional_prob`` of that event
    (with marker strings in the text read as the unknown marker).
    """
    return _log_probs([lm], as_stream(sentences))[0]


def _event_probs(
    models: Sequence[NgramLanguageModel], tok: np.ndarray, depth: np.ndarray, first: int
) -> list[np.ndarray]:
    """Each model's probability of every event in a stream of ids, in stream order.

    The models share one id map and order. ``depth`` is each position's
    index within its sequence; the events are the positions at depth
    ``first`` or more, each predicted from up to order-1 tokens before it.
    Per order the stream's k-grams are interned once (``chain_ranks``) and
    each distinct one is mapped into every model's tables for the events.
    """
    order, base, v = models[0].order, len(models[0].ids), models[0].event_vocab_size
    events = np.flatnonzero(depth >= first)
    # each event's history length: order-1, or fewer near a sequence start
    top = np.minimum(depth[events], order - 1)
    ps = [np.full(len(events), 1.0 / v) for _ in models]
    # each model's rank of the stream's distinct (k-1)-grams, the root's being 0
    ranks_of = [np.zeros(1, dtype=np.int64)] * len(models)
    for k, (grams, ranks) in enumerate(chain_ranks(tok, depth, order, base), start=1):
        gram = ranks[events]  # -1 where an event has fewer than k-1 tokens before it
        parent, last = grams // base, grams % base
        for i, (lm, p) in enumerate(zip(models, ps)):
            table = lm.tables[k - 1]
            hist = ranks_of[i][parent]  # each distinct k-gram's history in the model, -1 if absent
            ranks_of[i] = rank(table.keys, hist, last, base, distinct=True)
            c_hist = _at(_at(table.hist_total, hist), gram)
            if lm.smoothing == "interpolated-wb":
                # interpolated Witten-Bell: blend the MLE with the next-shorter
                # history's value where the history was seen, bottoming out at
                # the uniform distribution over predictable events
                sel = np.flatnonzero(c_hist > 0)
            else:
                sel = np.flatnonzero(top == k - 1)
            g, c_hist = gram[sel], c_hist[sel]  # every selected event has a k-gram
            c = _at(table.counts, ranks_of[i][g])
            if lm.smoothing == "interpolated-wb":
                n = _at(table.hist_types, hist[g])
                p[sel] = (c + n * p[sel]) / (c_hist + n)
            elif lm.smoothing == "mle":
                # an unseen history has c == 0, so the clamp yields 0.0
                p[sel] = c / np.maximum(c_hist, 1)
            else:
                p[sel] = (c + lm.add_k) / (c_hist + lm.add_k * v)
    return ps


def _log_probs(models: Sequence[NgramLanguageModel], stream: TokenStream) -> list[list[float]]:
    """``log_probs`` of a stream under each of some models that share one id map and order.

    Padded and scored in batches of about ``_BATCH_POSITIONS`` positions, so temporaries
    stay small on any pool, whatever its sentence lengths.
    """
    lm = models[0]
    outs: list[list[float]] = [[] for _ in models]
    for tok, lens, depth, first in _padded(stream, lm.ids, lm.order, lm.markers, _BATCH_POSITIONS):
        for out, p in zip(outs, _event_probs(models, tok, depth, first)):
            probs = iter(p.tolist())
            for n_events in (lens - first).tolist():
                total = 0.0
                for q in islice(probs, n_events):
                    total += math.log(q) if q > 0.0 else -math.inf
                out.append(total)
    return outs


def log_prob(lm: NgramLanguageModel, x: Sentence | Sequence[str]) -> float:
    """Natural-log probability of one sentence; see ``log_probs``."""
    return log_probs(lm, [x])[0]


def save_lm(lm: NgramLanguageModel, path) -> None:
    """Serialize counts and settings to a versioned JSON file, deterministically.

    The bytes are ``json.dumps(payload, ensure_ascii=False, sort_keys=True)``
    and a newline, written an order at a time: its n-grams spelled from their
    keys as space-joined tokens, sorted as strings (not in id order: a token
    may hold a character below the space) and encoded a chunk at a time.
    """
    header = {
        "format": LM_MAGIC,
        "version": LM_VERSION,
        "order": lm.order,
        "smoothing": lm.smoothing,
        "add_k": lm.add_k,
        "markers": lm.markers,
        "unk_floor": lm.unk_floor,
        "vocab": lm.tokens[:-3],
    }
    # sort_keys puts "counts" second, after the number "add_k", so the first match is the placeholder
    head, tail = json.dumps({**header, "counts": 0}, ensure_ascii=False, sort_keys=True).split('"counts": 0', 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + '"counts": {')
        for i, k in enumerate(sorted(range(1, lm.order + 1), key=str)):  # string order: "1", "10", "2"
            grams, counts = lm._spelled(k, joined=True)
            rows = sorted(range(len(grams)), key=grams.__getitem__)
            fh.write(f'{", " if i else ""}"{k}": {{')
            for at in range(0, len(rows), _WRITE_CHUNK):
                entries = [f"{encode_basestring(grams[r])}: {counts[r]}" for r in rows[at : at + _WRITE_CHUNK]]
                fh.write((", " if at else "") + ", ".join(entries))
            fh.write("}")
            del grams, counts, rows  # before the next order is spelled
        fh.write("}" + tail + "\n")


def _object(text: str, pos: int, read: Callable[[str, object], object], top: bool = True) -> tuple[dict, int]:
    """The JSON object at ``text[pos]`` (after whitespace) as ``json`` decodes it, and where it ends; a
    top-level ``counts`` object is walked too, each value becoming ``read(key, value)`` once decoded."""
    obj: dict = {}
    step = _OPEN.match(text, pos)
    while step and not step[1]:  # at a key
        key, pos = scanstring(text, step.end() + 1)
        step = _COLON.match(text, pos)
        if not step:
            break
        if top and key == "counts" and text.startswith("{", step.end()):
            obj[key], pos = _object(text, step.end(), read, top=False)
        else:
            obj[key], pos = _DECODER.raw_decode(text, step.end())  # a later duplicate key wins, as in json
            obj[key] = obj[key] if top else read(key, obj[key])  # no table outlives its read
        step = _NEXT.match(text, pos)
    if not step:
        raise JSONDecodeError("Expecting a JSON object", text, pos)
    return obj, step.end()


def load_lm(path) -> NgramLanguageModel:
    """Read a model written by ``save_lm`` into its tables, holding one order's strings at a time.

    The file is checked as it loads: ``add_k`` must be a finite number
    (above 0 for add-k), ``markers`` a JSON boolean and ``unk_floor`` a
    JSON integer of at least 1; the count tables must be orders 1 to the
    model's, each of them present, every count a JSON integer of at least
    1, every n-gram as long as its order and made of vocabulary tokens and
    markers, and every history must extend one the next-shorter order has.
    Anything else raises ``ConfigError``.
    """
    intern: dict[str, int] = defaultdict()
    intern.default_factory = intern.__len__  # each token's id in first-seen order
    text = read_text(path)
    try:
        payload, end = _object(text, 0, lambda name, table: _read_order(path, name, table, intern))
        if text[end:].strip(" \t\n\r"):
            raise JSONDecodeError("Extra data", text, end)
    except JSONDecodeError as exc:
        raise ConfigError(f"{path}: not a language-model file") from exc
    del text
    if payload.get("format") != LM_MAGIC:
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
    # every name is now an order from 1 to the model's, so this stops within len(tables) + 1 steps
    missing = next(k for k in range(1, order + 2) if str(k) not in tables)
    if missing <= order:
        raise ConfigError(f"{path}: the file has no count table for order {missing}")
    ids = _token_ids(vocab)
    model_id = np.fromiter((ids.get(tok, -1) for tok in intern), dtype=np.int32, count=len(intern))
    grams, counts = [], []
    for k in range(1, order + 1):
        entry = tables.pop(str(k))
        if isinstance(entry, ConfigError):
            raise entry
        local, c = entry
        g = model_id[local]
        if (g < 0).any():  # name the table's first such token, as the whole-file loader did
            tok = list(intern)[local[np.argmax(g < 0)]]
            raise ConfigError(f"{path}: order-{k} counts hold {tok!r}, outside the vocabulary")
        grams.append(g.reshape(-1, k))
        counts.append(c)
    base = len(ids)
    built = _tree(prefix_tree(grams, counts, base, 0), base)
    for k, below, level in zip(range(2, order + 1), built, built[1:]):
        # an n-gram's history must extend one the next-shorter order has:
        # its parent's parent must have a counted child at that order
        if not below.hist_types[below.keys[level.keys[level.counts > 0] // base] // base].all():
            raise ConfigError(f"{path}: order-{k} counts extend a history no shorter n-gram has")
    return NgramLanguageModel(order, smoothing, float(add_k), markers, unk_floor, ids, built)


def _read_order(path, name: str, table, intern: dict) -> tuple[np.ndarray, np.ndarray] | ConfigError:
    """A v1 count table, checked, as its n-grams' token ids in ``intern`` end to end and their counts, or
    the ``ConfigError`` to raise if it is used; a name that is no order reads as order 0, never used."""
    k = int(name) if name.isdecimal() and len(name) < 19 else 0
    values = table.values() if isinstance(table, dict) else [None]
    n = len(values)
    try:
        # bool is a subclass of int, so compare the types themselves
        c = np.fromiter(values, dtype=np.int64, count=n) if set(map(type, values)) <= {int} else None
    except OverflowError:  # from 2**63 up
        c = None
    if c is None or (c < 1).any():
        return ConfigError(f"{path}: order-{k} counts must be integers from 1 to 2**63 - 1")
    if set(map(str.count, table, repeat(" "))) - {k - 1}:
        return ConfigError(f"{path}: an n-gram's length differs from its table's order")
    tokens = chain.from_iterable(map(str.split, table, repeat(" ")))
    return np.fromiter(map(intern.__getitem__, tokens), dtype=np.int32, count=n * k), c
