"""Backoff n-gram language models with MLE, add-k, and Witten-Bell smoothing.

Events are the real tokens of each sentence plus one end marker; order-1
histories are padded with start markers. Counts are collected at every
history length down to zero so the interpolated smoother can recurse.
The predicted-event space is the regular vocabulary plus the end marker
and the unknown token, and every conditional distribution over it sums
to one (exactly for MLE on seen histories, within rounding otherwise).

Sentences are scored in batches against sorted integer-key tables, one
order at a time (the sorted-array layout of Heafield's KenLM). The
recursive ``_prob`` is the scalar definition; batch scores reproduce it
bit for bit.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Sentence
from .errors import ConfigError, EmptyCorpusError
from .ngramkeys import depths, rank

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LM_MAGIC = "subselect-ngram-lm"
LM_VERSION = 1

SMOOTHINGS = ("mle", "add-k", "interpolated-wb")


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
        if k <= 0:
            raise ConfigError(f"add-k constant must be positive, got {k}")
        return "add-k", k
    raise ConfigError(
        f"unknown smoothing {text!r}; expected one of: mle, add-k[:k], interpolated-wb"
    )


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


@dataclass(frozen=True)
class _OrderTable:
    """One order's counts under sorted int64 keys (see ``ngramkeys``).

    A history's key chains through the next-shorter histories; the empty
    history's key is 0. An n-gram's key is ``B * rank(its history) +
    id(its last token)``, with ``B`` token ids.
    """

    hist_keys: np.ndarray  # sorted; a history's rank is its index here
    hist_total: np.ndarray  # summed count of each history's n-grams
    hist_types: np.ndarray  # distinct continuations of each history
    keys: np.ndarray  # sorted n-gram keys
    counts: np.ndarray  # aligned with keys


def _at(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``values[idx]``, with 0 where the index is -1."""
    out = np.zeros(len(idx), dtype=values.dtype)
    ok = idx >= 0
    out[ok] = values[idx[ok]]
    return out


def _empty_history(tables: list[_OrderTable], n: int) -> np.ndarray:
    """Rank of the empty history, repeated n times; -1 if no unigram was counted."""
    return np.full(n, 0 if len(tables[0].hist_keys) else -1, dtype=np.int64)


class NgramLanguageModel:
    """Counts plus a smoothing rule; probabilities are computed on demand.

    ``counts`` must not change after construction: the scoring tables and
    the scalar path's history statistics are derived from it on first use.
    """

    def __init__(
        self,
        order: int,
        smoothing: str,
        add_k: float,
        markers: bool,
        unk_floor: int,
        vocab: frozenset[str],
        counts: dict[int, dict[tuple[str, ...], int]],
    ):
        self.order = order
        self.smoothing = smoothing
        self.add_k = add_k
        self.markers = markers
        self.unk_floor = unk_floor
        self.vocab = vocab
        self.counts = counts

    @property
    def event_vocab_size(self) -> int:
        """Size of the predicted-event space: vocab plus end and unknown markers."""
        return len(self.vocab) + 2

    def event_vocab(self) -> list[str]:
        return sorted(self.vocab) + [EOS, UNK]

    def map_token(self, token: str) -> str:
        if token in self.vocab or token in (BOS, EOS, UNK):
            return token
        return UNK

    def _per_history(self, value) -> dict[int, dict[tuple[str, ...], int]]:
        out: dict[int, dict[tuple[str, ...], int]] = {}
        for k, table in self.counts.items():
            sums: dict[tuple[str, ...], int] = {}
            for ngram, c in table.items():
                hist = ngram[:-1]
                sums[hist] = sums.get(hist, 0) + value(c)
            out[k] = sums
        return out

    @cached_property
    def _hist_total(self) -> dict[int, dict[tuple[str, ...], int]]:
        """Per order, each history's summed count (scalar path only)."""
        return self._per_history(lambda c: c)

    @cached_property
    def _hist_types(self) -> dict[int, dict[tuple[str, ...], int]]:
        """Per order, each history's number of distinct continuations (scalar path only)."""
        return self._per_history(lambda c: 1)

    @cached_property
    def _tables(self) -> tuple[dict[str, int], list[_OrderTable]]:
        """Token ids and one sorted-key table per order, built on first batch scoring."""
        tok_id = {tok: i for i, tok in enumerate(chain(self.vocab, (EOS, UNK, BOS)))}
        base = len(tok_id)
        tables: list[_OrderTable] = []
        for k in range(1, self.order + 1):
            table = self.counts.get(k, {})
            n = len(table)
            try:
                ids = np.fromiter(
                    map(tok_id.__getitem__, chain.from_iterable(table)), dtype=np.int64, count=n * k
                ).reshape(n, k)
            except KeyError as exc:
                raise ConfigError(f"order-{k} counts hold {exc.args[0]!r}, outside the vocabulary") from exc
            counts = np.fromiter(table.values(), dtype=np.int64, count=n)
            if k == 1:
                hist_key = np.zeros(n, dtype=np.int64)
            else:
                prefix = _empty_history(tables, n)
                for j in range(1, k - 1):
                    prefix = rank(tables[j].hist_keys, prefix, ids[:, j - 1], base)
                if (prefix < 0).any():
                    raise ConfigError(f"order-{k} counts extend a history no shorter n-gram has")
                hist_key = prefix * base + ids[:, k - 2]
            hist_keys, hist_rank, hist_types = np.unique(
                hist_key, return_inverse=True, return_counts=True
            )
            hist_total = np.zeros(len(hist_keys), dtype=np.int64)
            np.add.at(hist_total, hist_rank, counts)
            keys = hist_rank * base + ids[:, k - 1]
            by_key = np.argsort(keys)
            tables.append(_OrderTable(hist_keys, hist_total, hist_types, keys[by_key], counts[by_key]))
        return tok_id, tables

    def _prob(self, word: str, hist: tuple[str, ...]) -> float:
        k = len(hist) + 1
        counts = self.counts.get(k, {})
        c_hist = self._hist_total.get(k, {}).get(hist, 0)
        if self.smoothing == "mle":
            if c_hist == 0:
                return 0.0
            return counts.get(hist + (word,), 0) / c_hist
        if self.smoothing == "add-k":
            k_const = self.add_k
            return (counts.get(hist + (word,), 0) + k_const) / (
                c_hist + k_const * self.event_vocab_size
            )
        # interpolated Witten-Bell: blend MLE with the next-shorter history,
        # bottoming out at the uniform distribution over predictable events
        lower = self._prob(word, hist[1:]) if k > 1 else 1.0 / self.event_vocab_size
        if c_hist == 0:
            return lower
        n_types = self._hist_types.get(k, {}).get(hist, 0)
        return (counts.get(hist + (word,), 0) + n_types * lower) / (c_hist + n_types)

    def conditional_prob(self, word: str, history: Sequence[str] = ()) -> float:
        """P(word | history) with OOV tokens mapped to the unknown marker.

        The history is truncated to the most recent order-1 tokens.
        """
        w = self.map_token(word)
        hist = tuple(self.map_token(t) for t in history)
        if self.order > 1:
            hist = hist[-(self.order - 1) :]
        else:
            hist = ()
        return self._prob(w, hist)


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
    vocab = corpus_vocab(corpus, unk_floor)
    if extra_vocab is not None:
        vocab.update(extra_vocab)
    return _train(corpus, order, smoothing, markers, unk_floor, vocab)


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


def corpus_vocab(corpus: Corpus, unk_floor: int = 1) -> set[str]:
    """Source-side tokens meeting the frequency floor."""
    freq: Counter[str] = Counter()
    for sent in corpus:
        freq.update(sent.source_tokens)
    return {tok for tok, c in freq.items() if c >= unk_floor}


def log_probs(lm: NgramLanguageModel, sentences: Iterable[Sentence | Sequence[str]]) -> list[float]:
    """Natural-log probability of each sentence under the model, in order.

    With markers on, the end-marker event is included and histories are
    start-padded. An event the model gives zero probability (possible
    only for MLE) makes that sentence's result negative infinity.

    All sentences are scored together, one order at a time, with the
    float operations of the recursive ``_prob`` in the same order; each
    result is the left-to-right sum of ``math.log`` of those
    probabilities, so it equals the scalar definition exactly.
    """
    tok_id, tables = lm._tables
    base = len(tok_id)
    flat, lens, depth, first = _padded(sentences, lm.vocab, lm.order, lm.markers)
    tok = np.fromiter(map(tok_id.__getitem__, flat), dtype=np.int64, count=len(flat))
    prev_tok = np.zeros_like(tok)
    prev_tok[1:] = tok[:-1]
    events = np.flatnonzero(depth >= first)
    word = tok[events]
    # the history length the scalar call gets: order-1, or fewer without markers
    top = np.minimum(depth[events], lm.order - 1)

    v = lm.event_vocab_size
    p = np.full(len(events), 1.0 / v)
    # rank of the k-1 tokens before each position among the histories of
    # that length; -1 where unseen or where the sentence has fewer before it
    hist = _empty_history(tables, len(tok))
    for k, table in enumerate(tables, start=1):
        if k > 1:
            parent = np.full(len(tok), -1, dtype=np.int64)
            parent[1:] = hist[:-1]
            parent[depth < k - 1] = -1
            hist = rank(table.hist_keys, parent, prev_tok, base)
        h = hist[events]
        c_hist = _at(table.hist_total, h)
        if lm.smoothing == "interpolated-wb":
            # blend where the history was seen, else keep the lower-order value
            sel = np.flatnonzero(c_hist > 0)
        else:
            sel = np.flatnonzero(top == k - 1)
        h, c_hist = h[sel], c_hist[sel]
        c = _at(table.counts, rank(table.keys, h, word[sel], base))
        if lm.smoothing == "interpolated-wb":
            n = _at(table.hist_types, h)
            p[sel] = (c + n * p[sel]) / (c_hist + n)
        elif lm.smoothing == "mle":
            # an unseen history has c == 0, so the clamp yields the scalar 0.0
            p[sel] = c / np.maximum(c_hist, 1)
        else:
            p[sel] = (c + lm.add_k) / (c_hist + lm.add_k * v)

    probs = iter(p.tolist())
    out: list[float] = []
    for n_events in (lens - first).tolist():
        total = 0.0
        for q in islice(probs, n_events):
            total += math.log(q) if q > 0.0 else -math.inf
        out.append(total)
    return out


def log_prob(lm: NgramLanguageModel, x: Sentence | Sequence[str]) -> float:
    """Natural-log probability of one sentence; see ``log_probs``."""
    return log_probs(lm, [x])[0]


def save_lm(lm: NgramLanguageModel, path) -> None:
    """Serialize counts and settings to a versioned JSON file, deterministically."""
    payload = {
        "format": LM_MAGIC,
        "version": LM_VERSION,
        "order": lm.order,
        "smoothing": lm.smoothing,
        "add_k": lm.add_k,
        "markers": lm.markers,
        "unk_floor": lm.unk_floor,
        "vocab": sorted(lm.vocab),
        "counts": {
            str(k): {" ".join(ngram): c for ngram, c in table.items()}
            for k, table in lm.counts.items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_lm(path) -> NgramLanguageModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not a language-model file") from exc
    if not isinstance(payload, dict) or payload.get("format") != LM_MAGIC:
        raise ConfigError(f"{path}: not a language-model file")
    if payload.get("version") != LM_VERSION:
        raise ConfigError(f"{path}: unsupported language-model version {payload.get('version')}")
    counts = {
        int(k): {tuple(key.split(" ")): int(c) for key, c in table.items()}
        for k, table in payload["counts"].items()
    }
    if any(set(map(len, table)) - {k} for k, table in counts.items()):
        raise ConfigError(f"{path}: an n-gram's length differs from its table's order")
    return NgramLanguageModel(
        order=int(payload["order"]),
        smoothing=payload["smoothing"],
        add_k=float(payload["add_k"]),
        markers=bool(payload["markers"]),
        unk_floor=int(payload["unk_floor"]),
        vocab=frozenset(payload["vocab"]),
        counts=counts,
    )
