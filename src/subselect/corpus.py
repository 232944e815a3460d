"""Loading and tokenizing line-aligned text corpora.

A corpus is one UTF-8 file of source text, optionally paired with a
target-side file aligned line by line. Sentences are kept in file order
and re-numbered contiguously from 0 after blank-line skipping, so a
sentence id is always a valid index into the corpus.

Each side is held as a ``TokenStream``: every token is interned once, as
an int32 id into a sorted vocabulary, and the sentences' ids are laid
end to end with one length per sentence. Ids follow string order, so the
sorted-key layouts of ``ngramkeys`` hold for them. A layer with ids of
its own maps a stream through one lookup table per vocabulary (one dict
lookup per distinct token, then a gather), never token by token.
``Sentence`` objects are views, built only when a caller indexes or
iterates a corpus or reads ``sentences``.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import AlignmentError, ConfigError, EmptyCorpusError
from .ngramkeys import depths

logger = logging.getLogger(__name__)

TOKENIZERS = ("whitespace", "lowercase-whitespace")

_CHUNK = 512  # lines tokenized at once while loading


def tokenize(line: str, tokenizer: str = "whitespace") -> list[str]:
    """Split one line into tokens.

    ``whitespace`` splits on runs of Unicode whitespace;
    ``lowercase-whitespace`` lowercases first. Neither produces empty
    tokens, so a blank or whitespace-only line yields ``[]``.
    """
    if tokenizer == "whitespace":
        return line.split()
    if tokenizer == "lowercase-whitespace":
        return line.lower().split()
    raise ConfigError(
        f"unknown tokenizer {tokenizer!r}; expected one of: {', '.join(TOKENIZERS)}"
    )


@dataclass(frozen=True)
class Sentence:
    """One corpus line; cost is the source-side token count."""

    id: int
    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...] | None = None

    @property
    def cost(self) -> int:
        return len(self.source_tokens)


@dataclass(frozen=True, eq=False)
class TokenStream:
    """Sentences as token ids into a vocabulary, laid end to end.

    Sentence i's tokens are ``vocab[t]`` for t in
    ``ids[starts[i]:starts[i] + lens[i]]``. A stream interned from text
    has a sorted vocabulary of exactly the tokens it uses; ``take`` keeps
    its source's vocabulary, so it may hold tokens a subset never uses.
    """

    vocab: tuple[str, ...]
    ids: np.ndarray  # int32
    lens: np.ndarray  # int64, one per sentence

    @classmethod
    def of(cls, texts: Iterable[Sequence[str]]) -> TokenStream:
        """The token sequences interned, ids in string order; a token that is empty
        or holds whitespace, which no loader could produce, is a ``ValueError``."""
        texts = list(texts)
        stream = cls.intern(chain.from_iterable(texts), np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)))
        bad = [token for token in stream.vocab if token.split() != [token]]  # one check per distinct token
        if bad:
            raise ValueError(f"token {bad[0]!r} is empty or holds whitespace; no loader could produce it")
        return stream

    @classmethod
    def intern(cls, tokens: Iterable[str], lens: np.ndarray) -> TokenStream:
        """Sentences of these lengths whose tokens come end to end, interned, ids in string order."""
        return _intern([(tokens, lens)])

    def __len__(self) -> int:
        return len(self.lens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenStream):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.lens, other.lens)
        )

    __hash__ = None

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lens) - self.lens

    def take(self, rows) -> TokenStream:
        """The sentences at these row indices, in this order, over the same vocabulary."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = self.lens[rows]
        return TokenStream(self.vocab, self.ids[np.repeat(self.starts[rows], lens) + depths(lens)], lens)

    def lookup(self, ids: Mapping[str, int], default: int) -> np.ndarray:
        """The stream's tokens under other ids (``default`` for a token ``ids``
        lacks): one lookup per vocabulary entry, then a gather."""
        table = np.fromiter(map(ids.get, self.vocab, repeat(default)), dtype=np.int32, count=len(self.vocab))
        return table[self.ids]

    def texts(self) -> Iterator[tuple[str, ...]]:
        """Every sentence's tokens, in order."""
        tokens = list(map(self.vocab.__getitem__, self.ids.tolist()))
        at = 0
        for n in self.lens.tolist():
            yield tuple(tokens[at : at + n])
            at += n


def _intern(chunks: Iterable[tuple[Iterable[str], np.ndarray]]) -> TokenStream:
    """Chunks of sentences, each its tokens end to end and its lengths, as one stream.

    Tokens get ids in first-seen order as the chunks arrive, so only one
    chunk's token strings are alive at a time; the ids are then
    renumbered in string order.
    """
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__  # a new token gets the next id
    ids, lens = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int64)]
    for tokens, n in chunks:
        ids.append(np.fromiter(map(first_seen.__getitem__, tokens), dtype=np.int32, count=int(n.sum())))
        lens.append(n)
    seen = list(first_seen)
    order = sorted(range(len(seen)), key=seen.__getitem__)
    renumber = np.empty(len(seen), dtype=np.int32)
    renumber[order] = np.arange(len(seen), dtype=np.int32)
    return TokenStream(tuple(map(seen.__getitem__, order)), renumber[np.concatenate(ids)], np.concatenate(lens))


def as_stream(sentences) -> TokenStream:
    """The source side of a corpus, or of sentences or token sequences, as a ``TokenStream``."""
    if isinstance(sentences, Corpus):
        return sentences.source
    if isinstance(sentences, TokenStream):
        return sentences
    return TokenStream.of(x.source_tokens if isinstance(x, Sentence) else x for x in sentences)


class Corpus:
    """An immutable, contiguously numbered sequence of sentences.

    ``source`` (and, for a parallel corpus, ``target``) holds the
    sentences' tokens as a ``TokenStream``. Indexing, iterating and
    ``sentences`` give ``Sentence`` views. ``Corpus(sentences)`` builds a
    corpus from ``Sentence`` objects numbered 0..n-1.
    """

    def __init__(self, sentences: Iterable[Sentence] = (), parallel: bool = False, n_skipped: int = 0):
        sentences = tuple(sentences)
        for pos, sent in enumerate(sentences):
            if sent.id != pos:
                raise ValueError(f"sentence ids not contiguous: {sent.id} at position {pos}")
            if parallel and sent.target_tokens is None:
                raise ValueError(f"sentence {pos} lacks a target side in a parallel corpus")
        target = TokenStream.of(s.target_tokens for s in sentences) if parallel else None
        self._init(TokenStream.of(s.source_tokens for s in sentences), target, n_skipped)

    def _init(self, source: TokenStream, target: TokenStream | None, n_skipped: int) -> None:
        for stream in (source, target):
            if stream is not None:
                stream.ids.flags.writeable = stream.lens.flags.writeable = False
        self.source = source
        self.target = target
        self.parallel = target is not None
        self.n_skipped = n_skipped  # blank lines dropped by the loader
        self._sentences: tuple[Sentence, ...] | None = None

    @classmethod
    def _of(cls, source: TokenStream, target: TokenStream | None = None, n_skipped: int = 0) -> Corpus:
        out = cls.__new__(cls)
        out._init(source, target, n_skipped)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.n_skipped, self.source, self.target) == (other.n_skipped, other.source, other.target)

    __hash__ = None

    def __len__(self) -> int:
        return len(self.source)

    def _views(self, rows: Sequence[int]) -> Iterator[Sentence]:
        targets = self.target.take(rows).texts() if self.target is not None else repeat(None)
        return map(Sentence, rows, self.source.take(rows).texts(), targets)

    def __getitem__(self, idx):
        rows = range(len(self))
        if isinstance(idx, slice):
            return tuple(self._views(rows[idx]))
        return next(self._views([rows[idx]]))  # rows[idx] raises IndexError as a tuple would

    def __iter__(self) -> Iterator[Sentence]:
        return self._views(range(len(self)))

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        """Every sentence as a ``Sentence``, built on first read and kept."""
        if self._sentences is None:
            self._sentences = tuple(self)
        return self._sentences

    @property
    def total_cost(self) -> int:
        return int(self.source.lens.sum())


def read_text(path, newline: str | None = None) -> str:
    """A file's UTF-8 text, line ends translated as ``open``'s ``newline`` says; bytes
    that are not UTF-8 raise ``ConfigError`` naming the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if newline is None:  # no UTF-8 character holds a "\r" or "\n" byte, so translate bytes
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path} line {line}: not UTF-8 text") from None


def read_lines(path, newline: str | None = None) -> list[str]:
    """``read_text`` split at "\n", without the empty text after a final newline."""
    lines = read_text(path, newline).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _tokenized(lines: list[str], tokenizer: str) -> Iterator[tuple[Iterable[str], np.ndarray]]:
    """The lines tokenized a chunk at a time, blank lines included (at length 0)."""
    for start in range(0, len(lines), _CHUNK):
        split = [tokenize(line, tokenizer) for line in lines[start : start + _CHUNK]]
        yield chain.from_iterable(split), np.fromiter(map(len, split), dtype=np.int64, count=len(split))


def load_corpus(source_path, target_path=None, tokenizer: str = "whitespace") -> Corpus:
    """Read a corpus from disk.

    One leading byte-order mark (U+FEFF) is dropped from each file. Lines
    blank on both sides are skipped (counted and reported); a line blank on
    exactly one side of a parallel pair is an alignment defect.
    Remaining sentences are renumbered 0..n-1 in file order.

    Raises:
        AlignmentError: line counts differ, or a pair is half-blank.
        EmptyCorpusError: no usable sentence remains.
        ConfigError: unknown tokenizer id, or a file that is not UTF-8.
        OSError: a file cannot be read.
    """
    tokenize("", tokenizer)  # fail fast on a bad tokenizer id
    # only "\n" ends a line: a stray "\r" is whitespace to the tokenizer, so it cannot shift a pair
    src_lines = read_lines(source_path, newline="")
    tgt_lines = None
    if target_path is not None:
        tgt_lines = read_lines(target_path, newline="")
        if len(src_lines) != len(tgt_lines):
            raise AlignmentError(
                f"source/target line counts differ: {len(src_lines)} vs {len(tgt_lines)}"
            )
    for lines in filter(None, (src_lines, tgt_lines)):
        lines[0] = lines[0].removeprefix("\ufeff")  # one leading byte-order mark per file

    source = _intern(_tokenized(src_lines, tokenizer))
    del src_lines
    keep = source.lens > 0
    target = None
    if tgt_lines is not None:
        target = _intern(_tokenized(tgt_lines, tokenizer))
        del tgt_lines
        half = np.flatnonzero(keep != (target.lens > 0))
        if len(half):
            side = "source" if target.lens[half[0]] else "target"
            raise AlignmentError(f"line {half[0] + 1}: {side} side is blank in a parallel pair")
        target = TokenStream(target.vocab, target.ids, target.lens[keep])
    source = TokenStream(source.vocab, source.ids, source.lens[keep])

    if not len(source):
        raise EmptyCorpusError(f"no usable sentences in {source_path}")
    skipped = int(np.count_nonzero(~keep))
    if skipped:
        logger.warning("skipped %d blank line(s) while loading %s", skipped, source_path)
    corpus = Corpus._of(source, target, skipped)
    logger.info(
        "loaded %d sentence(s), %d source word(s) from %s", len(corpus), corpus.total_cost, source_path
    )
    return corpus
