"""Loading and tokenizing line-aligned text corpora.

A corpus is one UTF-8 file of source text, optionally paired with a
target-side file aligned line by line. Sentences are kept in file order
and re-numbered contiguously from 0 after blank-line skipping, so a
sentence id is always a valid index into ``corpus.sentences``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import AlignmentError, ConfigError, EmptyCorpusError

logger = logging.getLogger(__name__)

TOKENIZERS = ("whitespace", "lowercase-whitespace")


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


@dataclass(frozen=True)
class Corpus:
    """An immutable, contiguously numbered sequence of sentences."""

    sentences: tuple[Sentence, ...]
    parallel: bool = False
    n_skipped: int = 0  # blank lines dropped by the loader

    def __post_init__(self) -> None:
        for pos, sent in enumerate(self.sentences):
            if sent.id != pos:
                raise ValueError(f"sentence ids not contiguous: {sent.id} at position {pos}")
            if self.parallel and sent.target_tokens is None:
                raise ValueError(f"sentence {pos} lacks a target side in a parallel corpus")

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __getitem__(self, idx: int) -> Sentence:
        return self.sentences[idx]

    @property
    def total_cost(self) -> int:
        return sum(s.cost for s in self.sentences)


def _read_lines(path) -> list[str]:
    # only "\n" ends a line; a stray "\r" stays in the line, where the
    # tokenizer treats it as whitespace, so it cannot shift a parallel pair
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # text after the final newline, not a blank line
    return lines


def load_corpus(source_path, target_path=None, tokenizer: str = "whitespace") -> Corpus:
    """Read a corpus from disk.

    Lines blank on both sides are skipped (counted and reported); a line
    blank on exactly one side of a parallel pair is an alignment defect.
    Remaining sentences are renumbered 0..n-1 in file order.

    Raises:
        AlignmentError: line counts differ, or a pair is half-blank.
        EmptyCorpusError: no usable sentence remains.
        ConfigError: unknown tokenizer id.
        OSError: a file cannot be read.
    """
    tokenize("", tokenizer)  # fail fast on a bad tokenizer id
    src_lines = _read_lines(source_path)
    tgt_lines = None
    if target_path is not None:
        tgt_lines = _read_lines(target_path)
        if len(src_lines) != len(tgt_lines):
            raise AlignmentError(
                f"source/target line counts differ: {len(src_lines)} vs {len(tgt_lines)}"
            )

    sentences: list[Sentence] = []
    skipped = 0
    for lineno, src_line in enumerate(src_lines, start=1):
        src_toks = tokenize(src_line, tokenizer)
        if tgt_lines is None:
            if not src_toks:
                skipped += 1
                continue
            sentences.append(Sentence(len(sentences), tuple(src_toks)))
        else:
            tgt_toks = tokenize(tgt_lines[lineno - 1], tokenizer)
            if not src_toks and not tgt_toks:
                skipped += 1
                continue
            if not src_toks or not tgt_toks:
                side = "source" if not src_toks else "target"
                raise AlignmentError(f"line {lineno}: {side} side is blank in a parallel pair")
            sentences.append(Sentence(len(sentences), tuple(src_toks), tuple(tgt_toks)))

    if not sentences:
        raise EmptyCorpusError(f"no usable sentences in {source_path}")
    if skipped:
        logger.warning("skipped %d blank line(s) while loading %s", skipped, source_path)
    corpus = Corpus(tuple(sentences), parallel=tgt_lines is not None, n_skipped=skipped)
    logger.info(
        "loaded %d sentence(s), %d source word(s) from %s", len(corpus), corpus.total_cost, source_path
    )
    return corpus
