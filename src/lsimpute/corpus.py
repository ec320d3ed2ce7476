"""Simulate out-of-vocabulary conditions by filtering sentences that mention target terms.

A sentence is removed when any of its tokens equals a target term or a naive
plural of one (term + "s" or term + "es"). Matching happens at token
granularity after light tokenization, never by raw substring, so "anemic"
does not trigger removal for the term "anemia".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .graph import open_maybe_gzip

_STRIP_CHARS = ".,;:!?()\"'[]"

PLURAL_SUFFIXES = ("s", "es")  # naive rule; irregular plurals are out of scope


@dataclass
class FilterStats:
    total: int = 0
    removed: int = 0
    term_hits: dict[str, int] = field(default_factory=dict)  # sentences removed per term

    @property
    def kept(self) -> int:
        return self.total - self.removed

    @property
    def removal_fraction(self) -> float:
        return self.removed / self.total if self.total else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "total_sentences": self.total,
                "removed_sentences": self.removed,
                "kept_sentences": self.kept,
                "removal_fraction": self.removal_fraction,
                "term_hits": dict(sorted(self.term_hits.items())),
            },
            indent=2,
        )


def tokenize_sentence(line: str) -> list[str]:
    """Lower-case, split on whitespace, strip surrounding punctuation, keep hyphens."""
    tokens = []
    for raw in line.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


def _kept_sentences(
    sentences: Iterable[str], terms: set[str], stats: FilterStats
) -> Iterator[str]:
    """Yield the sentences that mention no target term, counting into `stats`."""
    variants: dict[str, list[str]] = {}  # each token form that matches, and the terms it matches
    for term in terms:
        for form in (term, *(term + suffix for suffix in PLURAL_SUFFIXES)):
            variants.setdefault(form, []).append(term)
    variants.pop("", None)  # a word that strips to "" is no token
    forms = variants.keys()
    for sentence in sentences:
        stats.total += 1
        tokens = [raw.strip(_STRIP_CHARS) for raw in sentence.lower().split()]
        if forms.isdisjoint(tokens):
            yield sentence
            continue
        stats.removed += 1
        for term in {term for tok in tokens for term in variants.get(tok, ())}:
            stats.term_hits[term] = stats.term_hits.get(term, 0) + 1


def filter_corpus(
    sentences: Iterable[str], terms: set[str]
) -> tuple[list[str], FilterStats]:
    """Drop every sentence containing a target term (singular or plural form).

    Kept sentences pass through byte-identical. Each removed sentence counts
    one hit for every distinct term that matched it.
    """
    stats = FilterStats()
    return list(_kept_sentences(sentences, terms, stats)), stats


def filter_corpus_file(in_path: str, out_path: str, terms: set[str]) -> FilterStats:
    """Streaming variant: line-by-line over possibly gzipped files, order preserved.

    An output path naming the input file raises ValueError before either is
    opened, since opening the output would empty the input.
    """
    if os.path.exists(out_path) and os.path.samefile(in_path, out_path):
        raise ValueError(f"output {out_path} is the input corpus {in_path}")
    stats = FilterStats()
    with open_maybe_gzip(in_path) as src, open_maybe_gzip(out_path, "wt") as dst:
        lines = (line.rstrip("\n") for line in src)
        dst.writelines(sentence + "\n" for sentence in _kept_sentences(lines, terms, stats))
    return stats
