"""Embedding matrices: word2vec text I/O, label normalization, anchors, merging.

An :class:`EmbeddingMatrix` is an ordered vocabulary plus one dense row per
token. The same type holds both the semantic space (vectors trained from
text) and the domain space (vectors trained from a knowledge graph).
"""

from __future__ import annotations

import logging
import os
import stat
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class EmbeddingFormatError(ValueError):
    """Malformed embedding file; message carries the offending line number."""


@dataclass
class EmbeddingMatrix:
    tokens: list[str]
    vectors: np.ndarray  # (n_tokens, dim) float64
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-d, got shape {self.vectors.shape}")
        if len(self.tokens) != self.vectors.shape[0]:
            raise ValueError(
                f"{len(self.tokens)} tokens but {self.vectors.shape[0]} vector rows"
            )
        if not np.all(np.isfinite(self.vectors)):
            bad = int(np.argwhere(~np.isfinite(self.vectors).all(axis=1))[0][0])
            raise ValueError(f"non-finite value in row {bad} ({self.tokens[bad]!r})")
        self._index = {}
        for i, tok in enumerate(self.tokens):
            if tok in self._index:
                raise ValueError(f"duplicate token {tok!r} at rows {self._index[tok]} and {i}")
            self._index[tok] = i

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def row_index(self, token: str) -> int:
        return self._index[token]

    def row(self, token: str) -> np.ndarray:
        return self.vectors[self._index[token]]


@dataclass(frozen=True)
class AnchorMap:
    """Row-index pairs for tokens present in both vocabularies."""

    pairs: list[tuple[int, int]]  # (semantic_row, domain_row)

    def __len__(self) -> int:
        return len(self.pairs)

    def semantic_rows(self) -> list[int]:
        return [s for s, _ in self.pairs]

    def domain_rows(self) -> list[int]:
        return [d for _, d in self.pairs]


def normalize_label(raw: str) -> str:
    """Lower-case and replace every space with a hyphen; nothing else."""
    return raw.lower().replace(" ", "-")


def read_embeddings(path: str) -> EmbeddingMatrix:
    """Read word2vec text format: header "<count> <dim>", then one token per line.

    Raises :class:`EmbeddingFormatError` with a line number for a malformed
    header, wrong row arity, duplicate tokens, or non-finite values.
    """
    tokens: list[str] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(f"{path}:1: header must be '<count> <dim>', got {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}:1: non-integer header fields {header!r}") from None
        if count < 0 or dim < 1:
            raise EmbeddingFormatError(f"{path}:1: invalid header count={count} dim={dim}")
        # before allocating: a row is a token and dim values, each one byte and a separator
        st, need = os.fstat(fh.fileno()), count * 2 * (dim + 1)
        if stat.S_ISREG(st.st_mode) and need > st.st_size:
            raise EmbeddingFormatError(f"{path}:1: header declares {count} rows of dim {dim}, "
                                       f"at least {need} bytes, but the file has {st.st_size}")

        vectors = np.empty((count, dim), dtype=np.float64)
        row = 0
        try:
            for lineno, line in enumerate(fh, start=2):
                fields = line.split()
                if not fields:  # a blank line
                    continue
                if row >= count:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: more rows than declared count {count}")
                if len(fields) != dim + 1:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: row arity {len(fields) - 1} != declared dim {dim}")
                token = fields[0]
                if token in seen:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: duplicate token {token!r} (first at line {seen[token]})")
                seen[token] = lineno
                try:  # numpy parses each string with Python's float()
                    vectors[row] = fields[1:]
                except ValueError:
                    raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric value") from None
                tokens.append(token)
                row += 1
        finally:  # the rows read so far, in bulk: a non-finite value outranks a later line's fault
            finite = np.isfinite(vectors[:row]).all(axis=1)
            if not finite.all():
                first = seen[tokens[finite.argmin()]]
                raise EmbeddingFormatError(f"{path}:{first}: non-finite value") from None
    if row != count:
        raise EmbeddingFormatError(f"{path}: declared {count} rows but found {row}")
    return EmbeddingMatrix(tokens, vectors)


def _format_value(v: float) -> str:
    # shortest repr round-trips exactly; integral values print without the .0
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def write_embeddings(matrix: EmbeddingMatrix, path: str) -> None:
    """Write word2vec text format, floats printed with exact round-trip precision.

    An empty token, or one holding whitespace, would not read back as one
    field and raises ValueError before the file is opened.
    """
    for row, token in enumerate(matrix.tokens):
        if token.split() != [token]:
            raise ValueError(f"row {row}: token {token!r} is empty or holds whitespace")
    vectors = matrix.vectors
    # only an integral value below 1e16 (-0.0 too) has a repr ending in ".0"
    integral = ((vectors == np.trunc(vectors)) & (np.abs(vectors) < 1e16)).any(axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(matrix)} {matrix.dim}\n")
        for token, vec, slow in zip(matrix.tokens, vectors.tolist(), integral.tolist()):
            fh.write(token + " " + " ".join(map(_format_value if slow else repr, vec)) + "\n")


def find_anchors(semantic: EmbeddingMatrix, domain: EmbeddingMatrix) -> AnchorMap:
    """Exact string matches between the two vocabularies, ordered by semantic row."""
    pairs = [
        (i, domain.row_index(tok))
        for i, tok in enumerate(semantic.tokens)
        if tok in domain
    ]
    return AnchorMap(pairs)


def merge_embeddings(base: EmbeddingMatrix, imputed: EmbeddingMatrix) -> EmbeddingMatrix:
    """Append imputed rows for tokens absent from base; base rows win collisions.

    Base rows are carried over byte-identical so the original model is
    preserved exactly.
    """
    if base.dim != imputed.dim:
        raise ValueError(f"dimension mismatch: base dim {base.dim}, imputed dim {imputed.dim}")
    extra_tokens = [t for t in imputed.tokens if t not in base]
    n_collisions = len(imputed) - len(extra_tokens)
    if n_collisions:
        logger.info("merge: %d imputed tokens already in base, base rows kept", n_collisions)
    extra = imputed.vectors[[imputed.row_index(t) for t in extra_tokens]]
    return EmbeddingMatrix(list(base.tokens) + extra_tokens, np.vstack([base.vectors, extra]))
