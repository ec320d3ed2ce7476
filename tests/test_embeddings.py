from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsimpute import (
    EmbeddingMatrix,
    find_anchors,
    merge_embeddings,
    normalize_label,
    read_embeddings,
    write_embeddings,
)
from lsimpute.embeddings import EmbeddingFormatError

from conftest import random_embedding
from oracles import read_word2vec_text


def test_read_simple_file(tmp_path):
    p = tmp_path / "emb.vec"
    p.write_text("2 3\na 1 0 0\nb 0 1 0\n")
    m = read_embeddings(str(p))
    assert m.tokens == ["a", "b"]
    np.testing.assert_array_equal(m.vectors, [[1, 0, 0], [0, 1, 0]])


def test_read_wrong_arity(tmp_path):
    p = tmp_path / "emb.vec"
    p.write_text("1 2\na 1 0 0\n")
    with pytest.raises(EmbeddingFormatError, match="arity 3 != declared dim 2"):
        read_embeddings(str(p))


def test_read_errors_carry_line_numbers(tmp_path):
    cases = {
        "bad header": ("nonsense\na 1\n", ":1:"),
        "duplicate": ("2 1\na 1\na 2\n", ":3:"),
        "non-finite": ("1 2\na 1 nan\n", ":2:"),
        "non-numeric": ("1 1\na x\n", ":2:"),
    }
    for name, (content, marker) in cases.items():
        p = tmp_path / "emb.vec"
        p.write_text(content)
        with pytest.raises(EmbeddingFormatError, match=marker):
            read_embeddings(str(p))


def test_read_row_count_mismatch(tmp_path):
    p = tmp_path / "emb.vec"
    p.write_text("3 1\na 1\nb 2\n")
    with pytest.raises(EmbeddingFormatError, match="declared 3 rows but found 2"):
        read_embeddings(str(p))


@pytest.mark.parametrize("header", ["1000000000 200", "1 1000000000"])
def test_read_rejects_header_the_file_cannot_hold(tmp_path, header):
    # every row takes at least 2 * (dim + 1) bytes; the check comes before the
    # (count, dim) array is allocated, 1.46 TiB and 7.45 GiB here
    p = tmp_path / "emb.vec"
    p.write_text(header + "\na 1\n")
    with pytest.raises(EmbeddingFormatError, match=r"emb\.vec:1: header declares"):
        read_embeddings(str(p))


def test_write_simple(tmp_path):
    p = tmp_path / "emb.vec"
    write_embeddings(EmbeddingMatrix(["a"], np.array([[1.0, 0.0]])), str(p))
    assert p.read_text() == "1 2\na 1 0\n"


def test_write_prints_each_value_by_repr_less_a_trailing_point_zero(tmp_path):
    p = tmp_path / "emb.vec"
    rows = np.array([[-0.0, 1e15, 1e16, 2.5], [-3.0, 5e-324, 1e300, 0.1], [0.5, -0.25, 1.5, 3e-9]])
    write_embeddings(EmbeddingMatrix(["a", "b", "c"], rows), str(p))
    assert p.read_text() == ("3 4\na -0 1000000000000000 1e+16 2.5\nb -3 5e-324 1e+300 0.1\n"
                             "c 0.5 -0.25 1.5 3e-09\n")


@pytest.mark.parametrize("token", ["", "two words", "tab\there", "line\nbreak", "nbsp\u00a0"])
def test_write_rejects_unreadable_token_before_opening(tmp_path, token):
    p = tmp_path / "emb.vec"
    m = EmbeddingMatrix(["ok", token], np.ones((2, 3)))
    with pytest.raises(ValueError, match=f"row 1: token {re.escape(repr(token))}"):
        write_embeddings(m, str(p))
    assert not p.exists()


def test_write_empty_matrix(tmp_path):
    p = tmp_path / "emb.vec"
    write_embeddings(EmbeddingMatrix([], np.zeros((0, 5))), str(p))
    assert p.read_text() == "0 5\n"
    m = read_embeddings(str(p))
    assert len(m) == 0 and m.dim == 5


def test_roundtrip_random_matrices(tmp_path):
    # write -> read must reproduce tokens and exact float values
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 9))
        m = random_embedding(n, dim, rng)
        p = tmp_path / f"emb_{trial}.vec"
        write_embeddings(m, str(p))
        back = read_embeddings(str(p))
        assert back.tokens == m.tokens
        np.testing.assert_array_equal(back.vectors, m.vectors)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 7.0, -(2.0**60), 1e22])
_TOKEN = st.text(st.characters(exclude_categories=("Cs",)), min_size=1).filter(
    lambda t: t.split() == [t])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_roundtrip_property(tmp_path_factory, data):
    dim = data.draw(st.integers(1, 4))
    tokens = data.draw(st.lists(_TOKEN, max_size=6, unique=True))
    values = data.draw(st.lists(_FINITE, min_size=dim * len(tokens), max_size=dim * len(tokens)))
    m = EmbeddingMatrix(tokens, np.array(values, dtype=np.float64).reshape(len(tokens), dim))
    p = tmp_path_factory.mktemp("prop") / "emb.vec"
    write_embeddings(m, str(p))
    back = read_embeddings(str(p))
    assert back.tokens == m.tokens
    assert back.vectors.tobytes() == m.vectors.tobytes()  # -0.0 and subnormals included


def _outcome(read, path: str) -> tuple:
    """What a reader makes of a file: tokens, shape and vector bytes, or its
    exception's type and message."""
    try:
        tokens, vectors = read(path)
    except Exception as exc:  # the type and the message are what is compared
        return type(exc), str(exc)
    return tokens, vectors.shape, vectors.tobytes()


def _read_bulk(path: str) -> tuple[list[str], np.ndarray]:
    m = read_embeddings(path)
    return m.tokens, m.vectors


def _read_reference(path: str) -> tuple[list[str], np.ndarray]:
    return read_word2vec_text(path, EmbeddingFormatError)


def test_reader_matches_reference_on_written_files(tmp_path):
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 7.0, -(2.0**60), 1e22, 1.5e-300]
    for trial in range(30):
        m = random_embedding(int(rng.integers(0, 12)), int(rng.integers(1, 9)), rng)
        m.vectors[rng.random(m.vectors.shape) < 0.3] = rng.choice(special)
        p = str(tmp_path / f"emb_{trial}.vec")
        write_embeddings(m, p)
        assert _outcome(_read_bulk, p) == _outcome(_read_reference, p)


# spellings Python's float() reads, and ones it refuses or reads as non-finite
_SPELLING = st.sampled_from(["0", "7", "-0.0", "-0", "5e-324", "-2.5e-310", "1E+3", "1e-07",
                             "1_0", "+.5", "1.", "-12.25", "\uff11\uff12", "\u0661"]) | st.floats(
    allow_nan=False, allow_infinity=False).map(repr)
_FAULT = st.sampled_from(["nan", "-inf", "Infinity", "1e500", "x", "1__0", "0x10", "_1", "1e"])
_SEP = st.sampled_from([" ", "  ", "\t", " \t ", "\u3000"])
_EOL = st.sampled_from(["\n", "\r\n", " \n", "\t\r\n"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_matches_reference_on_hand_made_files(tmp_path_factory, data):
    dim = data.draw(st.integers(1, 4))
    faulty = data.draw(st.booleans())
    if faulty:  # a small alphabet repeats tokens; rows may be one value short or long
        tokens = data.draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=6))
        values = [data.draw(st.lists(_SPELLING | _FAULT, min_size=max(1, dim - 1),
                                     max_size=dim + 1)) for _ in tokens]
        header = data.draw(st.sampled_from([f"{len(tokens) + d} {dim}" for d in (-1, 0, 0, 1)]
                                           + ["nonsense", "1.5 2", "-1 2", "2 0", "3",
                                              "1000000000 200", "1 1000000000"]))
    else:
        tokens = data.draw(st.lists(_TOKEN, max_size=6, unique=True))
        values = [data.draw(st.lists(_SPELLING, min_size=dim, max_size=dim)) for _ in tokens]
        header = f"{len(tokens)} {dim}"
    lines = [header + data.draw(_EOL)]
    for token, row in zip(tokens, values):
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", " ", "\t"])) + data.draw(_EOL))
        fields = [token, *row]
        lines.append(data.draw(st.sampled_from(["", " "])) + "".join(
            f + data.draw(_SEP) for f in fields[:-1]) + fields[-1] + data.draw(_EOL))
    lines.append(data.draw(st.sampled_from(["", "\n", "\n\n", " \r\n"])))
    p = tmp_path_factory.mktemp("hand") / "emb.vec"
    p.write_bytes("".join(lines).encode("utf-8"))
    assert _outcome(_read_bulk, str(p)) == _outcome(_read_reference, str(p))


# each fault alone, and pairs of faults in either order: the earlier line is reported
_FAULTY_FILES = {
    "bad header": "nonsense\na 1\n",
    "non-integer header": "1 2.0\na 1 2\n",
    "invalid header": "-1 2\n",
    "size guard": "1000 20\na 1\n",
    "arity": "2 2\na 1 2\nb 1\n",
    "duplicate": "2 1\na 1\na 2\n",
    "non-numeric": "2 1\na 1\nb x\n",
    "nan": "2 2\na 1 2\nb 1 nan\n",
    "inf": "2 2\na inf 2\nb 1 2\n",
    "overflow to inf": "1 1\na 1e400\n",
    "too many rows": "1 1\na 1\nb 2\n",
    "too few rows": "3 1\na 1\n\nb 2\n",
    "nan then duplicate": "4 1\na 1\nb nan\nc 3\nc 4\n",
    "duplicate then nan": "4 1\na 1\na 2\nb nan\nc 4\n",
    "nan then non-numeric": "3 1\na nan\nb 2\nc y\n",
    "non-numeric then nan": "3 1\na y\nb nan\nc 2\n",
    "nan then arity": "3 2\na 1 2\nb 1 -inf\nc 1\n",
    "arity then nan": "3 2\na 1\nb nan 2\nc 1 2\n",
    "nan then too many rows": "2 1\na 1\nb nan\nc 3\n",
    "too many rows then nan": "1 1\na 1\nb nan\n",
    "nan then too few rows": "3 1\na 1\nb nan\n",
    "two non-finite rows": "3 1\na 1\nb inf\nc nan\n",
}


@pytest.mark.parametrize("case", _FAULTY_FILES)
def test_reader_faults_match_reference(tmp_path, case):
    p = tmp_path / "emb.vec"
    p.write_text(_FAULTY_FILES[case])
    want = _outcome(_read_reference, str(p))
    assert want[0] is EmbeddingFormatError
    assert _outcome(_read_bulk, str(p)) == want


def test_write_read_write_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    m = random_embedding(20, 7, rng)
    p1, p2 = tmp_path / "a.vec", tmp_path / "b.vec"
    write_embeddings(m, str(p1))
    write_embeddings(read_embeddings(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_normalize_label():
    assert normalize_label("alpha-2-HS-Glycoprotein") == "alpha-2-hs-glycoprotein"
    assert normalize_label("Medical Subject Headings") == "medical-subject-headings"
    assert normalize_label("abc") == "abc"


def test_normalize_label_idempotent():
    rng = np.random.default_rng(0)
    alphabet = list("aA zZ-09.@")
    for _ in range(200):
        raw = "".join(rng.choice(alphabet, size=rng.integers(0, 20)))
        once = normalize_label(raw)
        assert normalize_label(once) == once


def test_find_anchors_intersection():
    a = EmbeddingMatrix(["a", "b", "c"], np.eye(3))
    b = EmbeddingMatrix(["b", "c", "d"], np.eye(3))
    anchors = find_anchors(a, b)
    assert anchors.pairs == [(1, 0), (2, 1)]


def test_find_anchors_disjoint():
    a = EmbeddingMatrix(["a"], np.ones((1, 2)))
    b = EmbeddingMatrix(["z"], np.ones((1, 2)))
    assert len(find_anchors(a, b)) == 0


def test_merge_appends_new_tokens():
    base = EmbeddingMatrix(["a"], np.array([[1.0, 0.0]]))
    imputed = EmbeddingMatrix(["b"], np.array([[0.0, 1.0]]))
    merged = merge_embeddings(base, imputed)
    assert merged.tokens == ["a", "b"]
    np.testing.assert_array_equal(merged.vectors, [[1, 0], [0, 1]])


def test_merge_base_wins_collisions():
    base = EmbeddingMatrix(["a"], np.array([[1.0, 0.0]]))
    imputed = EmbeddingMatrix(["a"], np.array([[9.0, 9.0]]))
    merged = merge_embeddings(base, imputed)
    assert merged.tokens == ["a"]
    np.testing.assert_array_equal(merged.vectors, [[1, 0]])


def test_merge_with_empty_is_identity():
    base = EmbeddingMatrix(["a", "b"], np.arange(4.0).reshape(2, 2))
    merged = merge_embeddings(base, EmbeddingMatrix([], np.zeros((0, 2))))
    assert merged.tokens == base.tokens
    np.testing.assert_array_equal(merged.vectors, base.vectors)


def test_merge_preserves_base_rows_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        base = random_embedding(int(rng.integers(1, 10)), 4, rng, prefix="b")
        other = random_embedding(int(rng.integers(0, 10)), 4, rng, prefix="x")
        merged = merge_embeddings(base, other)
        for tok in base.tokens:
            assert merged.row(tok).tobytes() == base.row(tok).tobytes()


def test_merge_dimension_mismatch():
    base = EmbeddingMatrix(["a"], np.ones((1, 2)))
    other = EmbeddingMatrix(["b"], np.ones((1, 3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        merge_embeddings(base, other)


def test_matrix_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError, match="duplicate token"):
        EmbeddingMatrix(["a", "a"], np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingMatrix(["a"], np.array([[np.inf, 0.0]]))
