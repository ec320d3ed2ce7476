from __future__ import annotations

import gzip
import json

import numpy as np

from lsimpute import filter_corpus, tokenize_sentence
from lsimpute.corpus import filter_corpus_file

from oracles import naive_filter, per_token_filter


def test_tokenize_strips_punctuation():
    assert tokenize_sentence("Anemia, treated with Coumadin.") == [
        "anemia", "treated", "with", "coumadin",
    ]


def test_tokenize_preserves_hyphens():
    assert tokenize_sentence("alpha-2-HS-glycoprotein binds") == [
        "alpha-2-hs-glycoprotein", "binds",
    ]


def test_tokenize_empty_and_punctuation_only():
    assert tokenize_sentence("") == []
    assert tokenize_sentence("?! ... ()") == []


def test_filter_removes_singular_and_plural():
    kept, stats = filter_corpus(
        ["anemia is common", "anemias were noted", "no mention here"], {"anemia"}
    )
    assert kept == ["no mention here"]
    assert stats.total == 3 and stats.removed == 2
    assert stats.term_hits == {"anemia": 2}


def test_filter_respects_token_boundaries():
    kept, stats = filter_corpus(["anemic patients improved"], {"anemia"})
    assert kept == ["anemic patients improved"]
    assert stats.removed == 0


def test_filter_es_plural():
    kept, _ = filter_corpus(["two abscesses drained", "one abscess drained"], {"abscess"})
    assert kept == []


def test_kept_lines_byte_identical():
    lines = ["  Weird   spacing\tand type ", "UPPER case LINE!!"]
    kept, _ = filter_corpus(lines, {"zzz"})
    assert kept == lines


def test_filter_matches_naive_scan_oracle():
    rng = np.random.default_rng(101)
    vocab = [f"word{i}" for i in range(30)] + ["anemia", "rales", "lasix"]
    sentences = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 12)))
        + rng.choice([".", "!", "", " extra?"])
        for _ in range(2000)
    ]
    terms = {"anemia", "rales", "word3"}
    kept, stats = filter_corpus(sentences, terms)
    assert kept == naive_filter(sentences, terms)
    assert stats.total == 2000
    assert stats.removed == 2000 - len(kept)


def test_filter_matches_per_token_oracle():
    # "axes" is "axe" + "s" and "ax" + "es"; "s" and "es" alone are plurals of the empty
    # term; "...", "()" and "!" strip to nothing
    terms = {"ax", "axe", "axes", "anemia", "rales", ""}
    sentences = ["Two axes.", "an AX, then (axe)", "axess here", "Anemias; rales!",
                 "... () ! ?", "no match at all", "s", "es and more", "'Rales'", "", "  ",
                 "axe's edge", "[anemia]es", "maxes out"]
    rng = np.random.default_rng(7)
    vocab = ["ax", "axe", "axes", "axees", "Anemias,", "rale", "(s)", "-", "...", "filler"]
    sentences += [" ".join(rng.choice(vocab, size=rng.integers(0, 6))) for _ in range(300)]
    for chosen in (terms, {"axe"}, {"ax", "axes"}, {""}):
        kept, stats = filter_corpus(sentences, chosen)
        want_kept, want_hits = per_token_filter(sentences, chosen)
        assert kept == want_kept
        assert stats.term_hits == want_hits
        assert stats.removed == len(sentences) - len(kept)


def test_filter_idempotent():
    rng = np.random.default_rng(55)
    vocab = ["aa", "bb", "cc", "dd", "target"]
    sentences = [" ".join(rng.choice(vocab, size=5)) for _ in range(500)]
    terms = {"target"}
    kept, _ = filter_corpus(sentences, terms)
    kept2, stats2 = filter_corpus(kept, terms)
    assert kept2 == kept
    assert stats2.removed == 0


def test_removal_depends_only_on_token_multiset():
    rng = np.random.default_rng(66)
    terms = {"anemia", "rales"}
    for _ in range(100):
        toks = list(rng.choice(["anemia", "x", "y", "z", "rales."], size=6))
        shuffled = list(rng.permutation(toks))
        k1, _ = filter_corpus([" ".join(toks)], terms)
        k2, _ = filter_corpus([" ".join(shuffled)], terms)
        assert (len(k1) == 0) == (len(k2) == 0)


def test_stats_fraction():
    _, stats = filter_corpus(["anemia", "fine", "fine too", "fine three"], {"anemia"})
    assert stats.removal_fraction == 0.25
    payload = json.loads(stats.to_json())
    assert payload["removed_sentences"] == 1
    assert payload["total_sentences"] == 4


def test_file_filtering_with_gzip(tmp_path):
    src = tmp_path / "corpus.txt.gz"
    with gzip.open(src, "wt") as fh:
        fh.write("anemia found\nclean line\nanother clean one\n")
    dst = tmp_path / "filtered.txt"
    stats = filter_corpus_file(str(src), str(dst), {"anemia"})
    assert stats.removed == 1
    assert dst.read_text() == "clean line\nanother clean one\n"
