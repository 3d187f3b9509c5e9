"""Tokenization, sizing thresholds, embeddings, token-id inputs, and corpus
file round-trips."""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakereal import corpus, fileio
from fakereal.corpus import (
    DATASET_PRESETS,
    OOV_RANGE,
    CorpusError,
    CorpusTokens,
    Label,
    NewsArticle,
    Thresholds,
    TokenizedArticle,
    compute_thresholds,
    load_corpus,
    load_embeddings,
    load_tokenized,
    split_article,
    token_ids,
    write_corpus,
    write_embeddings,
)
from fakereal.fileio import CACHE_DIR

from conftest import (
    STAMP_CASES,
    article_token_ids,
    assert_same_bits,
    check_stamp_case,
    flip_line,
    float_load_embeddings,
    oracle_table,
    oracle_vector,
    split_token_ids,
)


def art(body, headline="Breaking News", label=Label.REAL, art_id="a1", pubs=None):
    return NewsArticle(id=art_id, headline=headline, body=body, label=label,
                       publisher_ids=pubs or [])


class TestSplitArticle:
    def test_lowercases_and_splits_sentences(self):
        tok = split_article(art("The cat sat. The DOG ran!"))
        assert tok.headline_tokens == ["breaking", "news"]
        assert tok.body_sentences == [["the", "cat", "sat"], ["the", "dog", "ran"]]

    def test_breaks_on_question_and_bang_runs(self):
        tok = split_article(art("Really?! Yes... maybe. ok"))
        assert tok.body_sentences == [["really"], ["yes"], ["maybe"], ["ok"]]

    def test_drops_punctuation_only_chunks(self):
        tok = split_article(art("First. ... -- ,, Second."))
        assert tok.body_sentences == [["first"], ["second"]]

    def test_keeps_digits_and_inner_apostrophes(self):
        tok = split_article(art("It's 42 dollars, isn't it?"))
        assert tok.body_sentences == [["it's", "42", "dollars", "isn't", "it"]]

    def test_empty_body_and_headline(self):
        tok = split_article(art("", headline=""))
        assert tok.headline_tokens == []
        assert tok.body_sentences == []

    def test_no_cropping_here(self):
        body = " ".join(f"w{i}" for i in range(100)) + "."
        tok = split_article(art(body))
        assert len(tok.body_sentences[0]) == 100


class TestComputeThresholds:
    def test_ceil_of_mean_plus_population_std(self):
        # sentence counts 3,5,4,8,5: mean 5, population std sqrt(2.8),
        # so t_d = ceil(6.6733...) = 7
        toks = [TokenizedArticle([], [["w"]] * n) for n in (3, 5, 4, 8, 5)]
        th = compute_thresholds(CorpusTokens.of(toks), 46)
        assert th.t_d == 7
        assert th.t_s == 46

    def test_zero_variance(self):
        toks = [TokenizedArticle([], [["w"]] * 4) for _ in range(3)]
        assert compute_thresholds(CorpusTokens.of(toks), 46).t_d == 4

    def test_floor_of_one(self):
        toks = [TokenizedArticle([], []) for _ in range(2)]
        assert compute_thresholds(CorpusTokens.of(toks), 46).t_d == 1

    def test_order_invariant(self):
        a = [TokenizedArticle([], [["w"]] * n) for n in (1, 9, 2, 7, 7, 3)]
        b = list(reversed(a))
        assert (compute_thresholds(CorpusTokens.of(a), 46)
                == compute_thresholds(CorpusTokens.of(b), 46))

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            compute_thresholds(CorpusTokens.of([]), 46)

    def test_custom_t_s(self):
        toks = [TokenizedArticle([], [["w"]])]
        assert compute_thresholds(CorpusTokens.of(toks), t_s=10).t_s == 10

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError, match="thresholds must be >= 1"):
            Thresholds(t_s=0, t_d=5)


# the OOV vector of "zyxxy" with seed 3 and E=8, in float.hex(): the draw
# must give these bits in any process
ZYXXY_SEED3_E8 = ["0x1.38afd14bd3463p-7", "-0x1.afe40296d285ap-8", "0x1.1df75643752a4p-8",
                  "0x1.35d60b91598d4p-9", "-0x1.2c7e612d4d603p-8", "0x1.6598300e5feaap-8",
                  "-0x1.7232f345ac4b0p-10", "0x1.7cd7250844e80p-13"]


def numbered(words):
    """A vocabulary of `words`: word -> id, the ids 1.. in order."""
    return dict(zip(words, range(1, len(words) + 1)))


def oov_table(tmp_path, words, oov_seed=0, dim=8):
    """load_embeddings of `words` from a file that holds none of them:
    row i is the OOV draw of words[i-1]."""
    path = tmp_path / f"known{dim}.txt"
    write_embeddings({"known": np.ones(dim)}, path)
    return load_embeddings(path, numbered(words), oov_seed)


class TestEmbeddingTable:
    """The table load_embeddings returns: the file's vectors verbatim, and
    a seeded draw for each word the file lacks."""

    def test_known_word_returned_verbatim(self, tmp_path):
        vec = np.array([1.0, -2.0, 0.5])
        path = tmp_path / "emb.txt"
        write_embeddings({"dog": np.zeros(3), "cat": vec}, path)
        table = load_embeddings(path, {"cat": 1})
        assert table.shape == (2, 3) and not table[0].any()
        assert np.array_equal(table[1], vec)

    def test_oov_is_stable_within_and_across_tables(self, tmp_path):
        first = oov_table(tmp_path, ["zyxxy"], oov_seed=3)[1]
        assert np.array_equal(first, oov_table(tmp_path, ["aard", "zyxxy"], oov_seed=3)[2])
        path = tmp_path / "other.txt"
        write_embeddings({"cat": np.zeros(8), "dog": np.ones(8)}, path)
        assert np.array_equal(first, load_embeddings(path, {"zyxxy": 1, "cat": 2}, 3)[1])

    def test_oov_depends_on_seed_and_word(self, tmp_path):
        table = oov_table(tmp_path, ["aard", "vark"], oov_seed=0)
        other_seed = oov_table(tmp_path, ["aard", "vark"], oov_seed=1)
        assert not np.array_equal(table[1], other_seed[1])
        assert not np.array_equal(table[1], table[2])

    def test_oov_draw_is_pinned(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embeddings({"cat": np.zeros(8)}, path)
        draw = f"[float(x).hex() for x in load_embeddings({str(path)!r}, {{'zyxxy': 1}}, 3)[1]]"
        src = os.path.dirname(os.path.dirname(os.path.abspath(corpus.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", "from fakereal.corpus import load_embeddings\n"
                              f"print({draw})"],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out == repr(ZYXXY_SEED3_E8) + "\n"
        assert eval(draw) == ZYXXY_SEED3_E8

    def test_oov_within_range(self, tmp_path):
        table = oov_table(tmp_path, ["one", "two", "three"], dim=16)
        assert np.all(table[1:] >= OOV_RANGE[0]) and np.all(table[1:] <= OOV_RANGE[1])


class TestBuildTensor:
    """An article's token-id matrix, and the vector table it indexes, against
    the dense oracle's word-vector tensor."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embeddings({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
                          "c": np.array([1.0, 1.0])}, path)
        return path

    def build(self, tok, th, dense_oracle, path):
        vocab = {}
        ids = token_ids(CorpusTokens.of([tok]), th, vocab)[0]
        vectors = load_embeddings(path, vocab)
        assert ids.dtype == np.int32 and ids.shape == (th.t_d + 1, th.t_s)
        want = dense_oracle.build_tensor(tok, th, float_load_embeddings(path)).data
        assert np.array_equal(vectors[ids], want)
        return ids, vocab

    def test_shape_and_layout(self, dense_oracle, path):
        tok = TokenizedArticle(["a"], [["b", "c"], ["c"]])
        ids, vocab = self.build(tok, Thresholds(t_s=3, t_d=2), dense_oracle, path)
        assert vocab == {"a": 1, "b": 2, "c": 3}      # ids in first-seen order
        assert ids.tolist() == [[1, 0, 0], [2, 3, 0], [3, 0, 0]]   # headline row first

    def test_pads_missing_slots_with_zeros(self, dense_oracle, path):
        tok = TokenizedArticle(["a"], [["b"]])
        ids, _ = self.build(tok, Thresholds(t_s=3, t_d=3), dense_oracle, path)
        assert np.all(ids[1, 1:] == 0)
        assert np.all(ids[2:] == 0)

    def test_crops_long_sentences_and_bodies(self, dense_oracle, path):
        tok = TokenizedArticle(["a", "b", "c"], [["a"], ["b"], ["c"]])
        ids, vocab = self.build(tok, Thresholds(t_s=2, t_d=2), dense_oracle, path)
        # third headline word and third sentence fall off
        assert ids.tolist() == [[1, 2], [1, 0], [2, 0]]
        assert "c" not in vocab

    def test_empty_article_is_all_zero(self, dense_oracle, path):
        ids, vocab = self.build(TokenizedArticle([], []), Thresholds(t_s=4, t_d=3),
                                dense_oracle, path)
        assert np.all(ids == 0) and vocab == {}

    def test_vocabulary_is_shared_across_articles(self, dense_oracle, path):
        th = Thresholds(t_s=3, t_d=1)
        vocab = {}
        first = token_ids(CorpusTokens.of([TokenizedArticle(["b", "zed"], [])]), th, vocab)[0]
        second = token_ids(CorpusTokens.of([TokenizedArticle(["zed", "a", "b"], [])]), th,
                           vocab)[0]
        assert first[0].tolist() == [1, 2, 0] and second[0].tolist() == [2, 3, 1]
        vectors = load_embeddings(path, vocab)
        assert np.all(vectors[0] == 0.0)
        # every row is the oracle's vector, bit for bit, OOV draw included
        assert_same_bits(vectors, oracle_table(float_load_embeddings(path), vocab))
        for tok, ids in ((TokenizedArticle(["b", "zed"], []), first),
                         (TokenizedArticle(["zed", "a", "b"], []), second)):
            want = dense_oracle.build_tensor(tok, th, float_load_embeddings(path)).data
            assert np.array_equal(vectors[ids], want)


class TestCorpusFiles:
    def articles(self):
        return [
            art("One. Two.", art_id="r1", label=Label.REAL, pubs=["u1", "u2"]),
            art("Hoax!", art_id="f1", label=Label.FAKE, pubs=["u3"]),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(self.articles(), path)
        back = load_corpus(path)
        assert back == self.articles()

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "headline": "h", "body": "b", "label": "real"}\n'
                        'not json\n')
        with pytest.raises(CorpusError, match=r"bad.jsonl: line 2: invalid JSON"):
            load_corpus(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "headline": "h", "label": "real"}\n')
        with pytest.raises(CorpusError, match=r"line 1: missing field"):
            load_corpus(path)

    def test_bad_label_names_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a9", "headline": "h", "body": "b", "label": "maybe"}\n')
        with pytest.raises(CorpusError, match=r"record 'a9' \(line 1\)"):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        row = '{"id": "a", "headline": "h", "body": "b", "label": "real"}\n'
        path.write_text(row + row)
        with pytest.raises(CorpusError, match="duplicate id"):
            load_corpus(path)

    def test_publishers_must_be_list(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "headline": "h", "body": "b", "label": "real", '
                        '"publishers": "u1"}\n')
        with pytest.raises(CorpusError, match="publishers must be a list"):
            load_corpus(path)

    @pytest.mark.parametrize("fields, error", [
        ({"id": None}, r"record None \(line 2\): id None is not a string or an integer"),
        ({"id": True}, r"record True \(line 2\): id True is not a string or an integer"),
        ({"id": 1.5}, r"record 1.5 \(line 2\): id 1.5 is not a string or an integer"),
        ({"id": ["a"]}, r"record \['a'\] \(line 2\): id \['a'\] is not a string or"),
        ({"headline": None}, r"record 'b' \(line 2\): headline None is not a string"),
        ({"headline": 7}, r"record 'b' \(line 2\): headline 7 is not a string"),
        ({"body": ["x"]}, r"record 'b' \(line 2\): body \['x'\] is not a string"),
        ({"body": {"text": "x"}}, r"record 'b' \(line 2\): body \{'text': 'x'\} is not a"),
        ({"publishers": ["u", None]}, r"record 'b' \(line 2\): publisher None is not a string "
                                      r"or an integer"),
        ({"publishers": [["a"]]}, r"record 'b' \(line 2\): publisher \['a'\] is not a string"),
        ({"publishers": [True]}, r"record 'b' \(line 2\): publisher True is not a string"),
        ({"id": None, "headline": None, "body": ["x"], "publishers": [None, ["a"], True]},
         r"record None \(line 2\): id None is not"),
    ])
    def test_fields_of_the_wrong_type_name_the_record(self, tmp_path, fields, error):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "headline": "h", "body": "b", "label": "real", "publishers": []}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **fields}) + "\n")
        with pytest.raises(CorpusError, match=r"bad.jsonl: " + error):
            load_corpus(path)

    def test_integer_ids_and_publishers_are_read_as_text(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        path.write_text('{"id": 12, "headline": "h", "body": "b", "label": "real", '
                        '"publishers": [345, "u6", -7]}\n')
        assert load_corpus(path) == [NewsArticle("12", "h", "b", Label.REAL, ["345", "u6", "-7"])]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        path.write_text('\n{"id": "a", "headline": "h", "body": "b", "label": "fake"}\n\n')
        arts = load_corpus(path)
        assert len(arts) == 1 and arts[0].label is Label.FAKE


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embeddings({"cat": np.array([0.25, -1.5]), "dog": np.array([3.0, 0.125])}, path)
        table = load_embeddings(path, {"dog": 1, "cat": 2})
        assert table.shape == (3, 2)
        assert np.array_equal(table[2], [0.25, -1.5])
        assert np.array_equal(table[1], [3.0, 0.125])

    def test_dimension_inferred_from_first_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0 3.0\n")
        assert load_embeddings(path, {}).shape == (1, 3)
        assert load_embeddings(path, {"b": 1}).shape == (2, 3)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(CorpusError, match="line 2: expected 2 components, got 1"):
            load_embeddings(path, {"b": 1})

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 oops\n")
        with pytest.raises(CorpusError, match="non-numeric vector component"):
            load_embeddings(path, {})

    def test_word_only_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("lonely\n")
        with pytest.raises(CorpusError, match="no vector components"):
            load_embeddings(path, {})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(CorpusError, match="empty embeddings file"):
            load_embeddings(path, {"a": 1})

    @pytest.mark.parametrize("word", ["new york", "", "a\xa0b", "tab\tword", "line\nbreak",
                                      "\u2028"])
    def test_writer_rejects_words_the_reader_cannot_read(self, tmp_path, word):
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            write_embeddings({"ok": np.array([1.0]), word: np.array([2.0])}, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_writer_rejects_vectors_the_reader_cannot_read(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError, match="the vector of embedding word 'b' is not finite"):
            write_embeddings({"a": np.array([1.0, 2.0]), "b": np.array([3.0, value])}, path)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_written_file_reads_back(self, tmp_path_factory, data):
        dim = data.draw(st.integers(1, 4))
        word = st.text(min_size=1, max_size=6).filter(
            lambda w: not any(ch.isspace() for ch in w))
        vector = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim,
                          max_size=dim).map(np.array)
        vectors = data.draw(st.dictionaries(word, vector, min_size=1, max_size=6))
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        write_embeddings(vectors, path)
        for words in (list(vectors), list(vectors)[::-1]):
            table = load_embeddings(path, numbered(words))
            assert table.shape == (len(words) + 1, dim)
            for i, w in enumerate(words, 1):
                assert_same_bits(table[i], vectors[w].astype(np.float64))


# embeddings-file pieces the parser must read exactly as float() does
EMBED_WORDS = ("cat", "dog", "emu", "gnu", "yak")
NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6e}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:E}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "0.0", "-0", "nan", "-nan", "NaN", "inf", "-inf", "+inf",
                     "Infinity", "1e400", "-1e400", "1e-400", "4.9e-324", ".5", "5.",
                     "+1.5", "00012", "1E5", "0.30000000000000004"]),
)
SEPARATOR = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])
LINE_END = st.sampled_from(["\n", "\r\n", " \n", "\t\r\n"])


@st.composite
def embedding_files(draw):
    """Text of a well-formed embeddings file: E components per line, words
    drawn from a few (so some repeat), mixed separators, CRLF endings and
    blank lines."""
    dim = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "\t"])) + draw(LINE_END))
        fields = [draw(st.sampled_from(EMBED_WORDS))] + draw(
            st.lists(NUMBER_TEXT, min_size=dim, max_size=dim))
        text = "".join(field + draw(SEPARATOR) for field in fields[:-1]) + fields[-1]
        lines.append(draw(st.sampled_from(["", " "])) + text + draw(LINE_END))
    return "".join(lines)


BAD_LINE_TEXT = st.sampled_from(["", "1.0 oops", "1_0", "1 2 3 4 5 6"])


@st.composite
def maybe_faulty_files(draw):
    """An embeddings_files() text, with one line of a drawn word that does
    not parse put in at a drawn place half the time."""
    lines = draw(embedding_files()).splitlines(keepends=True)
    if draw(st.booleans()):
        bad = draw(st.sampled_from(EMBED_WORDS)) + " " + draw(BAD_LINE_TEXT) + "\n"
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "".join(lines)


VOCABS = st.lists(st.sampled_from(EMBED_WORDS + ("owl",)), unique=True).map(numbered)


def expected(path, vocab):
    """What load_embeddings(path, vocab, 3) must give: the CorpusError text
    of an uncached parse, or else the table built from the float reader
    over the lines load_embeddings reads (the first non-blank one and
    those of vocab's words; the rest are blanked, keeping line numbers),
    with the pinned OOV draw."""
    try:
        corpus._parse_embeddings(path, vocab)
    except CorpusError as exc:
        return str(exc)
    kept, first = [], True
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            kept.append(line if parts and (first or parts[0] in vocab) else "\n")
            first = first and not parts
    read = path.parent / "read_lines.txt"
    read.write_text("".join(kept), encoding="utf-8")
    return oracle_table(float_load_embeddings(read), vocab, 3)


def load_or_error(path, vocab):
    try:
        return load_embeddings(path, vocab, 3)
    except CorpusError as exc:
        return str(exc)


def uncached(path, vocab):
    """load_or_error(path, vocab) of a copy of the file in a directory of
    its own, where no cache file is; an error names `path`."""
    with tempfile.TemporaryDirectory() as cold:
        copy = pathlib.Path(cold) / path.name
        copy.write_bytes(path.read_bytes())
        got = load_or_error(copy, vocab)
    return got.replace(str(copy), str(path)) if isinstance(got, str) else got


def assert_same_table(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bits(got, want)


class TestEmbeddingParser:
    """load_embeddings against the per-component float() reader it
    replaced (tests/conftest.py) and the pinned OOV draw: bit-identical
    tables."""

    def write(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_bytes(text.encode("utf-8"))
        return path

    @settings(max_examples=300, deadline=None)
    @given(text=maybe_faulty_files(), vocab=VOCABS)
    def test_equals_the_float_reader(self, tmp_path_factory, text, vocab):
        path = self.write(tmp_path_factory.mktemp("emb"), text)
        assert_same_table(load_or_error(path, vocab), expected(path, vocab))

    def test_repeated_word_keeps_its_last_line(self, tmp_path):
        path = self.write(tmp_path, "a 1 2\nb 3 4\na 5 6\n")
        assert load_embeddings(path, {"b": 1, "a": 2}).tolist() == [[0, 0], [3, 4], [5, 6]]
        assert load_embeddings(path, {"a": 1})[1].tolist() == [5.0, 6.0]

    def test_more_lines_than_one_parse_chunk(self, tmp_path):
        vectors = {f"w{i}": np.array([i, -0.5 * i]) for i in range(5000)}
        path = tmp_path / "emb.txt"
        write_embeddings(vectors, path)
        vocab = numbered(list(vectors))
        table = load_embeddings(path, vocab)
        assert table.shape == (5001, 2)
        for word in ("w0", "w4095", "w4096", "w4999"):
            assert np.array_equal(table[vocab[word]], vectors[word])

    def test_bad_line_found_past_the_first_chunk(self, tmp_path):
        lines = [f"w{i} 1.0 2.0\n" for i in range(5000)]
        lines[4500] = "w4500 1.0\n"
        path = self.write(tmp_path, "".join(lines))
        with pytest.raises(CorpusError, match="line 4501: expected 2 components, got 1"):
            load_embeddings(path, numbered([f"w{i}" for i in range(5000)]))

    def test_earlier_bad_line_reported_before_a_word_only_line(self, tmp_path):
        path = self.write(tmp_path, "a 1.0 2.0\nb 1.0 oops\nlonely\n")
        with pytest.raises(CorpusError, match="line 2: non-numeric vector component"):
            load_embeddings(path, {"b": 1, "lonely": 2})

    @pytest.mark.parametrize("bad, error", [
        ("b 1.0", "line 2: expected 2 components, got 1"),
        ("c 1.0 oops", "line 2: non-numeric vector component"),
        ("d", "line 2: no vector components"),
    ])
    def test_lines_of_other_words_are_not_checked(self, tmp_path, bad, error):
        # a deliberate difference from the float() reader: a line whose
        # word is not in the vocabulary is skipped unparsed
        path = self.write(tmp_path, f"a 1.0 2.0\n{bad}\ne 3.0 4.0\n")
        with pytest.raises(CorpusError, match=error):
            float_load_embeddings(path)
        with pytest.raises(CorpusError, match=error):
            load_embeddings(path, {"e": 1, bad.split()[0]: 2})
        assert load_embeddings(path, {"e": 1}).tolist() == [[0.0, 0.0], [3.0, 4.0]]

    def test_first_line_is_always_checked(self, tmp_path):
        path = self.write(tmp_path, "a 1.0 oops\nb 1.0 2.0\n")
        with pytest.raises(CorpusError, match="line 1: non-numeric vector component"):
            load_embeddings(path, {"b": 1})
        path = self.write(tmp_path, "a 1.0 2.0 3.0\nb 1.0 2.0\n")
        with pytest.raises(CorpusError, match="line 2: expected 3 components, got 2"):
            load_embeddings(path, {"b": 1})

    @pytest.mark.parametrize("component", ["nan", "-NaN", "inf", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_components_are_refused(self, tmp_path, component):
        # on the first line, which is always checked, and on a looked-up
        # word's line past it; float() reads each as a nan or an infinity
        assert not math.isfinite(float(component))
        for text, lineno, word in ((f"a {component} 2.0\nb 1.0 2.0\n", 1, "a"),
                                   (f"a 1.0 2.0\nb 3.0 4.0\nb 1.0 {component}\n", 3, "b")):
            path = self.write(tmp_path, text)
            error = (f"{path}: line {lineno}: non-finite vector component in the vector of "
                     f"{word!r}")
            with pytest.raises(CorpusError, match=re.escape(error)):
                load_embeddings(path, {"b": 1})
            with pytest.raises(CorpusError, match=re.escape(error)):
                float_load_embeddings(path)
        assert not (tmp_path / CACHE_DIR).exists()

    def test_a_vector_cache_written_before_the_check_is_a_miss(self, tmp_path):
        # a cache of the previous format holding the nan row it once kept
        path = self.write(tmp_path, "a 1.0 2.0\nb nan 4.0\n")
        old = fileio.ContentCache(path, ".vectors", b"fakereal vector cache 4\n")
        old.store({"names": ["b"], "absent": []}, {"matrix": np.array([[np.nan, 4.0]])})
        with pytest.raises(CorpusError, match="line 2: non-finite vector component"):
            load_embeddings(path, {"b": 1})

    def test_underscore_digits_rejected(self, tmp_path):
        # the other deliberate difference: float("1_0") is 10.0, but the C
        # parser takes no digit separators
        path = self.write(tmp_path, "a 1_0 2.0\n")
        assert float_load_embeddings(path)["a"].tolist() == [10.0, 2.0]
        with pytest.raises(CorpusError, match="line 1: non-numeric vector component"):
            load_embeddings(path, {"a": 1})


def recoded(change):
    """A spoil that stores, through the vector cache's codec, the (meta,
    matrix) that change(meta, matrix) makes of the cache's contents: the
    CRC-32 holds, so only VectorCache can refuse it.  A lambda, as the
    other spoils are, so that the test ids number them all in one
    sequence."""
    return lambda data, codec: _recode(codec, change)


def _recode(codec, change, source=None):
    """What `codec` holds after it stores change(meta, matrix) of the
    contents of `source`, a codec, or of its own."""
    meta, matrix = change(*(source or codec).load(lambda meta, arrays: (meta, arrays["matrix"])))
    codec.store(meta, {"matrix": matrix})
    assert codec.load(lambda meta, arrays: True)
    with open(codec.path, "rb") as fh:
        return fh.read()


class TestVectorCache:
    """load_embeddings through the cache beside the file: the same table
    as the oracle, whichever words earlier calls looked up, and any cache
    file but a good one is a miss."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_an_uncached_parse(self, tmp_path_factory, data):
        # over sequences of lookups and rewrites of the file between them:
        # every table and every error is that of a parse with no cache
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        path.write_bytes(data.draw(maybe_faulty_files()).encode("utf-8"))
        for step in data.draw(st.lists(st.one_of(VOCABS, maybe_faulty_files()),
                                       min_size=1, max_size=8)):
            if isinstance(step, str):
                path.write_bytes(step.encode("utf-8"))
                continue
            want = uncached(path, step)
            assert_same_table(load_or_error(path, step), want)
            if not isinstance(want, str):
                # a repeated lookup, or one of fewer words, parses nothing
                for vocab in (step, numbered(list(step)[:0:-1])):
                    want = uncached(path, vocab)
                    with mock.patch.object(corpus, "_parse_embeddings",
                                           side_effect=AssertionError):
                        assert_same_table(load_or_error(path, vocab), want)
        cache_dir = path.parent / CACHE_DIR
        assert not cache_dir.exists() or os.listdir(cache_dir) == ["emb.txt.vectors"]

    @pytest.mark.parametrize("text, lookups", [
        # the first line's word is read like any other, and only when
        # looked up: its later line counts
        ("a 1 2\nb 3 4\na 5 6\n", [["b"], ["a", "b"], ["b"], ["a"], []]),
        # words looked up later whose lines come earlier
        ("x 0 0\na 1 2\nb 3 4\nc 5 6\n", [["c"], ["a"], ["b", "owl"], ["a", "b", "c"]]),
    ])
    def test_lookups_in_any_order(self, tmp_path, text, lookups):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        for words in lookups:
            vocab = numbered(words)
            assert_same_table(load_or_error(path, vocab), expected(path, vocab))

    def test_a_file_rewritten_during_the_parse_is_not_cached(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\n")
        parse = corpus._parse_embeddings

        def rewrite_then_parse(*args):
            path.write_text("a 1 2\nb 7 8\n")
            return parse(*args)

        with mock.patch.object(corpus, "_parse_embeddings", side_effect=rewrite_then_parse):
            assert load_embeddings(path, {"b": 1})[1].tolist() == [7.0, 8.0]
        assert not (tmp_path / CACHE_DIR).exists()
        assert load_embeddings(path, {"b": 1})[1].tolist() == [7.0, 8.0]

    def cache_file(self, path):
        return path.parent / CACHE_DIR / (path.name + ".vectors")

    @pytest.mark.parametrize("spoil", [
        lambda data, codec: data[: len(data) // 2],           # truncated
        lambda data, codec: data[:-3],                        # a partial last vector
        lambda data, codec: b"\x00" * len(data),              # overwritten
        lambda data, codec: data.replace(b"cache 5\n", b"cache 4\n", 1),   # another version
        lambda data, codec: flip_line(data, 1),               # a flipped byte in the digest
        lambda data, codec: flip_line(data, 2),               # and in the stamp
        # the previous version, holding a non-finite vector it did not check
        lambda data, codec: _recode(fileio.ContentCache(
            codec.source, ".vectors", b"fakereal vector cache 4\n"),
            lambda meta, matrix: (meta, np.full_like(matrix, np.nan)), codec),
        # the recoded cases have a valid CRC-32 and reach the checks of
        # VectorCache: a header that lies about the rows
        recoded(lambda meta, matrix: (meta, matrix[:-1])),
        lambda data, codec: b"",
        lambda data, codec: data[:-1] + bytes([data[-1] ^ 0x01]),   # c's 6.0 read as 393216.0
        lambda data, codec: data.replace(b'"owl"', b'"own"', 1),    # another absent word
        recoded(lambda meta, matrix: ({**meta, "names": meta["names"][:-1]}, matrix)),
        recoded(lambda meta, matrix: (meta, matrix[:, :1].ravel())),   # not a matrix
        # a word both held and absent
        recoded(lambda meta, matrix: ({**meta, "absent": meta["absent"] + meta["names"][:1]},
                                      matrix)),
        recoded(lambda meta, matrix: ({**meta, "rows": 3}, matrix)),   # a field it lacks
    ])
    def test_a_spoilt_cache_is_a_miss_and_is_rewritten(self, tmp_path, spoil):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\nc 5 6\n")
        vocab = {"c": 1, "owl": 2, "b": 3}
        want = expected(path, vocab)
        assert_same_table(load_or_error(path, vocab), want)
        cache = self.cache_file(path)
        good = cache.read_bytes()
        spoilt = spoil(good, fileio.ContentCache(path, ".vectors", corpus._CACHE_MAGIC))
        assert spoilt != good
        cache.write_bytes(spoilt)
        assert_same_table(load_or_error(path, vocab), want)
        assert cache.read_bytes() == good
        with mock.patch.object(corpus, "_parse_embeddings", side_effect=AssertionError):
            assert_same_table(load_or_error(path, vocab), want)

    @pytest.mark.parametrize("case", STAMP_CASES)
    def test_the_stamp(self, tmp_path, age, case):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\nc 5 6\n")
        check_stamp_case(case, path, lambda: load_embeddings(path, {"c": 1, "owl": 2}).tolist(),
                         (corpus, "_parse_embeddings"), age, "a 1 2\nb 3 4\nc 5 7\n")

    def test_an_edited_file_overwrites_its_cache(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\n")
        load_embeddings(path, {"b": 1})
        path.write_text("a 1 2\nb 3 5\n")
        assert load_embeddings(path, {"b": 1})[1].tolist() == [3.0, 5.0]
        assert os.listdir(tmp_path / CACHE_DIR) == ["emb.txt.vectors"]

    def test_parse_errors_are_not_cached(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 oops\n")
        for _ in range(2):
            with pytest.raises(CorpusError, match="line 2: non-numeric vector component"):
                load_embeddings(path, {"b": 1})
        assert not (tmp_path / CACHE_DIR).exists()

    @pytest.mark.parametrize("block", ["file in the way", "read-only directory",
                                       "cache path is a directory"])
    def test_an_unwritable_cache_means_no_caching(self, tmp_path, block):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\n")
        if block == "file in the way":
            (tmp_path / CACHE_DIR).write_text("")
        elif block == "cache path is a directory":
            self.cache_file(path).mkdir(parents=True)
        want = expected(path, {"b": 1})
        if block == "read-only directory":
            # what a directory without write permission does to the
            # temporary file; root would be allowed to write anyway
            refuse = mock.patch.object(fileio, "atomic_write", side_effect=PermissionError)
        else:
            refuse = mock.patch.object(fileio, "atomic_write", wraps=fileio.atomic_write)
        with refuse:
            for _ in range(2):
                assert_same_table(load_or_error(path, {"b": 1}), want)
        assert not self.cache_file(path).is_file()


class TestTokenIds:
    """token_ids over CorpusTokens against the per-article loop of
    tests/conftest.py: the same ids and the same vocabulary order."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_article_loop(self, data):
        word = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
        sentence = st.lists(word, max_size=7)
        toks = data.draw(st.lists(st.builds(TokenizedArticle, sentence,
                                            st.lists(sentence, max_size=6)), max_size=6))
        th = Thresholds(t_s=data.draw(st.integers(1, 6)), t_d=data.draw(st.integers(1, 5)))
        seed = data.draw(st.dictionaries(word, st.integers(1, 3), max_size=2))
        vocab = {w: i + 1 for i, w in enumerate(seed)}
        want_vocab = dict(vocab)
        want = np.zeros((len(toks), th.t_d + 1, th.t_s), dtype=np.int32)
        for i, tok in enumerate(toks):
            want[i] = article_token_ids(tok, th, want_vocab)
        got = token_ids(CorpusTokens.of(toks), th, vocab)
        assert got.dtype == np.int32 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert list(vocab.items()) == list(want_vocab.items())

    def test_no_articles(self):
        vocab = {"a": 1}
        assert token_ids(CorpusTokens.of([]), Thresholds(t_s=3, t_d=2), vocab).shape == (0, 3, 3)
        assert vocab == {"a": 1}


# article text with words that repeat across articles, and what _WORD
# splits, drops or lowercases: sentence breaks, other punctuation,
# apostrophes inside and outside words, uppercase, digits, and letters
# outside [a-z] (the dotted I lowercases to "i" and a combining dot)
ARTICLE_TEXT = st.text(alphabet="abzAZ09'\u2019 .!?,-\u00e9\u00df\u03bb\u0130", max_size=30)


@st.composite
def corpora(draw, max_size=5):
    """Articles of ARTICLE_TEXT, empty headlines and bodies among them."""
    return [NewsArticle(id=str(i), headline=draw(ARTICLE_TEXT), body=draw(ARTICLE_TEXT),
                        label=Label.FAKE if i % 2 else Label.REAL)
            for i in range(draw(st.integers(0, max_size)))]


def assert_same_tokens(got, want):
    assert got.words == want.words
    for name in ("index", "row_lengths", "article_rows"):
        assert_same_bits(getattr(got, name), getattr(want, name))


def load_without_split(path):
    with mock.patch.object(corpus, "split_article", side_effect=AssertionError):
        return load_tokenized(path)


def recoded_tokens(change):
    """A spoil that stores, through the token cache's codec, what
    change(words, arrays) makes of the cache's contents (words a
    bytearray, arrays writable copies): the CRC-32 holds, so only the
    CorpusTokens checks can refuse it."""
    return lambda data, other, codec: _recode_tokens(codec, change)


def _recode_tokens(codec, change):
    arrays = codec.load(lambda meta, arrays: {k: a.copy() for k, a in arrays.items()})
    words = bytearray(arrays.pop("words"))
    change(words, arrays)
    codec.store({}, {"words": np.frombuffer(words, np.uint8), **arrays})
    assert codec.load(lambda meta, arrays: True)
    with open(codec.path, "rb") as fh:
        return fh.read()


def _move_length(arrays, key, to, by):
    """arrays[key][to] -= by, and the element after it += by: the sum holds."""
    arrays[key][to] -= by
    arrays[key][to + 1] += by


class TestTokenCache:
    """load_tokenized through the cache beside the corpus file: a hit
    gives the tokens split_article yields, and anything else is a miss
    that tokenizes and rewrites it."""

    ARTICLES = [art("The cat sat. The dog ran!", headline="Big news", art_id="a1"),
                art("Cat? Dog.", headline="", art_id="a2"),
                art("", headline="Owl", art_id="a3")]

    def cache_file(self, path):
        return path.parent / CACHE_DIR / (path.name + ".tokens")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_split_article_and_the_list_token_ids(self, tmp_path_factory, data):
        # train and test files tokenized cold and then warm: the ids, the
        # vocabulary and the thresholds are those of split_article and the
        # token_ids over its lists, under crops below and above the
        # longest row and body, with a vocabulary carried from the train
        # call into the test call that may already hold words
        root = tmp_path_factory.mktemp("tokens")
        splits = [data.draw(corpora()) for _ in range(2)]
        paths = [root / "train.jsonl", root / "test.jsonl"]
        for arts, path in zip(splits, paths):
            write_corpus(arts, path)
        toks = [[split_article(a) for a in arts] for arts in splits]
        rows = [[t.headline_tokens] + t.body_sentences for t in toks[0] + toks[1]]
        longest_row = max((len(row) for article in rows for row in article), default=0)
        th = Thresholds(t_s=data.draw(st.integers(1, longest_row + 2)),
                        t_d=data.draw(st.integers(1, max(map(len, rows), default=0) + 1)))
        seed = data.draw(st.lists(st.sampled_from(["a", "z", "09", "b'a", "owl"]), unique=True,
                                  max_size=3))
        for load in (load_tokenized, load_without_split):
            vocab, want_vocab = numbered(seed), numbered(seed)
            for arts, path, want in zip(splits, paths, toks):
                articles, tokens = load(path)
                assert articles == arts
                assert_same_bits(token_ids(tokens, th, vocab),
                                 split_token_ids(want, th, want_vocab))
                assert list(vocab.items()) == list(want_vocab.items())
                if want:
                    counts = np.array([len(t.body_sentences) for t in want], dtype=np.float64)
                    assert compute_thresholds(tokens, 7) == Thresholds(
                        t_s=7, t_d=max(1, math.ceil(counts.mean() + counts.std())))
        assert sorted(os.listdir(root / CACHE_DIR)) == ["test.jsonl.tokens",
                                                        "train.jsonl.tokens"]

    def test_keyed_by_the_sha256_of_the_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(self.ARTICLES, path)
        load_tokenized(path)
        head = self.cache_file(path).read_bytes().split(b"\n", 2)[:2]
        assert head == [b"fakereal tokens cache 2",
                        hashlib.sha256(path.read_bytes()).hexdigest().encode()]

    def test_the_layout(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(self.ARTICLES, path)
        _, tokens = load_tokenized(path)
        assert tokens.words == ["big", "news", "the", "cat", "sat", "dog", "ran", "owl"]
        assert tokens.index.tolist() == [0, 1, 2, 3, 4, 2, 5, 6, 3, 5, 7]
        assert tokens.row_lengths.tolist() == [2, 3, 3, 0, 1, 1, 1]
        assert tokens.article_rows.tolist() == [3, 3, 1]
        assert_same_tokens(load_without_split(path)[1], tokens)

    def test_an_empty_corpus_is_cached(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n \n")
        assert load_tokenized(path)[0] == []
        articles, tokens = load_without_split(path)
        assert articles == [] and tokens.words == [] and len(tokens.article_rows) == 0

    OTHER = [art("The cat sat.", headline="Big news", art_id="a1")]

    @pytest.mark.parametrize("spoil", [
        lambda data, other, codec: data[: len(data) // 2],     # truncated
        lambda data, other, codec: data[:-3],                  # a partial last count
        lambda data, other, codec: b"\x00" * len(data),        # overwritten
        lambda data, other, codec: b"",
        lambda data, other, codec: data[:-1] + bytes([data[-1] ^ 0x01]),   # a flipped byte
        # another version
        lambda data, other, codec: data.replace(b"cache 2\n", b"cache 1\n", 1),
        lambda data, other, codec: flip_line(data, 1),         # a flipped byte in the digest
        lambda data, other, codec: flip_line(data, 2),         # and in the stamp
        lambda data, other, codec: other,                      # the cache of an edited corpus
        # the recoded cases have a valid CRC-32 and reach the CorpusTokens
        # checks: row lengths that do not sum to the token count
        recoded_tokens(lambda words, arrays: arrays["row_lengths"].__setitem__(0, 1)),
        # article row counts that do not sum to the row count
        recoded_tokens(lambda words, arrays: arrays["article_rows"].__setitem__(-1, 2)),
        # a word index past the last word, and a negative one
        recoded_tokens(lambda words, arrays: arrays["index"].__setitem__(-1, 8)),
        recoded_tokens(lambda words, arrays: arrays["index"].__setitem__(0, -1)),
        # a word listed twice: "sat" renamed "cat"
        recoded_tokens(lambda words, arrays: words.__setitem__(
            slice(words.index(b"sat"), words.index(b"sat") + 3), b"cat")),
        # a negative length, and an article of no rows, the sums holding
        recoded_tokens(lambda words, arrays: _move_length(arrays, "row_lengths", 3, 1)),
        recoded_tokens(lambda words, arrays: _move_length(arrays, "article_rows", 0, 3)),
        # the tokens of fewer articles than the file holds
        recoded_tokens(lambda words, arrays: arrays.update(
            index=arrays["index"][:-1], row_lengths=arrays["row_lengths"][:-1],
            article_rows=arrays["article_rows"][:-1])),
        # bytes after the last word's newline
        recoded_tokens(lambda words, arrays: words.extend(b"q")),
        # an array of another type or shape
        recoded_tokens(lambda words, arrays: arrays.update(index=arrays["index"].astype(float))),
        recoded_tokens(lambda words, arrays: arrays.update(
            row_lengths=arrays["row_lengths"][None])),
        recoded_tokens(lambda words, arrays: arrays.pop("index")),   # a part missing
    ])
    def test_a_spoilt_cache_is_a_miss_and_is_rewritten(self, tmp_path, spoil):
        other = tmp_path / "other" / "c.jsonl"
        other.parent.mkdir()
        write_corpus(self.OTHER, other)
        load_tokenized(other)
        path = tmp_path / "c.jsonl"
        write_corpus(self.ARTICLES, path)
        want = CorpusTokens.of(map(split_article, self.ARTICLES))
        assert_same_tokens(load_tokenized(path)[1], want)
        cache = self.cache_file(path)
        good = cache.read_bytes()
        codec = fileio.ContentCache(path, ".tokens", corpus._TOKENS_MAGIC)
        spoilt = spoil(good, self.cache_file(other).read_bytes(), codec)
        assert spoilt != good
        cache.write_bytes(spoilt)
        articles, tokens = load_tokenized(path)
        assert articles == self.ARTICLES
        assert_same_tokens(tokens, want)
        assert cache.read_bytes() == good
        assert_same_tokens(load_without_split(path)[1], want)

    @pytest.mark.parametrize("case", STAMP_CASES)
    def test_the_stamp(self, tmp_path, age, case):
        path = tmp_path / "c.jsonl"
        write_corpus(self.ARTICLES, path)

        def load():
            articles, tokens = load_tokenized(path)
            return articles, tokens.words, [getattr(tokens, name).tolist() for name in
                                            ("index", "row_lengths", "article_rows")]

        text = path.read_text().replace("The cat sat", "The cow sat")
        check_stamp_case(case, path, load, (corpus, "split_article"), age, text)

    def test_a_trusted_stamp_that_breaks_during_the_read_is_read_again(self, tmp_path, age):
        # the articles and tokens are those of the bytes hashed on the second
        # read, and the cache is keyed by them
        path = tmp_path / "c.jsonl"
        write_corpus(self.ARTICLES, path)
        age()
        load_tokenized(path)
        read, reads = corpus._read_articles, []

        def rewrite_then_read(name, fh):
            if not reads:
                write_corpus(self.OTHER, path)
            reads.append(name)
            return read(name, fh)

        with mock.patch.object(corpus, "_read_articles", side_effect=rewrite_then_read):
            articles, tokens = load_tokenized(path)
        assert len(reads) == 2   # the plain read, then the hashed one
        want = CorpusTokens.of(map(split_article, self.OTHER))
        assert articles == self.OTHER
        assert_same_tokens(tokens, want)
        assert_same_tokens(load_without_split(path)[1], want)

    def test_a_file_rewritten_during_the_parse_keys_its_cache_by_the_bytes_read(self, tmp_path):
        # the articles and their tokens are those of the bytes read, and
        # the cache stored is keyed by their digest: the new content misses
        path = tmp_path / "c.jsonl"
        write_corpus(self.ARTICLES, path)
        split = corpus.split_article

        def rewrite_then_split(article):
            write_corpus(self.OTHER, path)
            return split(article)

        with mock.patch.object(corpus, "split_article", side_effect=rewrite_then_split):
            articles, tokens = load_tokenized(path)
        assert articles == self.ARTICLES
        assert_same_tokens(tokens, CorpusTokens.of(map(split_article, self.ARTICLES)))
        want = CorpusTokens.of(map(split_article, self.OTHER))
        with mock.patch.object(corpus, "split_article", wraps=split) as counted:
            articles, tokens = load_tokenized(path)
        assert counted.call_count == len(self.OTHER)
        assert articles == self.OTHER
        assert_same_tokens(tokens, want)
        assert_same_tokens(load_without_split(path)[1], want)

    def test_a_corpus_error_is_not_cached(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"}\n')
        for _ in range(2):
            with pytest.raises(CorpusError, match="line 1: missing field"):
                load_tokenized(path)
        assert not (tmp_path / CACHE_DIR).exists()


class TestVocabVectors:
    def test_gathers_stored_rows_and_draws_the_rest(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embeddings({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, path)
        vocab = {"b": 1, "zed": 2, "a": 3}
        vectors = load_embeddings(path, vocab, oov_seed=5)
        assert vectors.shape == (4, 2)
        assert vectors[0].tolist() == [0.0, 0.0]
        assert vectors[1].tolist() == [3.0, 4.0] and vectors[3].tolist() == [1.0, 2.0]
        assert np.array_equal(vectors[2], oracle_vector(float_load_embeddings(path), "zed", 5))


def test_dataset_presets_pin_published_sizes():
    assert DATASET_PRESETS == {"politifact": {"t_s": 46, "t_d": 280},
                               "gossipcop": {"t_s": 46, "t_d": 85}}
