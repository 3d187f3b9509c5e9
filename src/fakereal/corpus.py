"""News corpus loading, tokenization, and token-id input construction.

File formats:
  * corpus: JSON Lines, one object per line with fields ``id``, the
    strings ``headline`` and ``body``, ``label`` ("real" or "fake") and
    ``publishers`` (list of user ids, possibly empty); an id is a string,
    or an integer read as its decimal text.
  * embeddings: plain text, one line per word: ``word v1 v2 ... vE``
    (the layout published GloVe vectors use).

An article becomes a fixed-shape (t_d+1, t_s) matrix of token ids: row 0
is the headline, rows 1..t_d are body sentences, each row holds up to t_s
words.  Longer texts are cropped, shorter ones padded with id 0.  Padding
is that id alone: no word gets id 0, and there is no ``<pad>`` token (the
tokenizer's words are runs of ``[a-z0-9']``).  A prepared dataset keeps
one vector table whose row i is the embedding of the word with id i (row
0, padding, is all zeros), so each word vector is stored once rather than
once per occurrence.  load_embeddings reads that table straight from the
embeddings file for the vocabulary token_ids assigned.
"""

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from hashlib import blake2b
from itertools import chain, repeat

import numpy as np

from .fileio import ContentCache

# Sentence-size thresholds of the two FakeNewsNet benchmarks.  The corpora
# are not shipped, so their thresholds are provided as presets rather than
# recomputed from data.
DATASET_PRESETS = {
    "politifact": {"t_s": 46, "t_d": 280},
    "gossipcop": {"t_s": 46, "t_d": 85},
}

OOV_RANGE = (-0.01, 0.01)


class Label(Enum):
    REAL = 0
    FAKE = 1


class CorpusError(ValueError):
    """A corpus or embeddings file could not be parsed."""


@dataclass
class NewsArticle:
    id: str
    headline: str
    body: str
    label: Label
    publisher_ids: list = field(default_factory=list)


@dataclass
class TokenizedArticle:
    headline_tokens: list
    body_sentences: list


@dataclass(frozen=True)
class Thresholds:
    t_s: int
    t_d: int

    def __post_init__(self):
        if self.t_s < 1 or self.t_d < 1:
            raise ValueError(f"thresholds must be >= 1, got t_s={self.t_s} t_d={self.t_d}")


_SENTENCE_BREAK = re.compile(r"[.!?]+")
_WORD = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")


def _tokenize(text):
    return _WORD.findall(text.lower())


def split_article(article: NewsArticle) -> TokenizedArticle:
    """Lowercase and segment an article into headline tokens and body
    sentences.  Sentences end at runs of ``.!?``; punctuation-only tokens
    are dropped.  No cropping happens here."""
    sentences = []
    for chunk in _SENTENCE_BREAK.split(article.body):
        words = _tokenize(chunk)
        if words:
            sentences.append(words)
    return TokenizedArticle(_tokenize(article.headline), sentences)


def compute_thresholds(train_bodies, t_s: int) -> Thresholds:
    """Size thresholds for the input tensor: the given t_s, and t_d =
    ceil(mean + population std) of body sentence counts over the training
    split, which drops outlier sizes and keeps the tensors dense."""
    if not train_bodies:
        raise ValueError("empty corpus")
    counts = np.array([len(t.body_sentences) for t in train_bodies], dtype=np.float64)
    t_d = math.ceil(counts.mean() + counts.std())
    return Thresholds(t_s=t_s, t_d=max(t_d, 1))


def token_ids(toks, th: Thresholds, vocab: dict) -> np.ndarray:
    """Fixed-shape (n, t_d+1, t_s) int32 id array for the articles `toks`.

    Row 0 of an article is its headline, rows 1..t_d its first t_d body
    sentences; each row holds the ids of its first t_s words.  Slots past
    the available words or sentences stay 0, the padding id.  `vocab`
    maps word -> id and is extended in place: words not in it yet get the
    next ids (len(vocab) + 1, ...) in order of first occurrence, article
    by article, each article's rows top to bottom and left to right.
    """
    lengths = np.zeros((len(toks), th.t_d + 1), dtype=np.int64)
    words = []
    for i, tok in enumerate(toks):
        rows = [row[: th.t_s] for row in [tok.headline_tokens] + tok.body_sentences[: th.t_d]]
        lengths[i, : len(rows)] = [len(row) for row in rows]
        words.extend(chain.from_iterable(rows))
    new = [word for word in dict.fromkeys(words) if word not in vocab]
    vocab.update(zip(new, range(len(vocab) + 1, len(vocab) + 1 + len(new))))
    ids = np.zeros((len(toks), th.t_d + 1, th.t_s), dtype=np.int32)
    # the filled slots of each row are its first `length` ones, and a
    # boolean mask visits them in the order `words` lists them
    ids[np.arange(th.t_s) < lengths[..., None]] = np.fromiter(
        map(vocab.__getitem__, words), dtype=np.int32, count=len(words))
    return ids


def load_corpus(path) -> list:
    """Read a JSON Lines corpus file.  Raises CorpusError naming the file
    and offending record on any malformed line, a field of another JSON
    type included."""
    articles = []
    seen_ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc})") from None
            try:
                art_id = obj["id"]
                headline = obj["headline"]
                body = obj["body"]
                label_text = obj["label"]
            except (KeyError, TypeError) as exc:
                raise CorpusError(f"{path}: line {lineno}: missing field {exc}") from None
            where = f"{path}: record {art_id!r} (line {lineno})"
            if label_text not in ("real", "fake"):
                raise CorpusError(f"{where}: label must be 'real' or 'fake', got {label_text!r}")
            publishers = obj.get("publishers", [])
            if not isinstance(publishers, list):
                raise CorpusError(f"{where}: publishers must be a list")
            # JSON gives exact types, so an int here is never a bool
            for name, value in [("id", art_id)] + [("publisher", p) for p in publishers]:
                if type(value) not in (str, int):
                    raise CorpusError(f"{where}: {name} {value!r:.40} is not a string or an "
                                      f"integer")
            for name, value in (("headline", headline), ("body", body)):
                if type(value) is not str:
                    raise CorpusError(f"{where}: {name} {value!r:.40} is not a string")
            art_id = str(art_id)
            if art_id in seen_ids:
                raise CorpusError(f"{where}: duplicate id")
            seen_ids.add(art_id)
            articles.append(
                NewsArticle(
                    id=art_id,
                    headline=headline,
                    body=body,
                    label=Label.FAKE if label_text == "fake" else Label.REAL,
                    publisher_ids=[str(p) for p in publishers],
                )
            )
    return articles


def write_corpus(articles, path):
    """Inverse of load_corpus."""
    with open(path, "w", encoding="utf-8") as fh:
        for art in articles:
            fh.write(
                json.dumps(
                    {
                        "id": art.id,
                        "headline": art.headline,
                        "body": art.body,
                        "label": "fake" if art.label is Label.FAKE else "real",
                        "publishers": list(art.publisher_ids),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_embeddings(path, vocab, oov_seed=0) -> np.ndarray:
    """The (len(vocab)+1, E) float64 vector table of the ids `vocab`
    assigns (word -> id, the ids 1..len(vocab)), read from whitespace-
    separated text embeddings (``word v1 ... vE``).  Row 0 is zeros, the
    padding; row vocab[w] is the vector on w's last line in the file.  A
    word the file lacks gets a vector drawn uniformly from OOV_RANGE,
    seeded by (oov_seed, word), so the same word always maps to the same
    vector, in this process or any other.

    The first non-blank line sets E and is always parsed and checked;
    besides it, only the lines of vocab's words are parsed and checked,
    and every other line is skipped unparsed, whatever it holds.
    Components are parsed in C by np.loadtxt, a chunk of lines per call,
    which gives the same float64 as float() but rejects what float()
    alone accepts, such as ``1_0``.

    The parsed vectors are also kept in a cache file beside the
    embeddings file (see VectorCache), so a later call whose words an
    earlier call looked up in the same file content skips the parse; the
    table is the same, bit for bit.
    """
    matrix, pos = _cached_vectors(path, vocab)
    ids = np.fromiter(vocab.values(), dtype=np.int64, count=len(vocab))
    found = pos >= 0
    vectors = np.zeros((len(vocab) + 1, matrix.shape[1]))
    vectors[ids[found]] = matrix[pos[found]]
    words = list(vocab)
    for j in np.flatnonzero(~found):
        vectors[ids[j]] = _oov_vector(words[j], oov_seed, matrix.shape[1])
    return vectors


def _oov_vector(word, seed, dim):
    """The vector of a word the embeddings file lacks: `dim` draws from
    OOV_RANGE, seeded by (seed, a blake2b digest of the word)."""
    digest = blake2b(word.encode("utf-8"), digest_size=8).digest()
    word_key = int.from_bytes(digest, "big")
    seq = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, word_key])
    rng = np.random.default_rng(seq)
    return rng.uniform(*OOV_RANGE, dim)


# kept embedding lines handed to one np.loadtxt call; bounds the text
# held at once
_PARSE_CHUNK = 4096


def _parse_embeddings(path, words):
    """Parse the lines load_embeddings keeps for `words`, a set or dict;
    returns (rows, matrix).  rows maps each word of `words` the file has
    to its row of the (len(rows), E) matrix, which holds the vector on
    the word's last line.  The file's first non-blank line is parsed and
    checked whatever its word.  The vectors go straight into one matrix
    with a row for each word of `words`."""
    rows, pending, matrix = {}, [], None    # pending: (word, lineno, text) not yet parsed
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split(None, 1)
            if not parts or (matrix is not None and parts[0] not in words):
                continue
            if len(parts) == 1:
                if pending:   # an earlier bad line raises first
                    _parse_components(path, pending, matrix.shape[1])
                raise CorpusError(f"{path}: line {lineno}: no vector components")
            pending.append((parts[0], lineno, parts[1]))
            if matrix is None or len(pending) == _PARSE_CHUNK:
                matrix = _store_rows(path, pending, words, rows, matrix)
                pending = []
    if matrix is None:
        raise CorpusError(f"{path}: empty embeddings file")
    if pending:
        matrix = _store_rows(path, pending, words, rows, matrix)
    return rows, matrix[: len(rows)]


def _store_rows(path, pending, words, rows, matrix):
    """Parse `pending`, (word, lineno, text) triples, and write the vector
    of each word of `words` to its row of `matrix`, which the first call
    allocates with len(words) rows; a word seen again overwrites its
    row."""
    block = _parse_components(path, pending, None if matrix is None else matrix.shape[1])
    if matrix is None:
        matrix = np.empty((len(words), block.shape[1]))
    for (word, _, _), vec in zip(pending, block):
        if word in words:   # false only for the file's first line
            matrix[rows.setdefault(word, len(rows))] = vec
    return matrix


def _parse_components(path, lines, dim):
    """(len(lines), E) float64 rows from the component text of (word,
    lineno, text) triples; `dim` is E, or None when lines[0] sets it.
    Raises the CorpusError of the first bad line."""
    try:
        block = np.loadtxt([text for _, _, text in lines], dtype=np.float64, comments=None,
                           ndmin=2)
    except ValueError:
        block = None
    if block is not None and block.shape[0] == len(lines) and dim in (None, block.shape[1]):
        return block
    # find the first bad line, checked as the per-component float() loop did
    for _, lineno, text in lines:
        values = text.split()
        try:
            for v in values:
                float(v)
            np.loadtxt([text], dtype=np.float64, comments=None)
        except ValueError:
            raise CorpusError(f"{path}: line {lineno}: non-numeric vector component") from None
        dim = dim or len(values)
        if len(values) != dim:
            raise CorpusError(f"{path}: line {lineno}: expected {dim} components, "
                              f"got {len(values)}")
    raise CorpusError(f"{path}: lines {lines[0][1]}-{lines[-1][1]}: unparseable vector components")


# The vector cache: one fileio.ContentCache file per embeddings file, its
# meta names and absent, and its one array the matrix.
_CACHE_MAGIC = b"fakereal vector cache 4\n"


@dataclass
class VectorCache:
    """The vectors looked up so far in one embeddings file content.

    Row i of `matrix` is the vector load_embeddings keeps for names[i],
    the one on that word's last line; the matrix has the file's E columns
    even with no rows.  `absent` lists looked-up words the file lacks.
    Parts that do not fit together, as a damaged cache file may hold,
    raise ValueError.
    """

    names: list
    matrix: np.ndarray
    absent: list

    def __post_init__(self):
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.names):
            raise ValueError("corrupt vector cache")
        self.index = dict(zip(self.names, range(len(self.names))))
        self.index.update(dict.fromkeys(self.absent, -1))
        if len(self.index) != len(self.names) + len(self.absent):
            raise ValueError("corrupt vector cache")   # a word listed twice

    def select(self, words):
        """The matrix row of each word in `words`, -1 for one the file
        lacks, or None when a word has not been looked up yet."""
        pos = np.fromiter(map(self.index.get, words, repeat(-2)), dtype=np.int64,
                          count=len(words))
        return None if (pos == -2).any() else pos

    @staticmethod
    def build(parsed, looked_up, old=None):
        """The cache `old` (None for an empty one) plus `parsed`, what
        _parse_embeddings(path, looked_up) returned for the same content."""
        rows, matrix = parsed
        names, absent = list(rows), [w for w in looked_up if w not in rows]
        if old is not None:
            names, absent = old.names + names, old.absent + absent
            matrix = np.concatenate([old.matrix, matrix])
        return VectorCache(names, matrix, absent)


def _cached_vectors(path, words):
    """(matrix, pos): a matrix holding the vector of each word in `words`
    that the file has, and the row of each word in it, -1 for a word the
    file lacks.  Read from the cache when earlier calls looked up every
    word in `words` in the same file content; otherwise the missing words
    are parsed and the cache is rewritten."""
    cache = ContentCache(path, ".vectors", _CACHE_MAGIC)
    cached = cache.load(lambda meta, arrays: VectorCache(**meta, matrix=arrays["matrix"]))
    missing = words
    if cached is not None:
        pos = cached.select(words)
        if pos is not None:
            return cached.matrix, pos
        missing = dict.fromkeys(w for w in words if w not in cached.index)
    parsed = _parse_embeddings(path, missing)
    if cache.unchanged():
        cached = VectorCache.build(parsed, missing, cached)
        cache.store({"names": cached.names, "absent": cached.absent}, {"matrix": cached.matrix})
    else:   # rewritten during the parse: cache nothing
        cached = VectorCache.build(_parse_embeddings(path, words), words)
    return cached.matrix, cached.select(words)


def write_embeddings(vectors, path):
    """Inverse of load_embeddings.  ``vectors`` maps word -> 1D array.
    Raises ValueError for a word the reader cannot read back: an empty
    one, or one holding a character for which str.isspace() is true."""
    for word in vectors:
        if not word or any(ch.isspace() for ch in word):
            raise ValueError(f"embedding word {word!r} is empty or contains whitespace")
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")
