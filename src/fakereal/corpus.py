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
once per occurrence.
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


class EmbeddingTable:
    """Word -> vector map with stable out-of-vocabulary handling.

    Stored vectors are the rows of one (n, E) float64 matrix, and
    ``rows[word]`` is the row of a word.  OOV words get a vector drawn
    uniformly from OOV_RANGE, seeded by (oov_seed, word) so the same
    word always maps to the same vector, in this process or any other.
    """

    def __init__(self, rows, matrix, oov_seed=0):
        self.rows = rows
        self.matrix = matrix
        self.dimension = matrix.shape[1]
        self.oov_seed = int(oov_seed)

    def __contains__(self, word):
        return word in self.rows

    def __len__(self):
        return len(self.rows)

    def lookup(self, word):
        row = self.rows.get(word)
        if row is not None:
            return self.matrix[row]
        digest = blake2b(word.encode("utf-8"), digest_size=8).digest()
        word_key = int.from_bytes(digest, "big")
        seq = np.random.SeedSequence([self.oov_seed & 0xFFFFFFFFFFFFFFFF, word_key])
        rng = np.random.default_rng(seq)
        return rng.uniform(*OOV_RANGE, self.dimension)


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


def vocab_vectors(vocab: dict, table: EmbeddingTable) -> np.ndarray:
    """(len(vocab)+1, E) vector table for the ids `vocab` assigned: row 0
    is zeros (padding), row i is table.lookup() of the word with id i,
    stable-random vectors for OOV words included.  Stored vectors are
    gathered from the table's matrix in one step."""
    words = list(vocab)
    ids = np.fromiter(vocab.values(), dtype=np.int64, count=len(words))
    rows = np.fromiter(map(table.rows.get, words, repeat(-1)), dtype=np.int64, count=len(words))
    stored = rows >= 0
    vectors = np.zeros((len(words) + 1, table.dimension))
    vectors[ids[stored]] = table.matrix[rows[stored]]
    for j in np.flatnonzero(~stored):
        vectors[ids[j]] = table.lookup(words[j])
    return vectors


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


# kept embedding lines handed to one np.loadtxt call; bounds the text
# held at once
_PARSE_CHUNK = 4096


def load_embeddings(path, oov_seed=0, words=None) -> EmbeddingTable:
    """Read whitespace-separated text embeddings (``word v1 ... vE``).

    The first non-blank line sets E.  With `words` (a set of words, or a
    dict such as a vocabulary), only the lines of those words are parsed
    and checked, plus that first line; every other line is skipped
    unparsed, whatever it holds.  A word listed twice keeps its last
    line.  Components are parsed in C by np.loadtxt, a chunk of lines per
    call, which gives the same float64 as float() but rejects what
    float() alone accepts, such as ``1_0``.

    With `words`, the parsed vectors are also kept in a cache file beside
    the embeddings file (see VectorCache), so a later call that asks for
    words an earlier call parsed from the same file content skips the
    parse; the table is the same, row order and bits.
    """
    if words is None:
        rows, matrix = _parse_embeddings(path, None)[:2]
    else:
        rows, matrix = _cached_vectors(path, words)
    return EmbeddingTable(rows, matrix, oov_seed=oov_seed)


def _parse_embeddings(path, words):
    """Parse the lines load_embeddings keeps; returns (rows, matrix,
    lines, first).  rows maps word -> row of the (len(rows), E) matrix,
    in the order of each word's first kept line; lines[i] is the number
    of that line for row i; first is the vector on the file's first
    non-blank line, which a later line of the same word may overwrite in
    the matrix.  The vectors go straight into one matrix with a row for
    each word that can be kept: len(words) + 1, or one per line."""
    capacity = _line_count(path) if words is None else len(words) + 1
    rows, lines, first = {}, [], None
    pending, matrix = [], None    # pending: (word, lineno, text) not yet parsed
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split(None, 1)
            if not parts or (words is not None and matrix is not None and parts[0] not in words):
                continue
            if len(parts) == 1:
                if pending:   # an earlier bad line raises first
                    _parse_components(path, pending, matrix.shape[1])
                raise CorpusError(f"{path}: line {lineno}: no vector components")
            pending.append((parts[0], lineno, parts[1]))
            if matrix is None or len(pending) == _PARSE_CHUNK:
                matrix = _store_rows(path, pending, rows, lines, matrix, capacity)
                if first is None:
                    first = matrix[0].copy()
                pending = []
    if matrix is None:
        raise CorpusError(f"{path}: empty embeddings file")
    if pending:
        matrix = _store_rows(path, pending, rows, lines, matrix, capacity)
    return rows, matrix[: len(rows)], lines, first


def _line_count(path):
    """An upper bound on the lines of a text file, whatever its line ends."""
    count = 1
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += chunk.count(b"\n") + chunk.count(b"\r")
    return count


def _store_rows(path, pending, rows, lines, matrix, capacity):
    """Parse `pending`, (word, lineno, text) triples, and write each
    vector to its word's row of `matrix`, which the first call allocates
    with `capacity` rows; a word seen again overwrites its row.  A new
    word's line number is appended to `lines`."""
    block = _parse_components(path, pending, None if matrix is None else matrix.shape[1])
    if matrix is None:
        matrix = np.empty((capacity, block.shape[1]))
    for (word, lineno, _), vec in zip(pending, block):
        row = rows.setdefault(word, len(rows))
        if row == len(lines):
            lines.append(lineno)
        matrix[row] = vec
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
# meta names, lines and absent, and its one array the matrix.
_CACHE_MAGIC = b"fakereal vector cache 3\n"


@dataclass
class VectorCache:
    """The vectors parsed so far from one embeddings file content.

    Row 0 of `matrix` is the vector on the file's first non-blank line,
    whose word is names[0] and line lines[0].  Rows 1.. are the words
    looked up so far, each with the vector load_embeddings keeps for it
    (its last line) and its first line number, in line order.  `absent`
    lists looked-up words the file lacks.  Parts that do not fit together,
    as a damaged cache file may hold, raise ValueError.
    """

    names: list
    lines: list
    matrix: np.ndarray
    absent: list

    def __post_init__(self):
        if not self.names or len(self.lines) != len(self.names) or (
                self.matrix.ndim != 2 or len(self.matrix) != len(self.names)):
            raise ValueError("corrupt vector cache")
        self.index = dict(zip(self.names[1:], range(1, len(self.names))))
        self.index.update(dict.fromkeys(self.absent, -1))

    def select(self, words):
        """(rows, matrix) of load_embeddings(words=words), or None when a
        word in `words` has not been looked up yet."""
        pos = np.fromiter(map(self.index.get, words, repeat(-2)), dtype=np.int64,
                          count=len(words))
        if (pos == -2).any():
            return None
        # rows 1.. are in line order, and the first line's word comes first
        keep = np.sort(pos[pos > 0])
        if self.names[0] not in words:
            keep = np.concatenate(([0], keep))
        names = [self.names[i] for i in keep.tolist()]
        return dict(zip(names, range(len(names)))), self.matrix[keep]

    @staticmethod
    def build(parsed, looked_up, old=None):
        """The cache `old` (None for an empty one) plus `parsed`, what
        _parse_embeddings(path, looked_up) returned for the same content."""
        rows, matrix, lines, first = parsed
        names = [w for w in rows if w in looked_up]
        at = [lines[rows[w]] for w in names]
        vectors = matrix[[rows[w] for w in names]]
        absent = [w for w in looked_up if w not in rows]
        if old is not None:
            names, at, absent = old.names[1:] + names, old.lines[1:] + at, old.absent + absent
            vectors = np.concatenate([old.matrix[1:], vectors])
        order = np.argsort(at, kind="stable").tolist()
        return VectorCache([next(iter(rows))] + [names[i] for i in order],
                           [lines[0]] + [at[i] for i in order],
                           np.concatenate([first[None], vectors[order]]), absent)


def _cached_vectors(path, words):
    """(rows, matrix) of load_embeddings(path, words=words), read from the
    cache when an earlier call parsed every word in `words` from the same
    file content; otherwise the missing words are parsed and the cache is
    rewritten."""
    cache = ContentCache(path, ".vectors", _CACHE_MAGIC)
    cached = cache.load(lambda meta, arrays: VectorCache(**meta, matrix=arrays["matrix"]))
    missing = words
    if cached is not None:
        hit = cached.select(words)
        if hit is not None:
            return hit
        missing = dict.fromkeys(w for w in words if w not in cached.index)
    parsed = _parse_embeddings(path, missing)
    if not cache.unchanged():   # rewritten during the parse: cache nothing
        return _parse_embeddings(path, words)[:2]
    cached = VectorCache.build(parsed, missing, cached)
    cache.store({"names": cached.names, "lines": cached.lines, "absent": cached.absent},
                {"matrix": cached.matrix})
    return cached.select(words)


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
