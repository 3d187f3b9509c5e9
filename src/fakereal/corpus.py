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

split_article is the only tokenizer.  load_tokenized keeps what it yields
for each article of a corpus file as the arrays of a CorpusTokens, in
`__fakereal_cache__/<name>.tokens` beside the file, keyed by the sha256 of
the file and kept only while the file holds those bytes, as every cache
of fileio.ContentCache is; token_ids and compute_thresholds work on those
arrays, so a corpus file is tokenized once per content.
"""

import json
import math
import re
from array import array
from dataclasses import dataclass, field
from enum import Enum
from hashlib import blake2b
from itertools import chain, repeat

import numpy as np

from .fileio import ContentCache, open_text

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


@dataclass
class CorpusTokens:
    """What split_article yields for each article of a corpus, as arrays.

    `words` lists the distinct words in order of first appearance, and
    the int32 `index` holds each token's position in it: article by
    article, each article's rows top to bottom (row 0 the headline, then
    the body sentences), each row left to right.  `row_lengths` holds the
    tokens of each row and `article_rows` the rows of each article.  Parts
    that do not fit together, as a damaged cache file may hold, raise
    ValueError.
    """

    words: list
    index: np.ndarray
    row_lengths: np.ndarray
    article_rows: np.ndarray

    def __post_init__(self):
        parts = (self.index, self.row_lengths, self.article_rows)
        if (any(a.dtype != np.int32 or a.ndim != 1 for a in parts)
                or (self.index.size and (self.index.min() < 0
                                         or self.index.max() >= len(self.words)))
                or (self.row_lengths.size and self.row_lengths.min() < 0)
                or (self.article_rows.size and self.article_rows.min() < 1)
                or self.row_lengths.sum(dtype=np.int64) != len(self.index)
                or self.article_rows.sum(dtype=np.int64) != len(self.row_lengths)
                or len(set(self.words)) != len(self.words)):
            raise ValueError("corrupt corpus tokens")

    @staticmethod
    def of(toks):
        """The arrays of `toks`, an iterable of TokenizedArticle."""
        words, row_lengths, article_rows = [], array("i"), array("i")
        for tok in toks:
            rows = [tok.headline_tokens] + tok.body_sentences
            article_rows.append(len(rows))
            row_lengths.extend(map(len, rows))
            words.extend(chain.from_iterable(rows))
        numbers = dict(zip(dict.fromkeys(words), range(len(words))))
        return CorpusTokens(list(numbers),
                            np.fromiter(map(numbers.__getitem__, words), np.int32, len(words)),
                            np.array(row_lengths, dtype=np.int32),
                            np.array(article_rows, dtype=np.int32))


def compute_thresholds(tokens: CorpusTokens, t_s: int) -> Thresholds:
    """Size thresholds for the input tensor: the given t_s, and t_d =
    ceil(mean + population std) of body sentence counts over the training
    split's CorpusTokens, which drops outlier sizes and keeps the tensors
    dense."""
    if not len(tokens.article_rows):
        raise ValueError("empty corpus")
    counts = (tokens.article_rows - 1).astype(np.float64)
    t_d = math.ceil(counts.mean() + counts.std())
    return Thresholds(t_s=t_s, t_d=max(t_d, 1))


def token_ids(tokens: CorpusTokens, th: Thresholds, vocab: dict) -> np.ndarray:
    """Fixed-shape (n, t_d+1, t_s) int32 id array for the n articles of
    `tokens`.

    Row 0 of an article is its headline, rows 1..t_d its first t_d body
    sentences; each row holds the ids of its first t_s words.  Slots past
    the available words or sentences stay 0, the padding id.  `vocab`
    maps word -> id and is extended in place: words not in it yet get the
    next ids (len(vocab) + 1, ...) in order of first occurrence, article
    by article, each article's rows top to bottom and left to right.
    Python runs once per distinct word kept, not once per token.
    """
    rows, lengths, index = tokens.article_rows, tokens.row_lengths, tokens.index
    n = len(rows)
    # each row's place in its article, and the slots it fills: none past row t_d
    first_row = np.cumsum(rows, dtype=np.int64) - rows
    place = np.arange(len(lengths)) - np.repeat(first_row, rows)
    kept = place <= th.t_d
    fill = np.where(kept, np.minimum(lengths, th.t_s), 0)
    # the tokens of those slots: each row's first `fill` ones
    row_start = np.cumsum(lengths, dtype=np.int64) - lengths
    used = index[np.arange(len(index)) < np.repeat(row_start + fill, lengths)]
    # the words kept, in order of first use
    first_use = np.full(len(tokens.words), len(used))
    np.minimum.at(first_use, used, np.arange(len(used)))
    order = np.flatnonzero(first_use < len(used))
    order = order[np.argsort(first_use[order])].tolist()
    id_of = np.zeros(len(tokens.words), dtype=np.int32)
    id_of[order] = np.fromiter((vocab.setdefault(tokens.words[j], len(vocab) + 1) for j in order),
                               dtype=np.int32, count=len(order))
    widths = np.zeros((n, th.t_d + 1), dtype=np.int64)
    widths[np.repeat(np.arange(n), rows)[kept], place[kept]] = fill[kept]
    ids = np.zeros((n, th.t_d + 1, th.t_s), dtype=np.int32)
    # a boolean mask visits the filled slots in the order `used` lists them
    ids[np.arange(th.t_s) < widths[..., None]] = id_of[used]
    return ids


def load_corpus(path) -> list:
    """Read a JSON Lines corpus file.  Raises CorpusError naming the file
    and offending record on any malformed line, a field of another JSON
    type included, or the line of a byte that is not UTF-8."""
    articles = []
    seen_ids = set()
    with open_text(path, CorpusError) as fh:
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


# the first line of a corpus file's token cache (fileio.ContentCache)
_TOKENS_MAGIC = b"fakereal tokens cache 2\n"


def load_tokenized(path):
    """(articles, tokens): load_corpus(path), and the CorpusTokens of what
    split_article yields for those articles.

    The tokens are kept in a cache file beside the corpus file,
    `__fakereal_cache__/<name>.tokens`, keyed by the sha256 of the file,
    so a later call on the same file content tokenizes nothing.  The
    cache is loaded before the file is read, and its tokens are kept only
    when they are those of as many articles and the file still holds the
    bytes of that digest (fileio.ContentCache.unchanged), so the articles
    and their tokens come from the same bytes; otherwise the articles read
    are tokenized, and stored on the same check."""
    cache = ContentCache(path, ".tokens", _TOKENS_MAGIC)
    tokens = cache.load(lambda meta, arrays: _tokens_from_cache(arrays))
    articles = load_corpus(path)
    if tokens is not None and len(tokens.article_rows) == len(articles) and cache.unchanged():
        return articles, tokens
    tokens = CorpusTokens.of(map(split_article, articles))
    if cache.unchanged():
        text = "".join(w + "\n" for w in tokens.words).encode("utf-8")
        cache.store({}, {"words": np.frombuffer(text, np.uint8), "index": tokens.index,
                         "row_lengths": tokens.row_lengths, "article_rows": tokens.article_rows})
    return articles, tokens


def _tokens_from_cache(arrays):
    """The CorpusTokens of a token cache: the words newline-terminated
    UTF-8, and the int32 arrays.  Raises ValueError or KeyError when they
    make no CorpusTokens."""
    *words, rest = arrays["words"].tobytes().decode("utf-8").split("\n")
    if rest:
        raise ValueError("corrupt token cache")
    return CorpusTokens(words, arrays["index"], arrays["row_lengths"], arrays["article_rows"])


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
    with open_text(path, CorpusError) as fh:
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
    Raises the CorpusError of the first bad line: a component that is not
    a number, or is nan or infinite (``1e400`` included), or a line of
    another length."""
    try:
        block = np.loadtxt([text for _, _, text in lines], dtype=np.float64, comments=None,
                           ndmin=2)
    except ValueError:
        block = None
    if (block is not None and block.shape[0] == len(lines) and dim in (None, block.shape[1])
            and np.isfinite(block).all()):
        return block
    # find the first bad line, checked as the per-component float() loop did
    for word, lineno, text in lines:
        values = text.split()
        try:
            floats = [float(v) for v in values]
            np.loadtxt([text], dtype=np.float64, comments=None)
        except ValueError:
            raise CorpusError(f"{path}: line {lineno}: non-numeric vector component") from None
        dim = dim or len(values)
        if len(values) != dim:
            raise CorpusError(f"{path}: line {lineno}: expected {dim} components, "
                              f"got {len(values)}")
        if not all(map(math.isfinite, floats)):
            raise CorpusError(f"{path}: line {lineno}: non-finite vector component in the "
                              f"vector of {word!r}")
    raise CorpusError(f"{path}: lines {lines[0][1]}-{lines[-1][1]}: unparseable vector components")


# The vector cache: one fileio.ContentCache file per embeddings file, its
# meta names and absent, and its one array the matrix.
_CACHE_MAGIC = b"fakereal vector cache 5\n"


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
    one, one holding a character for which str.isspace() is true, or one
    whose vector holds a nan or an infinity."""
    for word, vec in vectors.items():
        if not word or any(ch.isspace() for ch in word):
            raise ValueError(f"embedding word {word!r} is empty or contains whitespace")
        if not np.isfinite(vec).all():
            raise ValueError(f"the vector of embedding word {word!r} is not finite")
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")
