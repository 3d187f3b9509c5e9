"""News corpus loading, tokenization, and token-id input construction.

File formats:
  * corpus: JSON Lines, one object per line with fields ``id``,
    ``headline``, ``body``, ``label`` ("real" or "fake") and
    ``publishers`` (list of user id strings, possibly empty).
  * embeddings: plain text, one line per word: ``word v1 v2 ... vE``
    (the layout published GloVe vectors use).

An article becomes a fixed-shape (t_d+1, t_s) matrix of token ids: row 0
is the headline, rows 1..t_d are body sentences, each row holds up to t_s
words.  Longer texts are cropped, shorter ones padded with id 0.  A
prepared dataset keeps one vector table whose row i is the embedding of
the word with id i (row 0, padding, is all zeros), so each word vector is
stored once rather than once per occurrence.
"""

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from hashlib import blake2b

import numpy as np

PADDING_TOKEN = "<pad>"

# Reference statistics for the two FakeNewsNet benchmarks.  The corpora are
# not shipped, so their sentence-count thresholds are provided as presets
# rather than recomputed from data.
DATASET_PRESETS = {
    "politifact": {
        "t_s": 46,
        "t_d": 280,
        "train_real": 192,
        "train_fake": 188,
        "test_real": 49,
        "test_fake": 47,
    },
    "gossipcop": {
        "t_s": 46,
        "t_d": 85,
        "train_real": 9342,
        "train_fake": 3162,
        "test_real": 2336,
        "test_fake": 790,
    },
}
FAKENEWSNET_PUBLISHER_COUNT = 512370

DEFAULT_T_S = 46
DEFAULT_OOV_RANGE = (-0.01, 0.01)


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


def compute_thresholds(train_bodies, t_s_fixed: int = DEFAULT_T_S) -> Thresholds:
    """Size thresholds for the input tensor.

    t_d = ceil(mean + population std) of body sentence counts over the
    training split, which drops outlier sizes and keeps the tensors dense.
    t_s is fixed (46 by default).
    """
    if not train_bodies:
        raise ValueError("empty corpus")
    counts = np.array([len(t.body_sentences) for t in train_bodies], dtype=np.float64)
    t_d = math.ceil(counts.mean() + counts.std())
    return Thresholds(t_s=t_s_fixed, t_d=max(t_d, 1))


class EmbeddingTable:
    """Word -> vector map with stable out-of-vocabulary handling.

    OOV words get a vector drawn uniformly from ``oov_range``, seeded by
    (oov_seed, word) so the same word always maps to the same vector, in
    this process or any other.  The padding token maps to all zeros.
    """

    def __init__(self, dimension, vectors=None, oov_seed=0, oov_range=DEFAULT_OOV_RANGE):
        if dimension < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.dimension = int(dimension)
        self.vectors = {}
        self.oov_seed = int(oov_seed)
        self.oov_range = (float(oov_range[0]), float(oov_range[1]))
        self._oov_cache = {}
        self._zero = np.zeros(self.dimension)
        if vectors:
            for word, vec in vectors.items():
                self.add(word, vec)

    def add(self, word, vec):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.dimension,):
            raise ValueError(f"vector for {word!r} has shape {vec.shape}, expected ({self.dimension},)")
        self.vectors[word] = vec

    def __contains__(self, word):
        return word in self.vectors

    def __len__(self):
        return len(self.vectors)

    def lookup(self, word):
        if word == PADDING_TOKEN:
            return self._zero
        hit = self.vectors.get(word)
        if hit is not None:
            return hit
        hit = self._oov_cache.get(word)
        if hit is None:
            hit = self._draw_oov(word)
            self._oov_cache[word] = hit
        return hit

    def _draw_oov(self, word):
        digest = blake2b(word.encode("utf-8"), digest_size=8).digest()
        word_key = int.from_bytes(digest, "big")
        seq = np.random.SeedSequence([self.oov_seed & 0xFFFFFFFFFFFFFFFF, word_key])
        rng = np.random.default_rng(seq)
        lo, hi = self.oov_range
        return rng.uniform(lo, hi, self.dimension)


def token_ids(tok: TokenizedArticle, th: Thresholds, vocab: dict) -> np.ndarray:
    """Fixed-shape (t_d+1, t_s) int32 id matrix for one article.

    Row 0 is the headline, rows 1..t_d the first t_d body sentences; each
    row holds the ids of its first t_s words.  Slots past the available
    words or sentences stay 0, the padding id.  `vocab` maps word -> id
    and is extended in place: a word not in it yet gets the next id
    (len(vocab) + 1), so ids follow first occurrence.
    """
    ids = np.zeros((th.t_d + 1, th.t_s), dtype=np.int32)
    rows = [tok.headline_tokens] + tok.body_sentences[: th.t_d]
    for r, words in enumerate(rows):
        for c, word in enumerate(words[: th.t_s]):
            ids[r, c] = vocab.setdefault(word, len(vocab) + 1)
    return ids


def vocab_vectors(vocab: dict, table: EmbeddingTable) -> np.ndarray:
    """(len(vocab)+1, E) vector table for the ids `vocab` assigned: row 0
    is zeros (padding), row i is table.lookup() of the word with id i,
    stable-random vectors for OOV words included."""
    vectors = np.zeros((len(vocab) + 1, table.dimension))
    for word, i in vocab.items():
        vectors[i] = table.lookup(word)
    return vectors


def load_corpus(path) -> list:
    """Read a JSON Lines corpus file.  Raises CorpusError naming the file
    and offending record on any malformed line."""
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
                art_id = str(obj["id"])
                headline = obj["headline"]
                body = obj["body"]
                label_text = obj["label"]
            except (KeyError, TypeError) as exc:
                raise CorpusError(f"{path}: line {lineno}: missing field {exc}") from None
            if label_text not in ("real", "fake"):
                raise CorpusError(
                    f"{path}: record {art_id!r} (line {lineno}): label must be 'real' or 'fake', got {label_text!r}"
                )
            if art_id in seen_ids:
                raise CorpusError(f"{path}: record {art_id!r} (line {lineno}): duplicate id")
            seen_ids.add(art_id)
            publishers = obj.get("publishers", [])
            if not isinstance(publishers, list):
                raise CorpusError(f"{path}: record {art_id!r} (line {lineno}): publishers must be a list")
            articles.append(
                NewsArticle(
                    id=art_id,
                    headline=str(headline),
                    body=str(body),
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


def load_embeddings(path, oov_seed=0, oov_range=DEFAULT_OOV_RANGE) -> EmbeddingTable:
    """Read whitespace-separated text embeddings (``word v1 ... vE``)."""
    table = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if not values:
                raise CorpusError(f"{path}: line {lineno}: no vector components")
            if table is None:
                table = EmbeddingTable(len(values), oov_seed=oov_seed, oov_range=oov_range)
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise CorpusError(f"{path}: line {lineno}: non-numeric vector component") from None
            if vec.shape != (table.dimension,):
                raise CorpusError(
                    f"{path}: line {lineno}: expected {table.dimension} components, got {vec.shape[0]}"
                )
            table.add(word, vec)
    if table is None:
        raise CorpusError(f"{path}: empty embeddings file")
    return table


def write_embeddings(vectors, path):
    """Inverse of load_embeddings.  ``vectors`` maps word -> 1D array."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")
