"""The benchmark's workloads: their sizes and seeded input generation.
The command sequence each one runs is in worker.py.

Input generation runs in the parent process, before and outside any timed
region.  It writes the corpus, embeddings, publisher side files and a flat
`run.cfg` into an `inputs/` directory; the worker process then drives the
program from those files alone, through the entry points the CLI calls.

Where a workload draws a per-article size (sentences per article,
publishers per article), the sizes are a fixed multiset shuffled by the
seed, so every seed costs the same amount of work and the seed only
changes which article gets which size.
"""

import os
from dataclasses import dataclass

import numpy as np

CONFIG_NAME = "run.cfg"


@dataclass(frozen=True)
class ToyAblate:
    """The acceptance suite's SIGNAL_SPEC corpus (tests/test_acceptance.py):
    strong publisher signal, weak text signal, t_s=10, E=16, vocab 25."""
    n_per_class: int = 100
    epochs: int = 100
    batch_size: int = 16


@dataclass(frozen=True)
class PaperTrain:
    """Politifact tensor shape (t_s=46, t_d=280) at E=100."""
    n_train: int = 36
    n_test: int = 12
    t_s: int = 46
    t_d: int = 280
    embed_dim: int = 100
    vocab: int = 3000
    sents: tuple = (10, 250)
    words: tuple = (5, 45)
    n_users: int = 40
    pubs: tuple = (1, 3)
    epochs: int = 2
    batch_size: int = 8


@dataclass(frozen=True)
class InfluenceExact:
    """Toy-sized text over a follower graph where the exact walk dominates."""
    n_articles: int = 150
    n_users: int = 5000
    edge_draws: int = 38300     # about 37k edges once duplicates and self-loops go
    indegree_exponent: float = 0.9
    pool: int = 300
    pubs: tuple = (3, 10)
    publisher_signal: float = 0.9
    embed_dim: int = 16
    vocab: int = 25
    sents: tuple = (2, 4)
    words: tuple = (4, 7)
    epochs: int = 20     # long enough that the train span is not lost in timer noise
    batch_size: int = 16


SIZES = {
    "toy-ablate": ToyAblate(),
    "paper-train": PaperTrain(),
    "influence-exact": InfluenceExact(),
}


# ---------------------------------------------------------------------------
# input generation (parent process)


def _write_config(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in pairs.items():
            fh.write(f"{key} = {val}\n")


def _shuffled_sizes(rng, lo, hi, n):
    """n sizes spread evenly over [lo, hi], in seeded order."""
    return rng.permutation(np.rint(np.linspace(lo, hi, n)).astype(int))


def _sentence(rng, vocab, words):
    count = int(rng.integers(words[0], words[1] + 1))
    return " ".join(vocab[int(i)] for i in rng.integers(len(vocab), size=count))


def _publishers(rng, own, other, count, signal):
    """`count` distinct publishers, each from the article's own pool with
    probability (1+signal)/2."""
    chosen = []
    while len(chosen) < count:
        pool = own if rng.random() < (1.0 + signal) / 2.0 else other
        pick = pool[int(rng.integers(len(pool)))]
        if pick not in chosen:
            chosen.append(pick)
    return chosen


def _articles(fr, rng, sizes, n, pub_counts, real_pool, fake_pool, signal):
    """n articles alternating real and fake, words drawn uniformly from a
    `w<i>` vocabulary; returns (articles, vocabulary)."""
    vocab = [f"w{i:05d}" for i in range(sizes.vocab)]
    sent_counts = _shuffled_sizes(rng, sizes.sents[0], sizes.sents[1], n)
    articles = []
    for i in range(n):
        real = i % 2 == 0
        own, other = (real_pool, fake_pool) if real else (fake_pool, real_pool)
        body = ". ".join(_sentence(rng, vocab, sizes.words) for _ in range(sent_counts[i]))
        articles.append(fr.corpus.NewsArticle(
            id=f"a{i:04d}", headline=_sentence(rng, vocab, sizes.words), body=body + ".",
            label=fr.corpus.Label.REAL if real else fr.corpus.Label.FAKE,
            publisher_ids=_publishers(rng, own, other, int(pub_counts[i]), signal)))
    return articles, vocab


def _write_text(fr, rng, out_dir, train, test, vocab, embed_dim):
    paths = {key: os.path.join(out_dir, name) for key, name in (
        ("data.train", "train.jsonl"), ("data.test", "test.jsonl"),
        ("data.embeddings", "embeddings.txt"))}
    fr.corpus.write_corpus(train, paths["data.train"])
    fr.corpus.write_corpus(test, paths["data.test"])
    fr.corpus.write_embeddings({word: rng.uniform(-0.5, 0.5, embed_dim) for word in vocab},
                               paths["data.embeddings"])
    return paths


def _gen_toy_ablate(sizes, seed, out_dir, fr):
    spec = fr.pipeline.SynthSpec(
        n_real=sizes.n_per_class, n_fake=sizes.n_per_class,
        publisher_signal=0.9, text_signal=0.3, vocab_size=25, marker_rate=0.2,
        sents_min=2, sents_max=4, words_min=4, words_max=7)
    paths = fr.pipeline.write_synthetic(fr.pipeline.gen_synthetic(spec, seed), out_dir,
                                        test_fraction=0.5)
    return {
        "data.train": paths["train"],
        "data.test": paths["test"],
        "data.embeddings": paths["embeddings"],
        "data.publishers": paths["publishers"],
        "model.t_s": 10,
        "model.variant": "full",
        "train.epochs": sizes.epochs,
        "train.batch_size": sizes.batch_size,
        "train.seed": seed,
    }


def _gen_paper_train(sizes, seed, out_dir, fr):
    rng = np.random.default_rng([seed, 2])
    users = [f"u{i:04d}" for i in range(sizes.n_users)]
    real_pool, fake_pool = users[:len(users) // 2], users[len(users) // 2:]
    n = sizes.n_train + sizes.n_test
    pub_counts = _shuffled_sizes(rng, sizes.pubs[0], sizes.pubs[1], n)
    articles, vocab = _articles(fr, rng, sizes, n, pub_counts, real_pool, fake_pool, 0.9)
    config = _write_text(fr, rng, out_dir, articles[:sizes.n_train], articles[sizes.n_train:],
                         vocab, sizes.embed_dim)
    config["data.publishers"] = os.path.join(out_dir, "publishers.tsv")
    with open(config["data.publishers"], "w", encoding="utf-8") as fh:
        for user in real_pool:
            fh.write(f"{user}\t{int(rng.integers(10, 31))}\n")
        for user in fake_pool:
            fh.write(f"{user}\t{int(rng.integers(0, 9))}\n")
    config.update({
        "model.t_s": sizes.t_s,
        "model.t_d": sizes.t_d,
        "model.variant": "full",
        "train.epochs": sizes.epochs,
        "train.batch_size": sizes.batch_size,
        "train.seed": seed,
    })
    return config


def follower_graph(rng, n_users, draws, exponent):
    """(follower, followed) index pairs with heavy-tailed in-degree.

    Each draw picks a follower uniformly and a followed user with weight
    rank^-exponent over a seeded ranking; duplicates and self-loops are
    dropped.  Vectorized, unlike gen_synthetic's per-user edge loop, which
    grows as n_users^2.
    """
    rank = rng.permutation(n_users)
    weight = (rank + 1.0) ** -exponent
    followed = rng.choice(n_users, size=draws, p=weight / weight.sum())
    follower = rng.integers(n_users, size=draws)
    pairs = np.unique(np.stack([follower, followed], axis=1), axis=0)
    return pairs[pairs[:, 0] != pairs[:, 1]]


def _gen_influence_exact(sizes, seed, out_dir, fr):
    rng = np.random.default_rng([seed, 3])
    edges = follower_graph(rng, sizes.n_users, sizes.edge_draws, sizes.indegree_exponent)
    indegree = np.bincount(edges[:, 1], minlength=sizes.n_users)
    # publishers come from followed users; the better-followed half leans real
    candidates = np.flatnonzero(indegree > 0)
    pool = rng.choice(candidates, size=min(sizes.pool, len(candidates)), replace=False)
    pool = pool[np.argsort(-indegree[pool], kind="stable")]
    names = [f"u{i:05d}" for i in range(sizes.n_users)]
    real_pool = [names[i] for i in pool[:len(pool) // 2]]
    fake_pool = [names[i] for i in pool[len(pool) // 2:]]
    pub_counts = _shuffled_sizes(rng, sizes.pubs[0], sizes.pubs[1], sizes.n_articles)
    articles, vocab = _articles(fr, rng, sizes, sizes.n_articles, pub_counts, real_pool,
                                fake_pool, sizes.publisher_signal)
    train, test = fr.pipeline.split_corpus(articles, 0.5)
    config = _write_text(fr, rng, out_dir, train, test, vocab, sizes.embed_dim)
    config["data.edges"] = os.path.join(out_dir, "edges.txt")
    with open(config["data.edges"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{names[a]} {names[b]}\n" for a, b in edges)
    config.update({
        "model.t_s": 10,
        "model.variant": "slcnn_i",
        "train.epochs": sizes.epochs,
        "train.batch_size": sizes.batch_size,
        "train.seed": seed,
        "influence.mode": "exact",
        "influence.p": 0.5,
        "influence.d_max": 0,
    })
    return config


_GENERATORS = {
    "toy-ablate": _gen_toy_ablate,
    "paper-train": _gen_paper_train,
    "influence-exact": _gen_influence_exact,
}


def generate(workload, seed, work_dir, fr, sizes=None):
    """Write `work_dir/inputs/` for one workload and seed.

    `fr` is the imported fakereal package, used only for its file writers
    (and, for toy-ablate, the acceptance corpus generator).  Paths in the
    config are relative to `work_dir`, so run outputs do not depend on
    where the checkout lives.
    """
    sizes = sizes or SIZES[workload]
    os.makedirs(os.path.join(work_dir, "inputs"), exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        pairs = _GENERATORS[workload](sizes, seed, "inputs", fr)
        _write_config(os.path.join("inputs", CONFIG_NAME), pairs)
    finally:
        os.chdir(cwd)
    return os.path.join("inputs", CONFIG_NAME)
