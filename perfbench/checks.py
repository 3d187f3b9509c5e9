"""Output checks and the independent influence reference.

Each check is one operation in the benchmark's error count.  The checks
read the run directories with plain numpy and file reads, not through the
program's own loaders.
"""

import hashlib
import math
import os

import numpy as np

DIGEST_FILES = ("checkpoint.bin", "train.log", "report.tsv", "stats.tsv")


def output_files(out_dir):
    """Relative paths of every digested output under a run directory."""
    found = []
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            if name in DIGEST_FILES:
                found.append(os.path.relpath(os.path.join(dirpath, name), out_dir))
    return sorted(found)


def digests(out_dir):
    """sha256 of each digested output file, by relative path."""
    out = {}
    for rel in output_files(out_dir):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def combined_digest(file_digests):
    text = "".join(f"{rel}:{hexd}\n" for rel, hexd in sorted(file_digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def checkpoint_finite(path):
    """True when every array stored in the checkpoint is finite."""
    with np.load(path, allow_pickle=False) as z:
        return all(np.all(np.isfinite(z[name])) for name in z.files
                   if z[name].dtype.kind == "f")


def losses_finite(path):
    """True when every `loss` logged in a train.log is finite; also
    requires at least one logged epoch."""
    losses = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "epoch" and "loss" in parts:
                losses.append(float(parts[parts.index("loss") + 1]))
    return bool(losses) and all(math.isfinite(v) for v in losses)


def count_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def read_followers(path):
    """followed -> set of followers, and the number of distinct users,
    parsed straight from an edge-list file."""
    followers = {}
    users = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            follower, followed = parts
            followers.setdefault(followed, set()).add(follower)
            users.update(parts)
    return followers, len(users)


def level_set_influence(followers, n_users, u, p, d_max=None):
    """Influence by explicit level sets, in the style of the test suite's
    oracle: level i+1 is every follower of every level-i user (the raw
    recurrence, not a frontier), first reaches come from set differences
    against all earlier levels, and level i counts with weight p^(i-1).

    Once a level reaches no one new, no later level can: a user at level
    i+1 follows someone at level i, who sits at some earlier level j, so
    the user was already at level j+1 <= i.  The enumeration stops there
    instead of running to n_users levels.
    """
    level = set(followers.get(u, ())) - {u}
    seen = set()
    total = 0.0
    depth = 1
    while level and (d_max is None or depth <= d_max):
        new = level - seen
        if not new:
            break
        total += (p ** (depth - 1)) * len(new)
        seen |= new
        nxt = set()
        for x in level:
            nxt |= followers.get(x, set())
        level = nxt - {u}
        depth += 1
    return total / (n_users - 1)
