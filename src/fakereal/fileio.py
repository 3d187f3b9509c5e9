"""Output files that are replaced whole or not at all, and the cache files
kept beside input files."""

import copy
import os
from contextlib import contextmanager
from hashlib import sha256


@contextmanager
def atomic_write(path, binary=False):
    """Open a temporary file beside `path` for writing, and move it over
    `path` with os.replace when the block finishes.  A reader sees the old
    file or the new one, never a partial write.  If the block raises, the
    temporary file is removed and `path` is left as it was."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# Cache files live in CACHE_DIR beside the file they were parsed from, as
# CPython keeps __pycache__.  Deleting one is always safe: the next load
# parses again.
CACHE_DIR = "__fakereal_cache__"


class ContentCache:
    """The cache file of one input file: `CACHE_DIR/<name><suffix>` beside
    it, whose first line is `magic` (the format and its version) and whose
    second line is the sha256 of the input file's bytes when this object
    was made.  What follows is the caller's payload.  A cache file that is
    missing, unreadable, of another format or of other content is a miss,
    and the next write overwrites it; a directory that cannot be written
    only means nothing is cached.  `sibling` gives the cache of another
    payload kept for the same input file under the same digest, without
    hashing the file again."""

    def __init__(self, path, suffix, magic):
        self.source = path
        self.digest = file_digest(path)
        self._place(suffix, magic)

    def _place(self, suffix, magic):
        directory, name = os.path.split(os.fspath(self.source))
        self.path = os.path.join(directory, CACHE_DIR, name + suffix)
        self.head = magic + self.digest.encode("ascii") + b"\n"

    def sibling(self, suffix, magic):
        """The cache `CACHE_DIR/<name><suffix>` of the same input file,
        keyed by this object's digest: what it holds must be derived from
        the bytes that digest names."""
        other = copy.copy(self)
        other._place(suffix, magic)
        return other

    def load(self, decode):
        """decode(payload), or None on a miss.  `decode` raises ValueError,
        KeyError or TypeError on a corrupt payload, which is a miss too."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        if not data.startswith(self.head):
            return None
        try:
            return decode(data[len(self.head):])
        except (ValueError, KeyError, TypeError):
            return None

    def unchanged(self):
        """Whether the input file still holds the bytes it held when this
        object was made; a payload parsed from a file that changed in
        between must not be stored."""
        return file_digest(self.source) == self.digest

    def store(self, *parts):
        """Write the cache file: the two head lines, then `parts` (bytes)."""
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with atomic_write(self.path, binary=True) as fh:
                fh.write(self.head)
                for part in parts:
                    fh.write(part)
        except OSError:
            pass


def file_digest(path):
    """sha256 of the file's bytes, read a MB at a time."""
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
