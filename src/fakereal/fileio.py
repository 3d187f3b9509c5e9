"""Output files that are replaced whole or not at all, input text read
with the digest of its bytes, and the cache files kept beside input files."""

import io
import json
import math
import os
import zlib
from contextlib import contextmanager
from hashlib import sha256

import numpy as np


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


class _Hashing(io.RawIOBase):
    """A binary file read through, each byte read fed to `digest`."""

    def __init__(self, raw, digest):
        self.raw, self.digest = raw, digest

    def readable(self):
        return True

    def readinto(self, buf):
        n = self.raw.readinto(buf)
        self.digest.update(memoryview(buf)[:n])
        return n


@contextmanager
def hashed_text(path):
    """Open `path` as open(path, "r", encoding="utf-8") does, yielding
    (fh, digest): a sha256 object fed every byte read.  Once fh has been
    read to the end, digest.hexdigest() is the file_digest of the bytes
    the text was decoded from, even if the file changed meanwhile."""
    digest = sha256()
    with open(path, "rb", buffering=0) as raw:
        with io.TextIOWrapper(io.BufferedReader(_Hashing(raw, digest)), encoding="utf-8") as fh:
            yield fh, digest


# Cache files live in CACHE_DIR beside the file they were parsed from, as
# CPython keeps __pycache__.  Deleting one is always safe: the next load
# parses again.
CACHE_DIR = "__fakereal_cache__"


class ContentCache:
    """The cache file of one input file, `CACHE_DIR/<name><suffix>` beside
    it; the only code that knows a cache file's layout:

        magic                        the format and its version
        sha256 of the input file     its bytes when this object was made
        CRC-32 of the rest           8 hex digits
        {"meta": ..., "arrays": [[name, dtype, shape], ...]}
        the arrays' bytes            little-endian, C order, in that order

    Any other file, or one the caller's `decode` refuses, is a miss, and
    the next store overwrites it; a directory that cannot be written only
    means nothing is cached."""

    def __init__(self, path, suffix, magic, digest=None):
        self.source = path
        self.digest = digest or file_digest(path)
        directory, name = os.path.split(os.fspath(path))
        self.path = os.path.join(directory, CACHE_DIR, name + suffix)
        self.head = magic + self.digest.encode("ascii") + b"\n"

    def sibling(self, suffix, magic):
        """The cache `CACHE_DIR/<name><suffix>` of the same input file,
        keyed by this object's digest without hashing the file again: what
        it holds must be derived from the bytes that digest names."""
        return ContentCache(self.source, suffix, magic, self.digest)

    def load(self, decode):
        """decode(meta, arrays) of what store(meta, arrays) wrote, the arrays
        read-only views of the file's bytes, or None on a miss.  `decode`
        raises ValueError, KeyError or TypeError on data that means nothing."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        start = len(self.head) + 9   # past the CRC-32 line: 8 hex digits, newline
        if (not data.startswith(self.head)
                or data[len(self.head):start] != b"%08x\n" % zlib.crc32(memoryview(data)[start:])):
            return None
        try:
            end = data.index(b"\n", start) + 1
            spec = json.loads(data[start:end])
            arrays = {}
            for name, dtype, shape in spec["arrays"]:
                if min(shape, default=0) < 0:
                    raise ValueError("a negative side")
                arrays[name] = np.frombuffer(data, dtype, math.prod(shape), end).reshape(shape)
                end += arrays[name].nbytes
            if end != len(data):
                raise ValueError("the arrays do not cover the payload")
            return decode(spec["meta"], arrays)
        except (ValueError, KeyError, TypeError, OverflowError):
            return None

    def unchanged(self):
        """Whether the input file still holds the bytes it held when this
        object was made; a payload parsed from a file that changed in
        between must not be stored."""
        return file_digest(self.source) == self.digest

    def store(self, meta, arrays):
        """Write `meta`, anything json.dumps writes (a numpy integer as an
        int), and `arrays`, a {name: array} dict, to the cache file."""
        arrays = {name: a.astype(a.dtype.newbyteorder("<"), order="C", copy=False)
                  for name, a in arrays.items()}
        spec = json.dumps({"meta": meta, "arrays": [[name, a.dtype.str, a.shape]
                                                    for name, a in arrays.items()]},
                          default=int).encode("ascii")
        # the CRC-32 runs over the parts, which are written as they are: a
        # joined copy of the payload would raise the peak memory of a miss
        parts = [spec + b"\n"] + [a.data for a in arrays.values()]
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with atomic_write(self.path, binary=True) as fh:
                fh.write(self.head + b"%08x\n" % crc)
                fh.writelines(parts)
        except OSError:
            pass


def file_digest(path):
    """sha256 of the file's bytes, read a MB at a time."""
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
