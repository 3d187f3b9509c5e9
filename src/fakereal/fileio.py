"""Output files that are replaced whole or not at all, input text whose
bad bytes are named by line, and the cache files kept beside input
files: each is keyed by the sha256 of its input file and carries a stat
stamp of it, so that a hit, and the check that a parse read what the
digest names, hash nothing while that stamp holds."""

import json
import math
import os
import re
import zlib
from contextlib import contextmanager
from hashlib import sha256
from time import time_ns

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


@contextmanager
def open_text(path, error):
    """open(path, "r", encoding="utf-8") for a with block, which raises
    error("<path>: line <n>: invalid UTF-8") in place of the
    UnicodeDecodeError of a byte strict UTF-8 does not decode, n the line
    of that byte as the block counts lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path}: line {_first_bad_line(path)}: invalid UTF-8") from None


# the line ends of a text read (universal newlines)
_LINE_END = re.compile(rb"\r\n?|\n")


def _first_bad_line(path):
    """The line of the first byte of the file `path` that is not UTF-8,
    numbered as a text read numbers them: a line ends at CR LF, CR or LF.
    Neither byte occurs within a UTF-8 sequence, so binary lines break no
    character."""
    lineno = 1
    with open(path, "rb") as fh:
        for line in fh:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return lineno + len(_LINE_END.findall(line, 0, exc.start))
            lineno += len(_LINE_END.findall(line))
    return "?"   # the bad byte is gone: the file changed since the read


# Cache files live in CACHE_DIR beside the file they were parsed from, as
# CPython keeps __pycache__.  Deleting one is always safe: the next load
# parses again.
CACHE_DIR = "__fakereal_cache__"

# How long before a stat a file's mtime and ctime must lie for a stamp of
# that stat to be trusted.  A write in the same timestamp tick as the stat
# would leave both as they were ("racy git"); 3 s is above FAT's 2 s mtime
# tick, the coarsest of the file systems supported, and the coarse clock
# Linux stamps files with.
STAMP_MARGIN_NS = 3_000_000_000

# the stamp line of a file that changed too recently to be trusted
_UNTRUSTED = b"-\n"

_HEX_DIGEST = re.compile(rb"[0-9a-f]{64}\n")


def _stamp(path):
    """The stamp line of the file `path` as it is now, "st_size st_mtime_ns
    st_ctime_ns st_ino", or _UNTRUSTED when its mtime or ctime lies within
    STAMP_MARGIN_NS of the clock.  The clock is read before the stat, so a
    write after the stat gives the file an mtime past the stamp's."""
    now = time_ns()
    st = os.stat(path)
    if max(st.st_mtime_ns, st.st_ctime_ns) >= now - STAMP_MARGIN_NS:
        return _UNTRUSTED
    return b"%d %d %d %d\n" % (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)


class ContentCache:
    """The cache file of one input file, `CACHE_DIR/<name><suffix>` beside
    it; the only code that knows a cache file's layout, and the only code
    that decides whether it holds what the input file's bytes give:

        magic                        the format and its version
        sha256 of the input file     the bytes the payload was derived from
        stamp of the input file      "size mtime_ns ctime_ns inode", or "-"
        CRC-32 of the rest           8 hex digits, over the digest line,
                                     the stamp line and the payload
        {"meta": ..., "arrays": [[name, dtype, shape], ...]}
        the arrays' bytes            little-endian, C order, in that order

    A cache is used in these steps: load(decode); on a miss, parse the
    input file; and store the result only if unchanged().  A caller that
    reads the input file after load, as the token cache does, keeps a hit
    only if unchanged() too.  A sibling's payload is derived from what
    those steps kept, so it is stored as it is.

    The object stats the input file when it is made (_stamp).  When that
    stamp equals the cache file's, the cache file's digest is the input's
    and nothing is hashed: a trusted hit.  Otherwise the input file is
    hashed, and the cache file is a hit when its digest matches; the first
    such hit whose stamp is trusted rewrites the stamp line, so that later
    hits are trusted ones.  A stamp is written only once the file's mtime
    and ctime are STAMP_MARGIN_NS old; "-" stands for one that is not.

    Any other file, or one the caller's `decode` refuses, is a miss, and
    the next store overwrites it; a directory that cannot be written only
    means nothing is cached.  `digest` and `stamp` are given only for a
    sibling."""

    def __init__(self, path, suffix, magic, digest=None, stamp=None):
        self.source = path
        directory, name = os.path.split(os.fspath(path))
        self.path = os.path.join(directory, CACHE_DIR, name + suffix)
        self.magic = magic
        self.stamp = _stamp(path) if stamp is None else stamp
        self._digest = digest

    @property
    def digest(self):
        """The sha256 of the input file: taken from the cache file on a
        trusted stamp, or else hashed once, after the stamp was taken."""
        if self._digest is None:
            self._digest = file_digest(self.source)
        return self._digest

    def sibling(self, suffix, magic):
        """The cache `CACHE_DIR/<name><suffix>` of the same input file,
        keyed by this object's digest and stamp without hashing or statting
        the file again: what it holds must be derived from the bytes that
        digest names."""
        return ContentCache(self.source, suffix, magic, self.digest, self.stamp)

    def _read(self):
        """(data, digest line, stamp line, spec start) of the cache file,
        or None when it is missing or fails its magic, digest line or
        CRC-32."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        at = len(self.magic) + 65                # past the digest line
        end = data.find(b"\n", at, at + 96) + 1   # four 20-digit numbers fit
        view = memoryview(data)
        if (not end or not data.startswith(self.magic)
                or not _HEX_DIGEST.fullmatch(data, len(self.magic), at)
                or data[end:end + 9] != b"%08x\n" % zlib.crc32(
                    view[end + 9:], zlib.crc32(view[len(self.magic):end]))):
            return None
        return data, data[len(self.magic):at], data[at:end], end + 9

    def load(self, decode):
        """decode(meta, arrays) of what store(meta, arrays) wrote, the arrays
        read-only views of the file's bytes, or None on a miss.  `decode`
        raises ValueError, KeyError or TypeError on data that means nothing."""
        entry = self._read()
        if entry is not None and self._digest is None and entry[2] == self.stamp != _UNTRUSTED:
            self._digest = entry[1][:-1].decode("ascii")   # a trusted hit
        # a miss hashes too: what its caller parses next is stored under
        # the digest taken before the parse
        key = self.digest.encode("ascii") + b"\n"
        if entry is None or entry[1] != key:
            return None
        data, _, stamp, start = entry
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
            result = decode(spec["meta"], arrays)
        except (ValueError, KeyError, TypeError, OverflowError):
            return None
        if stamp != self.stamp != _UNTRUSTED:
            self._write([memoryview(data)[start:]])   # the payload as it is, under the new stamp
        return result

    def unchanged(self):
        """Whether the input file still holds the bytes `digest` names; a
        payload parsed from a file that changed in between must not be
        stored.  True without hashing while a trusted stamp holds: the
        stamp was taken before the digest, when the file's mtime and ctime
        were already STAMP_MARGIN_NS old, so any write since gives the file
        another stamp.  Otherwise the file is hashed again."""
        if self.stamp != _UNTRUSTED and _stamp(self.source) == self.stamp:
            return True
        return file_digest(self.source) == self.digest

    def store(self, meta, arrays):
        """Write `meta`, anything json.dumps writes (a numpy integer as an
        int), and `arrays`, a {name: array} dict, to the cache file."""
        arrays = {name: a.astype(a.dtype.newbyteorder("<"), order="C", copy=False)
                  for name, a in arrays.items()}
        spec = json.dumps({"meta": meta, "arrays": [[name, a.dtype.str, a.shape]
                                                    for name, a in arrays.items()]},
                          default=int).encode("ascii")
        self._write([spec + b"\n"] + [a.data for a in arrays.values()])

    def _write(self, payload):
        """Write the cache file: this object's digest and stamp, and the
        payload, a list of buffers."""
        lines = self.digest.encode("ascii") + b"\n" + self.stamp
        # the CRC-32 runs over the parts, which are written as they are: a
        # joined copy of the payload would raise the peak memory of a miss
        crc = zlib.crc32(lines)
        for part in payload:
            crc = zlib.crc32(part, crc)
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with atomic_write(self.path, binary=True) as fh:
                fh.write(self.magic + lines + b"%08x\n" % crc)
                fh.writelines(payload)
        except OSError:
            pass


def file_digest(path):
    """sha256 of the file's bytes, read a MB at a time."""
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
