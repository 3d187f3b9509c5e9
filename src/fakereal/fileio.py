"""Output files that are replaced whole or not at all."""

import os
from contextlib import contextmanager


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
