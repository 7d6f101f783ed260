"""Atomic replacement of output files.

Checkpoints, vocabularies, manifests and reports are written to a temporary
file beside their destination, flushed to disk and moved over it with
``os.replace``.  A crash or an error part-way through a write leaves either
the previous file or the complete new one, never a truncated artifact.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a file open for writing (UTF-8 text unless ``binary``); a clean
    exit replaces ``path`` with it, an exception removes it and leaves
    ``path`` as it was."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
