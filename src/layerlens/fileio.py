"""Atomic file writes: a reader sees the old file or the whole new one.

Every output file is written to a temporary file in the target's directory
and moved onto the target with ``os.replace`` once it is complete, so an
interrupted or failed write leaves the previous file (or none) and no
partial one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing, replacing ``path`` only when
    the ``with`` block ends without an exception; the temporary file is
    removed on any failure."""
    path = Path(path)
    # the pid keeps two processes that write the same target apart
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
