"""Atomic file writes: no partial artifact survives a failure.

Kept apart from the solver so that `bound`, which writes only JSON, does
not load the profile code.
"""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, data: str | bytes) -> None:
    """Write text or bytes to a temporary file next to path, then rename it onto path;
    an OSError names path, not the temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".dbisol-")
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
