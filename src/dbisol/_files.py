"""Atomic file writes: no partial artifact survives a failure.

Kept apart from the solver so that `bound`, which writes only JSON, does
not load the profile code.
"""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, data: str | bytes) -> None:
    """Write text or bytes to a temporary file next to path, then rename it onto path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".dbisol-")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
