"""Output files: every one is written whole or not at all."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write path through a temporary file, with the mode open(path, "w") gives."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
