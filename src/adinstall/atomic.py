"""Crash-safe file writes: a temp file beside the target, then ``os.replace``."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temp file in the directory of ``path``; a clean exit renames it onto ``path``.

    If the block raises, the temp file is removed and ``path`` keeps its
    previous content (or stays absent), so readers never see a half-written
    file. Text mode writes UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically."""
    with atomic_write(path) as fh:
        fh.write(text)
