"""Small shared I/O helpers."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    An OSError keeps its errno and strerror but names ``path`` alone, never
    the temp file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


JSON_NUMBERS = frozenset((int, float))  # the types json loads numbers as; bool is neither


def is_json_int(value) -> bool:
    """True for a JSON integer as ``json`` loads it: an int, but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)
