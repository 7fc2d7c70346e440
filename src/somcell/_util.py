"""Small shared I/O helpers."""

from __future__ import annotations

import os

# a plain open(path, "w") but with exclusive creation in place of truncation;
# O_BINARY (Windows only) keeps newlines as written
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    The file gets the mode ``open(path, "w")`` gives a new file, 0o666 less
    the umask, also when it replaces an existing one. An OSError keeps its
    errno and strerror but names ``path`` alone, never the temp file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    data = memoryview(text.encode("utf-8"))  # bytes straight to the descriptor, no text wrapper
    try:
        # a random name, created exclusively: a clash fails, never overwrites
        tmp = os.path.join(directory, f".tmp.{os.urandom(8).hex()}.part")
        fd = os.open(tmp, _TEMP_FLAGS, 0o666)
        try:
            try:
                while data:  # a write may take fewer bytes than it was given
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
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
