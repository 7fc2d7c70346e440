"""Shared I/O helpers."""
import errno
import os
import stat

import pytest

from somcell._util import atomic_write_text


@pytest.fixture
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


@pytest.mark.parametrize("umask", [0o022, 0o077], indirect=True, ids=["022", "077"])
@pytest.mark.parametrize("existing", [None, 0o644, 0o600], ids=["new", "was-644", "was-600"])
def test_atomic_write_gives_a_plain_open_mode(tmp_path, umask, existing):
    # open(path, "w") creates a file 0o666 less the umask; the rename puts a
    # new file in place, so an overwritten file gets that mode too
    path = tmp_path / "out.txt"
    if existing is not None:
        path.write_text("old")
        path.chmod(existing)
    atomic_write_text(path, "new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]



def test_atomic_write_finishes_short_writes(tmp_path, monkeypatch):
    # os.write may take fewer bytes than it is given; the rest must follow
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
    path = tmp_path / "out.txt"
    text = "a\r\nb\nµ–é\n" * 5
    atomic_write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


def test_atomic_write_failure_names_the_path_and_leaves_no_temp(tmp_path, monkeypatch):
    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    path = tmp_path / "out.txt"
    with pytest.raises(OSError) as info:
        atomic_write_text(path, "new\n")
    assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(path))
    assert list(tmp_path.iterdir()) == []
