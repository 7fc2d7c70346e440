"""Shared I/O helpers."""
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

