"""Output files replaced in one step.

A reader of an output sees the old file or the whole new one, never a
part: the new content goes to a temporary file in the same directory,
which is renamed over the output only once it is complete (POSIX
``rename(2)`` is atomic within a file system).
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path: str, mode: str = "w", **kwargs):
    """Open a file for writing that replaces ``path`` when the block
    ends normally; when the block raises, the temporary file is removed
    and ``path`` is left as it was.

    ``mode`` is ``"w"`` or ``"wb"`` and ``kwargs`` go to :func:`open`.
    A symlink is followed, so its target is replaced, and the new file
    keeps the permission bits of the file it replaces.  A ``path`` that
    exists and is not a regular file, such as ``/dev/null``, is written
    in place.
    """
    target = os.path.realpath(path)
    try:
        old = os.stat(target)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
    except FileNotFoundError as exc:
        raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
