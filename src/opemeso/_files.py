"""The package's one file writer: overwrite in place, truncate only at the end.

Opening an existing file with ``O_TRUNC`` (``open(path, "w")``,
``Path.write_text``) frees its blocks before anything is written, and on a
volume that discards freed blocks that costs tens of milliseconds per file.
Writing over the old bytes and cutting the stale tail afterwards frees no
block when the new content is as long, longer, or shorter within the last
block.  Like ``O_TRUNC``, this is not atomic: a crash mid-write can leave old
bytes after the new ones.
"""

from __future__ import annotations

import os


def write_in_place(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` in order, creating it if needed.

    The file ends up holding exactly those bytes.  It is truncated only when
    it was longer than them, so character devices such as ``/dev/null``,
    which cannot be truncated, are written to like any new file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        stale = os.fstat(fd).st_size
        written = sum(fh.write(chunk) for chunk in chunks)
        if written < stale:
            fh.truncate(written)
