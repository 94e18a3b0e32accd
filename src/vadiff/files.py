"""Reading and writing vadiff's files: read-only maps and atomic replacement.

Every reader maps its input with `map_file` rather than copying it into
private memory, so a loaded feature matrix or weight set is a view of
clean file pages, not heap.  Every writer of a file that may be mapped
writes through `replacing`, which never changes the bytes of an existing
file in place: a live map of the old file keeps its contents.  Binary
payloads start on an `aligned` offset, so the float32 arrays viewing them
are aligned.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import stat

ALIGN = 64  # a payload's offset is a multiple of this: aligned for every dtype and cache line


def aligned(n: int) -> int:
    """The smallest multiple of ALIGN that is >= n."""
    return -(-n // ALIGN) * ALIGN


def map_file(path):
    """The whole file at `path` as a read-only buffer: an mmap, or b"" for an
    empty file, which cannot be mapped.  The map outlives the open file
    and is unmapped when the last array viewing it is freed."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


@contextlib.contextmanager
def replacing(path, mode="wb", **kwargs):
    """A file object whose contents replace `path` when the block succeeds.

    It writes a uniquely named temporary file in `path`'s directory, with
    the permissions plain open() would leave (an existing file's, else
    0o666 less the umask), and then os.replace()s `path` with it.  If the
    block raises, the temporary file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **kwargs)  # a new file, as open() makes it
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
