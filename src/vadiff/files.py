"""Reading and writing vadiff's files: maps, .npy headers, atomic replacement.

Every reader maps its input with `map_file` rather than copying it into
private memory, so a loaded feature matrix or weight set is a view of
clean file pages, not heap.  Both binary files are .npy files, whose
header `read_npy_header` reads from that map.  Every writer writes through
`replacing`, which never changes the bytes of an existing file in place: a
live map of the old file keeps its contents, and a write that fails leaves
the old file as it was.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import stat
import tokenize
import warnings

import numpy as np


def map_file(path):
    """The whole file at `path` as a read-only buffer: an mmap, or b"" for an
    empty file, which cannot be mapped.  The map outlives the open file
    and is unmapped when the last array viewing it is freed."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def read_npy_header(buf, error, what):
    """(shape, fortran_order, dtype, data offset) of the version 1.0 .npy
    file in the map `buf`, as numpy reads its header, which must be a Python
    literal and parse without a warning.  Any fault raises `error`, with a
    message that starts with `what`."""
    if not buf:
        raise error(f"{what} is empty")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            version = np.lib.format.read_magic(buf)
            if version != (1, 0):
                raise ValueError(f"its version is {version[0]}.{version[1]}")
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(buf)
    # not a Python literal: numpy's fallback parse for Python 2 headers warned or failed
    except (UserWarning, SyntaxError, tokenize.TokenError):
        header = buf[10 : buf.tell()].decode("latin1")  # after magic, version and length
        raise error(f"{what} is not a version 1.0 .npy file: "
                    f"its header {header.strip()!r:.200} is not a Python literal") from None
    # numpy's own checks of the header raise ValueError, or TypeError for some
    # mangled ones; a deprecated dtype warns
    except (ValueError, TypeError, Warning) as e:
        raise error(f"{what} is not a version 1.0 .npy file: {e}") from None
    return shape, fortran, dtype, buf.tell()


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
