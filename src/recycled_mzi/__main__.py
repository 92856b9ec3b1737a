"""The command line's one entry: `python -m recycled_mzi` and the
`recycled-mzi` console script both call `run`, which runs `main` and leaves
by `os._exit`, so neither has an interpreter teardown to flush a stream
again after a failed write."""

import errno
import io
import os
import sys
from typing import NoReturn

# The model makes no BLAS call, yet OpenBLAS starts a worker thread while
# numpy loads, which costs ~65 ms of start-up.  So the command line runs
# OpenBLAS single-threaded, unless the caller set a thread count.  This must
# come before `.cli`, which imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

__all__ = ["main", "run"]


class _ClosedStream(io.TextIOBase):
    """A standard stream closed at start-up, which Python sets to None:
    each write fails like one to a closed descriptor."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def run() -> NoReturn:
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, _ClosedStream())
    code = main()
    # `main` has flushed stdout and closed its files.  Leave without the
    # interpreter's teardown, which frees every module and array one by one
    # (~20 ms) and would flush again what a failed write left in a buffer.
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
