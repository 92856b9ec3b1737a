"""The command line's one entry: `python -m recycled_mzi` and the
`recycled-mzi` console script both run `main` from here."""

import os
import sys

# The model makes no BLAS call, yet OpenBLAS starts a worker thread while
# numpy loads, which costs ~65 ms of start-up.  So the command line runs
# OpenBLAS single-threaded, unless the caller set a thread count.  This must
# come before `.cli`, which imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

__all__ = ["main"]

if __name__ == "__main__":
    code = main()
    # Leave without the interpreter's teardown, which frees every module and
    # array one by one (~20 ms).  `main` has flushed stdout and closed its
    # files; stderr is line-buffered, so its flush finds nothing left to fail.
    sys.stderr.flush()
    os._exit(code)
