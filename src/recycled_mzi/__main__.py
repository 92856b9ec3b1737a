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
    # array one by one (~20 ms).  `main` has closed its files, so only the
    # standard streams hold unwritten bytes: flush them first.  A flush that
    # fails (a closed pipe) takes the normal exit, which reports it as ever.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)
