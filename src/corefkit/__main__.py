"""`python -m corefkit`: one command line per process. `entry` is also the
target of the `corefkit` console script."""
import gc
import sys

from .cli import main


def entry() -> int:
    """Run this process's command line, then freeze what the run leaves
    out of the cyclic collector so that shutdown does not walk it (why that
    is safe is in `cli`'s docstring); returns the exit code. `cli.main`,
    which library callers and tests call, never freezes."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
