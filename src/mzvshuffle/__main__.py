"""`python -m mzvshuffle`: the command-line interface of `cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
