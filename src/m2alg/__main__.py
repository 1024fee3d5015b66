"""``python -m m2alg``: the same command line as the ``m2alg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
