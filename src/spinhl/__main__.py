"""``python -m spinhl``: the ``spinhl`` command line (``spinhl.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
