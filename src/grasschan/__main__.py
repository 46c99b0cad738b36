"""``python -m grasschan``: the ``grasschan`` command line of :mod:`grasschan.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
