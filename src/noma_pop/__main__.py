"""``python -m noma_pop``: the ``noma-pop`` command line."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
