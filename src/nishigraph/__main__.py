"""`python -m nishigraph`: the command-line interface of nishigraph.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
