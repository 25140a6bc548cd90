"""`python -m otdistill`: the command line of otdistill.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
