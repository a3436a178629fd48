"""`python -m polarbench`: the command-line front end of polarbench.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
