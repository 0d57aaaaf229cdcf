"""`python -m randset EXPERIMENT ...` runs the command-line driver."""
import sys

from .expcli import main

if __name__ == "__main__":
    sys.exit(main())
