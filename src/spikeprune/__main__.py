"""`python -m spikeprune <subcommand>`: the same entry point as the installed
`spikeprune` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
