"""`python -m spectrumshare ...`: the same command line as the installed `spectrumshare`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
