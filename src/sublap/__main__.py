"""Entry point for ``python -m sublap``; same commands as the console script."""

import sys

from .cli import main

sys.exit(main())
