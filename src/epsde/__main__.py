"""``python -m epsde``: the command-line interface (see epsde.cli)."""

import sys

from .cli import main

sys.exit(main())
