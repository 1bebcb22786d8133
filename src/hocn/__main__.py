"""``python -m hocn``: the same command line as the installed ``hocn`` script."""

import sys

from .cli import main

sys.exit(main())
