"""``python -m casoratiq``: the command line interface of ``casoratiq.cli``."""

import sys

from .cli import main

sys.exit(main())
