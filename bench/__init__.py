"""The wall-clock ledger: end-to-end benchmark of this checkout (see README.md).

Importing the package puts the checkout's own ``src/`` first on
``sys.path``, so the benchmark always measures the tree it sits in —
never an installed copy of ``repro``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
