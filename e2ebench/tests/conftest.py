"""Put the program's source and the repository root on ``sys.path`` so
the benchmark's tests import ``repro`` and ``e2ebench`` from any
working directory."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
