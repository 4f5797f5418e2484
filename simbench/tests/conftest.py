"""Put the repository's ``src`` and root on the path for these tests."""

import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (_ROOT / "src", _ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
