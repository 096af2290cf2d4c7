"""``python -m benchmarks.e2e`` and ``python3 benchmarks/e2e/__main__.py``
(the form ``BENCHMARK.json`` names; it must not name a path outside this
directory, so the repository root is put on ``sys.path`` here)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.driver import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
