"""Path set-up for the benchmark's own tests (not part of tier-1).

    python3 -m pytest bench/tests
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR, os.path.join(BENCH_DIR, "fixtures")):
    if path not in sys.path:
        sys.path.insert(0, path)
