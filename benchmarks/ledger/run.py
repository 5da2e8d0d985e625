"""The command of ``BENCHMARK.json``: ``python3 benchmarks/ledger/run.py``.

Runs from the root of any checkout with no environment prepared: it puts
the checkout root on ``sys.path`` (so ``benchmarks.ledger`` imports) and
hands over to :mod:`benchmarks.ledger.cli`, which starts every child with
the checkout's ``src`` on ``PYTHONPATH``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Drop this directory (sys.path[0] for a script) so the ledger's modules
# are only reachable as benchmarks.ledger.*, never as top-level names.
sys.path[:] = [entry for entry in sys.path if os.path.abspath(entry or ".") != HERE]
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
