"""``PYTHONPATH=src python -m benchmarks.ledger``: the whole ledger."""

from benchmarks.ledger.cli import main

raise SystemExit(main())
