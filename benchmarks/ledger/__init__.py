"""The repo's performance ledger: six workloads, one schema.

``BENCHMARK.json`` at the repo root names the workloads and metrics;
this package measures them.  See ``README.md`` beside this file.
"""
