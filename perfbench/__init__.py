"""The repository's end-to-end benchmark: ``python3 perfbench/run.py``.

Three workloads (``adhoc_cold``, ``dashboard_warm``, ``serve_ingest``)
drive the engine only through public calls and print one JSON result
line; ``BENCHMARK.json`` at the repository root names the gated metrics.
"""
