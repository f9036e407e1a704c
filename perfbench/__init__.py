"""Closed-loop benchmark for crystal-forge; run it with `python3 perfbench/run.py`."""
