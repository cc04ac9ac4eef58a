"""Benchmark for logray; run ``python3 perfbench/run.py --help``."""
