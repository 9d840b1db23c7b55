"""Benchmark harness: one module per paper table/figure (see README.md)."""
