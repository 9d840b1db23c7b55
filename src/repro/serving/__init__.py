"""Serving-system simulator substrate: requests, engine, KV cache, metrics."""
