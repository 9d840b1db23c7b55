"""Workload substrate: categories (Table 2), datasets, traces, generator."""
