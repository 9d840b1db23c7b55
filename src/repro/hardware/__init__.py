"""GPU cost-model substrate: specs, roofline latency, budget profiling."""
