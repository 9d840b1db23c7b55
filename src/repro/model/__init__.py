"""Synthetic language-model substrate (target + draft pair).

See DESIGN.md §1 for why a seeded stochastic model pair is a faithful
substitute for real LLM weights in this reproduction.
"""
