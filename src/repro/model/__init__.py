"""Synthetic language-model substrate (target + draft pair).

A seeded stochastic model pair stands in for real LLM weights: the
schedulers read only draft probabilities and the tokens the target
emits, and the pair reproduces both deterministically per seed, with
acceptance rates calibrated to the paper's band (Figure 12; see
:mod:`repro.model.calibration`).
"""
