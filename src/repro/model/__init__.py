"""Synthetic language-model substrate (target + draft pair).

A seeded stochastic model pair stands in for real LLM weights: the
schedulers read only draft probabilities and the tokens the target
emits, and the pair reproduces both deterministically per seed, with
acceptance rates calibrated to the paper's band (Figure 12; the
calibration tool and its tests are ``tests/calibration.py`` and
``tests/test_calibration.py``).
"""
