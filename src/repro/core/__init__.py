"""AdaServe core: SLO-customized speculative decoding.

The paper's primary contribution: optimal token-tree construction
(Algorithm 1), the practical speculate-select-verify pipeline
(Algorithm 2), adaptive beam control (Equations 8-9) and the
SLO-customized scheduler that plugs into the serving substrate.
"""
