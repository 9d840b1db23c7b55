"""The splitmix64 finalizer over numpy ``uint64`` arrays.

The batch kernels (:mod:`repro.model.batchgen`,
:mod:`repro.workloads.batcharrivals`) draw whole arrays of the uniforms
:mod:`repro._rng` draws one at a time.  ``uint64`` arithmetic wraps, so
each element is bit-identical to the scalar finalizer.  A module of its
own, so that importing :mod:`repro._rng` does not import numpy.
"""

from __future__ import annotations

import numpy as np

from repro._rng import _COMBINE, _GOLDEN, _MIX1, _MIX2

_U64 = np.uint64
_G = _U64(_GOLDEN)
_M1 = _U64(_MIX1)
_M2 = _U64(_MIX2)
_C = _U64(_COMBINE)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)
_S11 = _U64(11)


def _fin3(x):
    """The finalizer minus the golden-ratio add, in place on array ``x``.

    ``splitmix64`` over an array is ``_fin3(x + _G)``.
    """
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x
