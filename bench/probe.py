"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same pass runs up to ~50% slower when neighbours
are busy, and such slow spells last from seconds to minutes, which no
median within one run can average out.  The probe is a fixed amount of
work of the same kinds a kangle pass does: gathers, products and a sparse
scatter over (2048, 70) coefficient arrays (like the jet product), many
tiny 3-operand ``np.einsum`` calls, and plain interpreter work.  It uses no
kangle code, so a change to the package never changes it; ``run.py``
divides each timing by the probe times taken next to it.
"""

from time import perf_counter

import numpy as np
from scipy import sparse

# median probe time on the reference machine (2-CPU Intel Xeon VM,
# Python 3.11, numpy 2.4, OpenBLAS pinned to one thread); timings are
# reported as if every probe had taken this long
REFERENCE_S = 0.26

_rng = np.random.default_rng(20261017)
_K, _PAIRS = 70, 400
_IA = _rng.integers(0, _K, _PAIRS)
_IB = _rng.integers(0, _K, _PAIRS)
_SCATTER = sparse.csr_matrix(
    (np.ones(_PAIRS), (np.arange(_PAIRS), _rng.integers(0, _K, _PAIRS))),
    shape=(_PAIRS, _K))
_X = _rng.standard_normal((2048, _K))
_Y = _rng.standard_normal((2048, _K))
_A = _rng.standard_normal((64, 8, 8))
_B = _rng.standard_normal((64, 8, 8))


def run():
    """Seconds the fixed kernel takes now."""
    start = perf_counter()
    for _ in range(40):
        _X[:, _IA] * _Y[:, _IB] @ _SCATTER
    for _ in range(600):
        np.einsum("bij,bjk,bki->b", _A, _B, _A)
    n = 0
    for i in range(200_000):
        n += i * i % 7
    return perf_counter() - start
