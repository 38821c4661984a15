"""A fixed reference kernel that tracks how fast this machine runs now.

On a shared host the same code runs at different speeds from minute to
minute: other tenants contend for cores, caches and memory, and a whole
workload slows by up to a third at once.  The benchmark therefore times,
between the program's calls, a kernel of numpy work that never touches
mudilate, and scales each timing of the program by how long the kernel
took around it.  A timing in reference seconds is what it would read on a
machine where the kernel takes ``REF_SECONDS``.

The kernel mixes the kinds of work the workloads do: small numpy calls
from Python (closed-form domain points), eigenvalues of a batch of 4x4
matrices (the torus grids of ``mu_E``), LAPACK eigenvalues on a mid-size
dense matrix and a BLAS-3 product whose operands spill out of the
per-core caches (the gallery cases).  It uses
numpy alone, so no change to mudilate can move it.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's time on a 2-core Intel Xeon VM with one BLAS thread in
# its faster state, so that reference seconds read like that machine's
# seconds
REF_SECONDS = 0.011

_rng = np.random.default_rng(20261017)
_SMALL = [_rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))
          for _ in range(24)]
_BATCH = _rng.standard_normal((384, 4, 4)) + 1j * _rng.standard_normal((384, 4, 4))
_MID = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_BIG = _rng.standard_normal((320, 320))


def sample() -> float:
    """One run of the kernel, in seconds."""
    t0 = time.perf_counter()
    for a in _SMALL:
        np.abs(np.linalg.eigvals(a)).max()
        np.linalg.norm(a, 2)
    np.abs(np.linalg.eigvals(_BATCH)).max()
    np.abs(np.linalg.eigvals(_MID)).max()
    np.abs(_BIG @ _BIG).max()
    return time.perf_counter() - t0
