"""Machine-speed probe: fixed work that touches no fblsec code.

The benchmark runs on small shared virtual machines whose CPU speed swings
by a third or more, for seconds to minutes at a time, because of other
tenants. Wall and CPU time swing together, since the virtual CPU itself
runs slower, and a run that falls inside a slow stretch is slow
throughout. So the workload process runs this probe before and after
every pass, and each timing of the pass is divided by the mean of the two
probe times and multiplied by PROBE_REFERENCE_S. The result is the time
the pass would take on a machine that runs the probe in
PROBE_REFERENCE_S seconds.

The probe mixes the kinds of work the workloads spend their time on:
interpreted float arithmetic and special functions, number formatting,
numpy calls on short complex vectors, Philox normal draws and a small
LAPACK SVD.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Probe time of a quiet 2.1 GHz Xeon vCPU (Python 3.11, numpy 2.4).
PROBE_REFERENCE_S = 1.5e-3

_VECTOR = np.linspace(0.5, 4.0, 8) + 0.25j
_ROW = _VECTOR[np.newaxis, :]
_RNG = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))


def _scalar(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0)) + math.log2(1.0 + x * x)


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += _scalar(i * 0.01)
        f"{acc:.12e}"
    for _ in range(60):
        abs(np.vdot(_VECTOR, _VECTOR))
        float(np.linalg.norm(_VECTOR) ** 2)
        np.exp(1j * _RNG.standard_normal(8))
        np.linalg.svd(_ROW)
    return time.perf_counter() - start
