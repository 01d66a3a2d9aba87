"""Machine-speed probes that rescale the benchmark's end-to-end times.

On a shared 2-vCPU host (2.1 GHz, Python 3.11, numpy 2.4), one jsrkit
operation measured 0.45 s and then 0.83 s two minutes later, with no
other process of the benchmark running; both vCPUs slowed alike and the
kernel reported no steal time. Raw wall times therefore move between two
sets of runs by more than any useful regression bound.

Each probe is a fixed piece of the same kind of work a workload does,
and shares no code with jsrkit, so no change to the package moves it:

- `compute`: interpreter loops over small complex matrices, Gram
  matrices, eigvalsh and eigvals, in the worker process (warm workloads);
- `cold`: a fresh interpreter that imports numpy (cold CLI processes and
  set-up, which both start an interpreter).

Timed just before and just after every measured piece of work, a probe
tells how fast the host runs at that moment. `scaled` converts a wall
time to seconds at the reference speed, wall * reference / probe, where
the reference is the probe's fastest time on the reference host (2 vCPU
at 2.1 GHz, Python 3.11, numpy 2.4, scipy-openblas, one BLAS thread). On
that host, quiet, scaled and raw times agree.
"""

import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(0)
_MATS = _RNG.standard_normal((400, 4, 4)) + 1j * _RNG.standard_normal((400, 4, 4))
_COLD_ARGV = [sys.executable, "-c", "import numpy"]


def _compute():
    s = 0.0
    for a in _MATS:
        g = a.conj().T @ a
        s += float(np.linalg.eigvalsh(g)[-1]) + float(np.abs(np.linalg.eigvals(a)).max())
        for row in a:
            for v in row:
                s += abs(v)
    return s


def _cold():
    subprocess.run(_COLD_ARGV, check=True, timeout=60)


# kind -> (work, its time on the reference host)
PROBES = {"compute": (_compute, 0.0122), "cold": (_cold, 0.105)}


def probe_s(kind):
    """Seconds one probe of this kind takes now."""
    work = PROBES[kind][0]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def scaled(kind, wall, before, after):
    """wall seconds at the reference speed, judged by the probes around them."""
    return wall * PROBES[kind][1] / (0.5 * (before + after))
