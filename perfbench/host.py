"""Host record and the noise sentinel printed with every result."""

from __future__ import annotations

import importlib.util
import os
import resource
import sys
from time import perf_counter

import numpy as np


def host_record() -> dict:
    """CPUs, library versions and the kernel backend the engines resolve."""
    import scipy

    from repro.core.backends import resolve_backend

    def probe(module: str) -> str:
        if importlib.util.find_spec(module) is None:
            return "not measured (not installed)"
        return "installed (not measured)"

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": resolve_backend(None),
        "numba": probe("numba"),
        "mpi4py": probe("mpi4py"),
    }


def calibrate_us(reps: int = 5, iters: int = 100) -> float:
    """Median microseconds of one step of a fixed pure-numpy loop.

    Timed before and after every run: identical code on a slowed host
    reads higher here too, so a slow run can be told from a slow change.
    """
    v = np.linspace(1.0, 2.0, 1 << 15)
    out = np.empty_like(v)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(iters):
            np.multiply(v, v, out=out)
            np.add(out, 1.0, out=out)
            np.sqrt(out, out=out)
        times.append((perf_counter() - t0) / iters * 1e6)
    return float(np.median(times))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its reaped children.

    ``RUSAGE_CHILDREN`` only covers children that have been waited for,
    so every workload joins or waits for its workers before this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
