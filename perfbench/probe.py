"""A fixed host-speed probe timed next to every measurement.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, as other tenants load it.  Process CPU
time tracks wall time through those swings, so they slow the code
itself, not its scheduling.  Each workload therefore times a fixed probe
next to every unit (and every set-up) and reports its times in
reference seconds: `wall / probe * reference`, where `reference` is
the probe's median time on the reference host.  At the reference speed
the two agree; when the host slows, probe and unit slow together.

The probe is made of parts that stress what the workload stresses.  Its
work depends on nothing in the package, so a change to the program
moves the units and leaves the probe alone.  All parts but
one Gram product are single-threaded.
"""

from __future__ import annotations

import time

import numpy as np


def python_loop() -> None:
    """Interpreter dispatch: an integer loop in bytecode."""
    total = 0
    for i in range(2_500_000):
        total += i * i


_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(5, 5)) + 5.0 * np.eye(5)
_B = _RNG.normal(size=5)


def small_numpy() -> None:
    """Call overhead of numpy on 5-element arrays, as in one trial."""
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        y = _A @ _B + rng.normal(size=5)
        np.linalg.solve(_A, y)


def memory() -> None:
    """Memory traffic: fill fresh 16 MB buffers with normals and reduce
    them."""
    rng = np.random.default_rng(2)
    for _ in range(5):
        rng.standard_normal(2_000_000).sum()


def large() -> None:
    """What the large bound kernels do with A: fill a fresh 72 MB matrix
    with normals, copy it, and factor the Gram matrix of 300 columns.
    The Gram product runs on the BLAS threads, as the kernels' do."""
    a = np.random.default_rng(3).standard_normal((1500, 6000))
    cols = a.copy()[:, :300]
    np.linalg.cholesky(cols.T @ cols)


PARTS = {"python": python_loop, "numpy": small_numpy, "memory": memory, "large": large}

# median seconds of each part alone on the reference host (2-core Xeon KVM
# guest, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = {"python": 0.161, "numpy": 0.0962, "memory": 0.162, "large": 0.181}


class Probe:
    """Time the named parts; `scale(t, p)` turns a wall time t, measured
    next to a probe time p, into reference seconds."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[name] for name in parts]
        self.reference_s = sum(REFERENCE_S[name] for name in parts)
        self.run()  # first call pays for page faults and lazy imports

    def run(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def scale(self, wall_s: float, probe_s: float) -> float:
        return wall_s / probe_s * self.reference_s
