"""Machine-speed reference for the probe timings.

The 2-core machine this benchmark was built on changes speed by up to 2x
over minutes (other tenants share its cores): identical 10-second streams
of one seed gave 17 to 28 probes/s within a few minutes and 47 half an
hour later, with process CPU time tracking wall time, so neither longer
runs nor CPU clocks remove it. To compare
program versions across such drift, the stream runs a fixed reference
kernel after every probe and scales each probe's latency by how slow the
machine was at that moment:

    latency at reference speed = latency * REFERENCE_S / local reference time

where the local reference time is the median over the neighbouring
probes. The kernel uses no program code, so a change to the program
cannot move it; it does the kind of work the program does (a proximal
gradient loop of small matrix-vector products in Python, then small
Cholesky solves), so a slowdown of the machine shows in both.

The kernel cycles through eight copies of its arrays at different offsets
within a cache line. With a single copy its median time settled, per
process, on one of two levels 5% apart that the program's speed did not
share, which added that much noise to every scaled figure.
"""

from __future__ import annotations

import numpy as np

# The kernel's wall time on the reference machine in a fast phase; latencies
# are reported as if every reference run had taken this long.
REFERENCE_S = 0.0008
WINDOW = 8


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.normal(size=(160, 96))
        a /= np.linalg.norm(a, axis=0)
        y = rng.normal(size=160)
        self.step = 1.0 / float(np.linalg.eigvalsh(2.0 * a.T @ a)[-1])
        self.copies = []
        for off in range(8):
            parts = []
            for arr in (a, y, 2.0 * a.T @ a, 2.0 * a.T @ y):
                buf = np.empty(arr.size + off)[off:].reshape(arr.shape)
                buf[...] = arr
                parts.append(buf)
            self.copies.append(parts)
        self.calls = 0

    def run(self) -> float:
        a, y, gram, rhs = self.copies[self.calls % len(self.copies)]
        self.calls += 1
        x = np.zeros(a.shape[1])
        value = 0.0
        for _ in range(64):
            u = x - self.step * (gram @ x - rhs)
            x = np.sign(u) * np.maximum(np.abs(u) - self.step * 0.005, 0.0)
            r = y - a @ x
            value = float(r @ r)
        for k in range(8, 24):
            sub = a[:, :k]
            chol = np.linalg.cholesky(sub.T @ sub)
            value += float(np.linalg.solve(chol, sub.T @ y)[0])
        return value


def scaled(latencies, references) -> np.ndarray:
    """Each latency scaled to reference speed by the median reference time
    of the probes around it."""
    lat = np.asarray(latencies, dtype=np.float64)
    ref = np.asarray(references, dtype=np.float64)
    local = np.array([
        np.median(ref[max(0, i - WINDOW): i + WINDOW + 1]) for i in range(ref.size)
    ])
    return lat * (REFERENCE_S / local)
