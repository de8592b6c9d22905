"""Calibration loop that tracks the host's speed.

On a shared host the speed of the same code drifts by tens of percent
within tens of milliseconds.  ``unit`` is a fixed piece of work of the
same kind as qdeficit's: validating small complex Hermitian matrices with
numpy, diagonalizing them with a cyclic Jacobi method written in plain
Python, and taking marginals, frames and entropies.  It never
calls qdeficit, so a change to the program does not move it.
``Sampler`` times one unit every few milliseconds while the benchmark's
calls run; a call's time is scaled by the mean rate of the samples taken
during it, relative to ``REFERENCE_PER_S``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# About the median rate of ``unit`` on a 2-CPU x86-64 VM (Intel Xeon,
# 2.0 GHz).  A fixed constant, so scaled times stay in seconds and rates
# in 1/s.
REFERENCE_PER_S = 2040.0


@dataclass(frozen=True)
class _Spectrum:
    values: np.ndarray
    vectors: np.ndarray


def _fixed_states() -> list[np.ndarray]:
    rng = np.random.default_rng(20020312)
    out = []
    for rank in (2, 4):
        z = rng.standard_normal((rank, 4)) + 1j * rng.standard_normal((rank, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        m = (z.T / rank) @ z.conj()
        out.append(0.5 * (m + m.conj().T))
    return out


_STATES = _fixed_states()


def _jacobi_values(h: np.ndarray, tol: float = 1e-13) -> list[float]:
    n = h.shape[0]
    a = [[complex(h[i, j]) for j in range(n)] for i in range(n)]
    for _ in range(50):
        off = sum(abs(a[i][j]) ** 2 for i in range(n) for j in range(n) if i != j)
        if math.sqrt(off) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                b = abs(apq)
                if b <= tol / (10.0 * n):
                    continue
                phase = apq / b
                tau = (a[q][q].real - a[p][p].real) / (2.0 * b)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sp = t * c * phase
                spc = sp.conjugate()
                for row in a:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - spc * y, sp * x + c * y
                ap, aq = a[p], a[q]
                for j in range(n):
                    x, y = ap[j], aq[j]
                    ap[j], aq[j] = c * x - sp * y, spc * x + c * y
    return sorted((a[i][i].real for i in range(n)), reverse=True)


def unit() -> float:
    """One piece of calibration work (~0.4 ms); returns a checksum so nothing is skipped.

    About 40% of it is the Python eigensolver and the rest small numpy
    calls and a frozen dataclass, close to qdeficit's own mix.
    """
    total = sum(_jacobi_values(_STATES[1]))
    for m in _STATES:
        arr = np.array(m, dtype=complex)
        total += float(np.max(np.abs(arr - arr.conj().T))) + abs(complex(np.trace(arr)) - 1.0)
        marg = np.einsum("ikjk->ij", arr.reshape(2, 2, 2, 2))
        marg = 0.5 * (marg + marg.conj().T)
        frame = np.kron(marg, np.eye(2))
        diag = np.real(np.einsum("ij,ik,kj->j", frame.conj(), arr, frame))
        order = np.argsort(-diag, kind="stable")
        spec = _Spectrum(np.clip(diag[order], 0.0, None), frame[:, order])
        vals = spec.values[spec.values > 1e-12]
        total -= float(np.sum(vals * np.log(vals)))
        total += float(np.max(np.abs((spec.vectors * spec.values) @ spec.vectors.conj().T - arr)))
    return total + sum(_jacobi_values(marg))


def rate(units: int = 5) -> float:
    """Calibration units per second, from one sample of ``units`` units (~2 ms)."""
    t0 = time.perf_counter()
    for _ in range(units):
        unit()
    return units / (time.perf_counter() - t0)


class Sampler:
    """Calibration samples taken from a SIGALRM handler every ``interval`` seconds.

    Python runs the handler in the main thread between bytecodes, so the
    samples fall inside the timed calls and measure the host's speed
    while they run; the run stays on one thread.  Use as a context
    manager around the timed phase.
    """

    def __init__(self, interval: float = 0.006):
        self.interval = interval
        self.rates: list[float] = []
        self.spent = 0.0  # seconds spent in samples, to take out of call times
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            unit()
            dt = time.perf_counter() - t0
            self.rates.append(1.0 / dt)
            self.spent += dt
        finally:
            self._busy = False

    def mark(self) -> tuple[int, float]:
        return len(self.rates), self.spent

    def scale(self, since: tuple[int, float], wall: float) -> tuple[float, float]:
        """(own seconds, reference seconds) of a call that started at ``since`` and took ``wall``.

        Own seconds leave out the samples taken during the call.  A call
        too short to hold a sample uses the latest one.
        """
        first, spent = since
        own = wall - (self.spent - spent)
        inside = self.rates[first:] or self.rates[-1:]
        return own, own * statistics.fmean(inside) / REFERENCE_PER_S

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
