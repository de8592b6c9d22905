"""The benchmark's workloads: seeded inputs, the timed call into qdeficit,
and correctness checks computed apart from the program.

Each workload runs in rounds of ``calls`` calls, each call processing
``per_call`` states.  Round ``r`` of a run with seed ``s`` draws its
inputs from ``numpy.random.default_rng((s, r))``, so no two rounds share
an input and the same seed gives the same inputs.  ``call`` is the only
part that is timed, and ``check`` compares one call's outputs with closed
forms, a numpy oracle or expected counts.  The calls look functions up
on the qdeficit modules at call time, so the traced run sees the
wrappers it installs there.
"""

from __future__ import annotations

import math
import re

import numpy as np

LN2 = math.log(2.0)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
YY = np.kron(SIGMA_Y, SIGMA_Y)


class CheckResult:
    """Outcome of checking one call: states that failed, and why."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.raised = 0  # states whose call raised
        self.wrong = 0  # states whose output failed a check
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def mismatch(self, what: str) -> None:
        self.wrong += 1
        if len(self.notes) < 5:
            self.notes.append(what)


class Workload:
    """Seeded rounds of ``calls`` calls of ``per_call`` states each."""

    name: str
    per_call: int
    calls: int

    def __init__(self, seed: int, calls: int | None = None):
        self.seed = seed
        self.calls = calls or self.calls


def _entropy(probs) -> float:
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


class WernerSweep(Workload):
    """``cli.werner_sweep_rows`` over a grid of p in [0, 1) with step 1/1000.

    A round covers the whole grid as ``calls`` sweeps of ``per_call``
    adjacent rows.  The grid start is drawn in [0.1, 0.9) of a step, so
    every round has the same number of rows and no two rounds share a p.
    Werner marginals are exactly I/2, so every row takes the
    computational-basis fallback of the marginal frame.
    """

    name = "werner-sweep"
    per_call = 50
    calls = 20
    step = 1e-3

    def inputs(self, r: int) -> list[tuple[float, float]]:
        rng = np.random.default_rng((self.seed, r))
        start = (0.1 + 0.8 * float(rng.random())) * self.step
        out = []
        for k in range(self.calls):
            pmin = start + k * self.per_call * self.step
            out.append((pmin, pmin + (self.per_call - 1) * self.step))
        return out

    def call(self, qd, bounds: tuple[float, float]):
        return qd.cli.werner_sweep_rows(bounds[0], bounds[1], self.step)

    def check(self, bounds: tuple[float, float], rows, tol: float = 1e-9) -> CheckResult:
        res = CheckResult(self.per_call)
        if len(rows) != self.per_call:
            res.wrong = self.per_call
            res.notes.append(f"{len(rows)} rows, expected {self.per_call}")
            return res
        for k, row in enumerate(rows):
            p = bounds[0] + k * self.step
            big, small = (1.0 + 3.0 * p) / 4.0, (1.0 - p) / 4.0
            s = -_xlogx(big) - 3.0 * _xlogx(small)
            s_d = -2.0 * _xlogx((1.0 + p) / 4.0) - 2.0 * _xlogx((1.0 - p) / 4.0)
            want = (
                p,
                max(0.0, (3.0 * p - 1.0) / 2.0),
                (2.0 * LN2 - s) / LN2,
                (s_d - s) / LN2,
                s - LN2,
                (1.0 - 3.0 * p) / 4.0,
            )
            err = max(abs(float(g) - w) for g, w in zip(row, want))
            if not err <= tol:
                res.mismatch(f"p={p:.6f}: worst column error {err:.3e}")
        return res


def random_state(rng: np.random.Generator, rank: int, min_gap: float = 1e-3) -> np.ndarray:
    """Mix of ``rank`` Haar-random pure states with flat-simplex weights.

    Redrawn until both marginal spectra have a gap of at least ``min_gap``,
    so the marginal eigenframe is unique and no degeneracy rule applies.
    """
    while True:
        z = rng.standard_normal((rank, 4)) + 1j * rng.standard_normal((rank, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        w = rng.exponential(size=rank)
        w /= w.sum()
        m = (z.T * w) @ z.conj()
        m = 0.5 * (m + m.conj().T)
        m /= np.trace(m).real
        r = m.reshape(2, 2, 2, 2)
        gaps = [np.ptp(np.linalg.eigvalsh(np.trace(r, axis1=a, axis2=a + 2))) for a in (0, 1)]
        if min(gaps) >= min_gap:
            return m


def oracle(m: np.ndarray) -> dict[str, float]:
    """Every classify figure from numpy alone, by the textbook routes."""
    r = m.reshape(2, 2, 2, 2)
    rho_a = np.trace(r, axis1=1, axis2=3)
    rho_b = np.trace(r, axis1=0, axis2=2)
    s = _entropy(np.linalg.eigvalsh(m))
    s_a = _entropy(np.linalg.eigvalsh(rho_a))
    s_b = _entropy(np.linalg.eigvalsh(rho_b))
    ppt = float(np.linalg.eigvalsh(r.transpose(0, 3, 2, 1).reshape(4, 4))[0])
    flipped = YY @ m.conj() @ YY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m @ flipped).real, 0.0, None)))[::-1]
    conc = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    frame = np.kron(np.linalg.eigh(rho_a)[1], np.linalg.eigh(rho_b)[1])
    s_d = _entropy(np.real(np.einsum("ij,ik,kj->j", frame.conj(), m, frame)))
    return {
        "concurrence": conc,
        "entropy_diff_a": s - s_a,
        "entropy_diff_b": s - s_b,
        "mutual": s_a + s_b - s,
        "deficit": s_d - s,
        "ppt_min_eig": ppt,
        "gap_identity": s_d - s_a - s_b,
    }


# Concurrence is compared more loosely: the oracle's square roots of the
# round-off eigenvalues of rho * rho_tilde on rank-deficient states are
# ~1e-8 apiece.
CLASSIFY_TOLS = {
    "concurrence": 1e-6,
    "entropy_diff_a": 1e-9,
    "entropy_diff_b": 1e-9,
    "mutual": 1e-9,
    "deficit": 1e-9,
    "ppt_min_eig": 1e-9,
}


class ClassifyStream(Workload):
    """One state at a time through ``DensityMatrix(...)`` and ``structure.classify``.

    Each call classifies ``per_call`` states, one after the other.  State
    ``j`` of a call has rank ``1 + j % 4``; marginals are generic (see
    ``random_state``).
    """

    name = "classify-stream"
    per_call = 8
    calls = 32

    def inputs(self, r: int) -> list[list[np.ndarray]]:
        rng = np.random.default_rng((self.seed, r))
        return [[random_state(rng, 1 + j % 4) for j in range(self.per_call)] for _ in range(self.calls)]

    def call(self, qd, mats):
        out = []
        for m in mats:
            try:
                out.append(qd.structure.classify(qd.linalg.DensityMatrix(m)))
            except Exception as exc:  # noqa: BLE001 - a failing state is counted, not fatal
                out.append(exc)
        return out

    def check(self, mats, reports, tol: float = 1e-9) -> CheckResult:
        res = CheckResult(self.per_call)
        for j, (m, rep) in enumerate(zip(mats, reports)):
            if isinstance(rep, Exception):
                res.raised += 1
                if len(res.notes) < 5:
                    res.notes.append(f"state {j}: {type(rep).__name__}: {rep}")
                continue
            want = oracle(m)
            bad = [k for k, t in CLASSIFY_TOLS.items() if not abs(getattr(rep, k) - want[k]) <= t]
            if not -tol <= rep.deficit <= rep.mutual + tol:
                bad.append("0 <= D <= I")
            if not abs((rep.deficit - rep.mutual) - want["gap_identity"]) <= tol:
                bad.append("D - I = S_d - S_A - S_B")
            if bad:
                res.mismatch(f"state {j}: {', '.join(bad)}")
        return res


AUDIT_GENERAL = 18  # properties checked on every state
AUDIT_PURE = 5  # pure-* properties: index 0 and index % 3 == 1
AUDIT_PRODUCT = 2  # product-* properties: index 0 and index % 3 == 2
_AUDIT_FAILURE = re.compile(r"state (\d+) ")


def audit_expected_counts(n: int) -> tuple[int, int, int]:
    """Checked counts of (general, pure, product) properties for n states."""
    pure = 1 + sum(1 for i in range(1, n) if i % 3 == 1)
    product = 1 + sum(1 for i in range(1, n) if i % 3 == 2)
    return n, pure, product


class Audit(Workload):
    """``cli.run_audit(15, audit_seed, jobs=1)``: the 25 randomized invariants.

    The audit seeds of round ``r`` are drawn from ``(seed, r)``.  The audit
    builds its states by index; 15 indices give the fixed product state,
    5 Haar-pure states, 5 mixed product states and mixed states of rank
    1, 2, 3 and 4.
    """

    name = "audit"
    per_call = 15
    calls = 8

    def inputs(self, r: int) -> list[int]:
        return [int(x) for x in np.random.default_rng((self.seed, r)).integers(0, 2**31, size=self.calls)]

    def call(self, qd, audit_seed: int):
        return qd.cli.run_audit(self.per_call, audit_seed, jobs=1)

    def check(self, audit_seed: int, result) -> CheckResult:
        res = CheckResult(self.per_call)
        counts, failures = result
        n_general, n_pure, n_product = audit_expected_counts(self.per_call)
        expected = [n_general] * AUDIT_GENERAL + [n_pure] * AUDIT_PURE + [n_product] * AUDIT_PRODUCT
        checked = [c[0] for c in counts.values()]
        if checked != expected:
            res.wrong = self.per_call
            res.notes.append(f"checked counts {checked} != expected {expected}")
            return res
        bad_states = {int(m.group(1)) for line in failures if (m := _AUDIT_FAILURE.match(line))}
        if failures and not bad_states:
            bad_states = set(range(self.per_call))
        for idx in sorted(bad_states):
            res.mismatch(f"audit seed {audit_seed} state {idx} violated an invariant")
        return res


WORKLOADS = {cls.name: cls for cls in (WernerSweep, ClassifyStream, Audit)}
