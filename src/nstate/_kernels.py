"""Hot numeric kernels: batched fixed-step RK4 propagation and a cyclic Jacobi eigensolver.

RK4 has one implementation, a numpy kernel that steps a batch of ``B`` runs
at once: states of shape ``(B, n)`` with one energy ladder per run, sharing
the coupling matrix, the pulse and the step grid.  Its cost is Python
overhead per step, nearly independent of ``B`` for small ``n``, so batching
the runs of a scan divides its cost by about ``B``.

The Jacobi eigensolver exists twice: a scalar-loop version compiled with
``numba.njit`` and a slice-vectorised numpy fallback.  ``NSTATE_NO_NUMBA=1``
in the environment (or a missing numba) selects the numpy Jacobi core; the
flag does not affect RK4.
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_FLAG = "NSTATE_NO_NUMBA"

NUMBA_ENABLED = os.environ.get(ENV_FLAG, "").strip().lower() not in ("1", "true", "yes")
if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_ENABLED = False

# Pulse shape codes shared with the model module (delta trains never reach
# the integrator; they are handled as exact propagator jumps).
PULSE_CONSTANT = 0
PULSE_COSINE = 1
PULSE_GAUSSIAN = 2


def _pulse_value_scalar(kind, p0, p1, p2, t):
    if kind == PULSE_COSINE:
        return p0 * math.cos(p1 * t)
    if kind == PULSE_GAUSSIAN:
        u = (t - p1) / p2
        return p0 * math.exp(-0.5 * u * u)
    return p0


def _norms(a):
    """Squared norm of each row of a C-contiguous complex array."""
    f = a.view(np.float64)
    return (f * f).sum(axis=1)


def _rk4_batch(w, energies, kind, params, dt, n_steps, stride, a0, out):
    """Classic fourth-order Runge-Kutta for a batch of runs over ``n_steps`` fixed steps.

    Row ``b`` of ``a0`` and ``energies`` is one run of
    ``da/dt = -i (diag(E_b) + V(t) W) a``; every run shares ``W``, the pulse
    and the step grid.  Samples the states into ``out`` (shape ``(S, B, n)``)
    at step 0, every ``stride`` steps, and at the final step.  Returns the
    largest probability-norm drift of each run over all step ends, so the
    caller can reject too-coarse runs.
    """
    w_t = np.ascontiguousarray(np.transpose(w), dtype=np.complex128)
    mie = -1j * np.asarray(energies, dtype=np.float64)
    p0, p1, p2 = params
    a = a0.copy()
    norm0 = _norms(a)
    out[0] = a
    si = 1
    max_drift = np.zeros(a.shape[0])
    half = 0.5 * dt
    sixth = dt / 6.0

    for step in range(n_steps):
        t = step * dt
        v1 = -1j * _pulse_value_scalar(kind, p0, p1, p2, t)
        v2 = -1j * _pulse_value_scalar(kind, p0, p1, p2, t + half)
        v4 = -1j * _pulse_value_scalar(kind, p0, p1, p2, t + dt)
        k1 = mie * a + v1 * (a @ w_t)
        y = a + half * k1
        k2 = mie * y + v2 * (y @ w_t)
        y = a + half * k2
        k3 = mie * y + v2 * (y @ w_t)
        y = a + dt * k3
        k4 = mie * y + v4 * (y @ w_t)
        a = a + sixth * (k1 + 2.0 * (k2 + k3) + k4)

        np.maximum(max_drift, np.abs(norm0 - _norms(a)), out=max_drift)
        if (step + 1) % stride == 0:
            out[si] = a
            si += 1

    if si < out.shape[0]:
        out[si] = a
    return max_drift


def _jacobi_loop(a, v, max_sweeps, tol_off):
    """Cyclic Jacobi sweeps on the symmetric matrix ``a`` (destroyed in place).

    ``v`` accumulates the rotations.  Returns the number of sweeps used, or
    -1 when the off-diagonal norm is still above ``tol_off`` after
    ``max_sweeps`` sweeps.
    """
    n = a.shape[0]
    for sweep in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] * a[p, q]
        if math.sqrt(2.0 * off) <= tol_off:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    aip = a[i, p]
                    aiq = a[i, q]
                    a[i, p] = c * aip - s * aiq
                    a[i, q] = s * aip + c * aiq
                for i in range(n):
                    api = a[p, i]
                    aqi = a[q, i]
                    a[p, i] = c * api - s * aqi
                    a[q, i] = s * api + c * aqi
                for i in range(n):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = c * vip - s * viq
                    v[i, q] = s * vip + c * viq
    off = 0.0
    for p in range(n - 1):
        for q in range(p + 1, n):
            off += a[p, q] * a[p, q]
    if math.sqrt(2.0 * off) <= tol_off:
        return max_sweeps
    return -1


def _jacobi_numpy(a, v, max_sweeps, tol_off):
    """Slice-vectorised twin of :func:`_jacobi_loop`."""
    n = a.shape[0]
    upper = np.triu_indices(n, 1)
    for sweep in range(max_sweeps):
        # summed directly over the strict upper triangle: subtracting the
        # diagonal from the full norm cancels catastrophically near convergence
        off2 = float(np.sum(a[upper] ** 2))
        if math.sqrt(2.0 * off2) <= tol_off:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    off2 = float(np.sum(a[upper] ** 2))
    if math.sqrt(2.0 * off2) <= tol_off:
        return max_sweeps
    return -1


rk4_core = _rk4_batch
if NUMBA_ENABLED:
    _jacobi_loop = njit(cache=True)(_jacobi_loop)
    jacobi_core = _jacobi_loop
else:
    jacobi_core = _jacobi_numpy


def run_rk4(w, energies, kind, params, dt, n_steps, stride, a0):
    """Propagate a batch of runs with the RK4 kernel; return (sample_steps, amplitudes, drift).

    ``a0`` and ``energies`` have shape ``(B, n)``, one row per run.
    ``sample_steps`` are the step indices at which the states were recorded
    (step 0, every ``stride`` steps, and the final step); the amplitudes have
    shape ``(S, B, n)`` and the per-run maximum norm drift shape ``(B,)``.
    """
    sample_steps = np.arange(0, n_steps + 1, stride, dtype=np.int64)
    if sample_steps[-1] != n_steps:
        sample_steps = np.append(sample_steps, n_steps)
    a0 = np.ascontiguousarray(a0, dtype=np.complex128)
    out = np.empty((sample_steps.size, *a0.shape), np.complex128)
    drift = rk4_core(w, energies, kind, params, dt, n_steps, stride, a0, out)
    return sample_steps, out, drift


def jacobi_eigh(matrix, max_sweeps=100, rel_tol=1e-13, core=None):
    """Eigendecompose a real symmetric matrix with cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns).  Eigenvectors
    follow a deterministic sign convention: the first component larger than
    1e-12 in magnitude is made positive.  Exhausting the sweep budget raises
    ``ValueError`` at this level; the spectral module maps that onto its own
    error taxonomy.
    """
    core = jacobi_core if core is None else core
    a = np.array(matrix, dtype=np.float64, order="C", copy=True)
    n = a.shape[0]
    v = np.eye(n, dtype=np.float64)
    fro = math.sqrt(float(np.sum(a * a)))
    sweeps = core(a, v, int(max_sweeps), rel_tol * fro)
    if sweeps < 0:
        raise ValueError("jacobi sweeps exhausted without convergence")
    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    for j in range(n):
        col = vecs[:, j]
        for i in range(n):
            if abs(col[i]) > 1e-12:
                if col[i] < 0.0:
                    vecs[:, j] = -col
                break
    return vals, vecs
