"""Hot numeric kernels: batched fixed-step RK4 propagation and a cyclic Jacobi eigensolver.

Each kernel has one implementation, in numpy.  The RK4 kernel steps a batch
of ``B`` runs at once: states of shape ``(B, n)`` with one energy ladder per
run, sharing the coupling matrix, the pulse envelope and the step grid.  Its
cost is Python overhead per step, nearly independent of ``B`` for small
``n``, so batching the runs of a scan divides its cost by about ``B``.  The
envelope arrives as a scalar callable ``V(t)``; the pulse shapes themselves
live in :mod:`nstate.model`.

The Jacobi eigensolver sweeps rows and columns as numpy slices.
"""

from __future__ import annotations

import math

import numpy as np

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-13


def _norms(a):
    """Squared norm of each row of a C-contiguous complex array."""
    f = a.view(np.float64)
    return (f * f).sum(axis=1)


def _rk4_batch(w, energies, envelope, dt, n_steps, stride, a0, out):
    """Classic fourth-order Runge-Kutta for a batch of runs over ``n_steps`` fixed steps.

    Row ``b`` of ``a0`` and ``energies`` is one run of
    ``da/dt = -i (diag(E_b) + V(t) W) a`` with ``V = envelope``; every run
    shares ``W``, the envelope and the step grid.  Samples the states into
    ``out`` (shape ``(S, B, n)``) at step 0, every ``stride`` steps, and at the
    final step.  Returns the largest probability-norm drift of each run over
    all step ends, so the caller can reject too-coarse runs.
    """
    w_t = np.ascontiguousarray(np.transpose(w), dtype=np.complex128)
    mie = -1j * np.asarray(energies, dtype=np.float64)
    a = a0.copy()
    norm0 = _norms(a)
    out[0] = a
    si = 1
    max_drift = np.zeros(a.shape[0])
    half = 0.5 * dt
    sixth = dt / 6.0

    for step in range(n_steps):
        t = step * dt
        v1 = -1j * envelope(t)
        v2 = -1j * envelope(t + half)
        v4 = -1j * envelope(t + dt)
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


def _jacobi_numpy(a, v, tol_off):
    """Cyclic Jacobi sweeps on the symmetric matrix ``a`` (destroyed in place).

    ``v`` accumulates the rotations.  Returns the number of sweeps used, or
    -1 when the off-diagonal norm is still above ``tol_off`` after
    ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    n = a.shape[0]
    upper = np.triu_indices(n, 1)
    for sweep in range(JACOBI_MAX_SWEEPS):
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
        return JACOBI_MAX_SWEEPS
    return -1


rk4_core = _rk4_batch
jacobi_core = _jacobi_numpy


def run_rk4(w, energies, envelope, dt, n_steps, stride, a0):
    """Propagate a batch of runs with the RK4 kernel; return (sample_steps, amplitudes, drift).

    ``a0`` and ``energies`` have shape ``(B, n)``, one row per run, and
    ``envelope`` is the scalar pulse value ``V(t)``.  ``sample_steps`` are the
    step indices at which the states were recorded (step 0, every ``stride``
    steps, and the final step); the amplitudes have shape ``(S, B, n)`` and
    the per-run maximum norm drift shape ``(B,)``.
    """
    sample_steps = np.arange(0, n_steps + 1, stride, dtype=np.int64)
    if sample_steps[-1] != n_steps:
        sample_steps = np.append(sample_steps, n_steps)
    a0 = np.ascontiguousarray(a0, dtype=np.complex128)
    out = np.empty((sample_steps.size, *a0.shape), np.complex128)
    drift = rk4_core(w, energies, envelope, dt, n_steps, stride, a0, out)
    return sample_steps, out, drift


def jacobi_eigh(matrix):
    """Eigendecompose a real symmetric matrix with cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns).  Sweeps stop
    once the off-diagonal norm is at most ``JACOBI_REL_TOL`` times the
    Frobenius norm.  Eigenvectors follow a deterministic sign convention: the
    first component larger than 1e-12 in magnitude is made positive.
    Exhausting the sweep budget, or a Frobenius norm that overflows, raises
    ``ValueError`` at this level; the spectral module maps that onto its own
    error taxonomy.
    """
    a = np.array(matrix, dtype=np.float64, order="C", copy=True)
    n = a.shape[0]
    v = np.eye(n, dtype=np.float64)
    with np.errstate(over="ignore"):
        fro = math.sqrt(float(np.sum(a * a)))
    if not math.isfinite(fro):
        # an infinite tolerance would return the diagonal unrotated
        raise ValueError("the Frobenius norm of the matrix overflows")
    if jacobi_core(a, v, JACOBI_REL_TOL * fro) < 0:
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
