"""Hot numeric kernels: batched fixed-step RK4 propagation and a cyclic Jacobi eigensolver.

Each kernel has one implementation, in numpy.  The RK4 kernel steps a batch
of ``B`` runs at once: states of shape ``(B, n)`` with one energy ladder per
run, sharing the coupling matrix, the pulse envelope and the step grid.  Its
cost is Python overhead per step, nearly independent of ``B`` for small
``n``, so batching the runs of a scan divides its cost by about ``B``.  The
envelope arrives as a vector callable ``V(t)`` evaluated for a whole chunk of
steps at once; the pulse shapes themselves live in :mod:`nstate.model`.

A step takes one of two forms, selected from the energies alone.  When every
run's levels share one energy, ``H(t) = e + V(t) W`` commutes with itself and
one RK4 step is a quartic polynomial in ``W`` (:class:`_QuarticSteps`: one
matrix product against ``[W^T, W^T^2, W^T^3, W^T^4]`` and one small
contraction per step).  Otherwise the four nested stages of classic RK4 are
taken in turn (:class:`_NestedSteps`).  Both forms agree with a textbook RK4
loop to rounding.

The Jacobi eigensolver sweeps rows and columns as numpy slices.
"""

from __future__ import annotations

import math

import numpy as np

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-13
# RK4 steps per envelope evaluation, drift check and sample copy; the scratch
# buffers hold CHUNK states per run, whatever the step count
CHUNK = 256


def _norms(a):
    """Squared norm of each row of a C-contiguous complex array."""
    f = a.view(np.float64)
    return (f * f).sum(axis=1)


def _quartic_increments(energy, v1, v2, v4, dt):
    """Coefficients ``d_0..d_4`` of one RK4 step of ``y' = -i (e + V(t) x) y``, shape ``(m, B, 5)``.

    The step maps ``y`` to ``y + sum_m d_m x^m y``.  ``energy`` holds the
    uniform energy ``e`` of each of the ``B`` runs; ``v1``, ``v2`` and ``v4``
    hold ``V`` at the start, the middle and the end of each of the ``m`` steps.
    """
    e = (-1j * energy)[None, :, None]
    shape = (v1.size, energy.size, 5)

    def rate(p, v):  # p times -i (e + v x), as polynomials in x
        out = e * p
        out[..., 1:] += (-1j * v)[:, None, None] * p[..., :-1]
        return out

    one = np.zeros(shape, np.complex128)
    one[..., 0] = 1.0
    k1 = rate(one, v1)
    k2 = rate(one + (0.5 * dt) * k1, v2)
    k3 = rate(one + (0.5 * dt) * k2, v2)
    k4 = rate(one + dt * k3, v4)
    return (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


class _QuarticSteps:
    """Steps for a batch of degenerate runs: each RK4 step is one quartic polynomial in ``W``.

    The state is kept in a real layout, ``x[b, 0|1, 0]`` = real|imaginary part
    of run ``b``, with ``x[b, :, m]`` = ``W^m`` applied to it for ``m = 1..4``.
    A step is one GEMM against ``[W^T, W^T^2, W^T^3, W^T^4]``, one contraction
    of the five terms with the step's coefficients, and the addition of that
    increment to the state.
    """

    def __init__(self, w, energy, dt, a0, chunk):
        batch, n = a0.shape
        w_t = np.array(np.transpose(w), dtype=np.float64)
        powers = [w_t]
        for _ in range(3):
            powers.append(powers[-1] @ w_t)
        self.powers = np.hstack(powers)
        self.energy = energy
        self.dt = dt
        self.x = np.zeros((batch, 2, 5, n))
        self.x[:, 0, 0] = a0.real
        self.x[:, 1, 0] = a0.imag
        self.ends = np.empty((chunk, batch, 2, n))

    def advance(self, v1, v2, v4):
        d = _quartic_increments(self.energy, v1, v2, v4, self.dt)
        # (re, im) of the increment from the (re, im) rows of x: a 2x10 matrix per run and step
        coef = np.empty((*d.shape[:2], 2, 2, 5))
        coef[:, :, 0, 0] = coef[:, :, 1, 1] = d.real
        coef[:, :, 1, 0] = d.imag
        coef[:, :, 0, 1] = -d.imag
        coef = coef.reshape(*d.shape[:2], 2, 10)
        batch, _, _, n = self.x.shape
        a = self.x[:, :, 0]
        powers_a = self.x[:, :, 1:].reshape(batch, 2, 4 * n)
        terms = self.x.reshape(batch, 10, n)
        inc = np.empty((batch, 2, n))
        ends, powers, matmul, add = self.ends, self.powers, np.matmul, np.add
        for k in range(v1.size):
            matmul(a, powers, out=powers_a)
            matmul(coef[k], terms, out=inc)
            add(a, inc, out=ends[k])
            a[...] = ends[k]
        return ends.reshape(*ends.shape[:2], -1)[: v1.size]

    def states(self, rows):
        return self.ends[rows, :, 0] + 1j * self.ends[rows, :, 1]


class _NestedSteps:
    """Steps for a batch with split levels: the four stages of classic RK4 in turn."""

    def __init__(self, w, energies, dt, a0, chunk):
        self.w_t = np.ascontiguousarray(np.transpose(w), dtype=np.complex128)
        self.mie = -1j * energies
        self.dt = dt
        self.a = a0
        self.ends = np.empty((chunk, *a0.shape), np.complex128)

    def advance(self, v1, v2, v4):
        w_t, mie, a, ends = self.w_t, self.mie, self.a, self.ends
        half = 0.5 * self.dt
        sixth = self.dt / 6.0
        drives = zip((-1j * v1).tolist(), (-1j * v2).tolist(), (-1j * v4).tolist())
        for k, (c1, c2, c4) in enumerate(drives):
            k1 = mie * a + c1 * (a @ w_t)
            y = a + half * k1
            k2 = mie * y + c2 * (y @ w_t)
            y = a + half * k2
            k3 = mie * y + c2 * (y @ w_t)
            y = a + self.dt * k3
            k4 = mie * y + c4 * (y @ w_t)
            a = np.add(a, sixth * (k1 + 2.0 * (k2 + k3) + k4), out=ends[k])
        self.a = a
        return ends.view(np.float64)[: v1.size]

    def states(self, rows):
        return self.ends[rows]


def _rk4_batch(w, energies, envelope, dt, n_steps, sample_steps, a0, out):
    """Classic fourth-order Runge-Kutta for a batch of runs over ``n_steps`` fixed steps.

    Row ``b`` of ``a0`` and ``energies`` is one run of
    ``da/dt = -i (diag(E_b) + V(t) W) a`` with ``V = envelope``; every run
    shares ``W``, the envelope and the step grid.  When every run's levels
    share one energy, H(t) commutes with itself and each step is taken as one
    quartic polynomial in ``W`` (:class:`_QuarticSteps`); otherwise as the
    four nested stages (:class:`_NestedSteps`).  Steps go in chunks of at most
    ``CHUNK``: the envelope is evaluated for a whole chunk at once and the
    norm drift checked at every step end of it.  Samples the states into
    ``out`` (shape ``(S, B, n)``) at the ascending step indices
    ``sample_steps``, the first of which is step 0.  Returns the largest
    probability-norm drift of each run over all step ends, so the caller can
    reject too-coarse runs.
    """
    energies = np.asarray(energies, dtype=np.float64)
    chunk = max(1, min(CHUNK, n_steps))
    norm0 = _norms(a0)
    out[0] = a0
    max_drift = np.zeros(a0.shape[0])
    # an overflowing drive turns the states inf or NaN; the drift reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(energies == energies[:, :1]):
            stepper = _QuarticSteps(w, energies[:, 0], dt, a0, chunk)
        else:
            stepper = _NestedSteps(w, energies, dt, a0, chunk)
        for first in range(0, n_steps, chunk):
            t = np.arange(first, min(first + chunk, n_steps)) * dt
            ends = stepper.advance(envelope(t), envelope(t + 0.5 * dt), envelope(t + dt))
            drift = np.abs(norm0 - (ends * ends).sum(axis=-1)).max(axis=0)
            np.maximum(max_drift, drift, out=max_drift)
            lo, hi = np.searchsorted(sample_steps, (first + 1, first + t.size + 1))
            out[lo:hi] = stepper.states(sample_steps[lo:hi] - (first + 1))
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
    ``envelope`` maps an array of times to the pulse values ``V(t)`` (for
    example ``functools.partial(pulse_value, pulse)``).  The step form follows
    from ``energies``: quartic in ``W`` when every row is uniform, nested
    otherwise.  ``sample_steps`` are the
    step indices at which the states were recorded (step 0, every ``stride``
    steps, and the final step); the amplitudes have shape ``(S, B, n)`` and
    the per-run maximum norm drift shape ``(B,)``.
    """
    sample_steps = np.arange(0, n_steps + 1, stride, dtype=np.int64)
    if sample_steps[-1] != n_steps:
        sample_steps = np.append(sample_steps, n_steps)
    a0 = np.ascontiguousarray(a0, dtype=np.complex128)
    out = np.empty((sample_steps.size, *a0.shape), np.complex128)
    drift = rk4_core(w, energies, envelope, dt, n_steps, sample_steps, a0, out)
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
