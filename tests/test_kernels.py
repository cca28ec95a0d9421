"""The batched RK4 kernel against a textbook RK4 loop, and the Jacobi eigensolver against LAPACK."""

import functools
import sys

import numpy as np
import pytest

from nstate import (
    ConstantPulse,
    CosinePulse,
    IntegratorConfig,
    design_spec,
    integrate,
    integrate_many,
    pulse_value,
)
from nstate import _kernels
from nstate._kernels import CHUNK, jacobi_eigh, run_rk4


def random_system(rng, n=5, batch=1):
    w = rng.normal(size=(n, n))
    w = w + w.T
    energies = rng.normal(size=(batch, n)) * 0.1
    a0 = np.zeros((batch, n), np.complex128)
    a0[:, 0] = 1.0
    return w, energies, a0


def envelope(pulse):
    return functools.partial(pulse_value, pulse)


def textbook_rk4(w, energies, pulse, dt, n_steps, stride, a0):
    """Classic RK4 one run and one step at a time; (sample_steps, amplitudes, drift) as run_rk4."""
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    amps = np.empty((len(steps), *a0.shape), np.complex128)
    drift = np.zeros(a0.shape[0])
    for b, (e, y) in enumerate(zip(energies, a0)):

        def f(t, y):
            return -1j * (e * y + pulse_value(pulse, t) * (w @ y))

        norm0 = np.vdot(y, y).real
        amps[0, b] = y
        for step in range(1, n_steps + 1):
            t = (step - 1) * dt
            k1 = f(t, y)
            k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = f(t + dt, y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            drift[b] = max(drift[b], abs(np.vdot(y, y).real - norm0))
            if step in steps:
                amps[steps.index(step), b] = y
    return np.array(steps), amps, drift


def degenerate_batch(rng, n=5):
    # three runs from different states; the middle one has a nonzero uniform energy
    w, _, _ = random_system(rng, n)
    energies = np.zeros((3, n))
    energies[1] = 0.7
    a0 = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    return w, energies, a0 / np.linalg.norm(a0, axis=1, keepdims=True)


def split_batch(rng, n=5):
    return random_system(rng, n, batch=3)


class TestRk4Paths:
    @pytest.mark.parametrize("batch", [degenerate_batch, split_batch], ids=["quartic", "nested"])
    @pytest.mark.parametrize("n_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("stride", [1, 7, 10**6])
    def test_matches_textbook_loop(self, batch, n_steps, stride):
        w, energies, a0 = batch(np.random.default_rng(n_steps))
        grid = (CosinePulse(chi=1.3, omega=0.8), 0.01, n_steps, stride)
        steps, amps, drift = run_rk4(w, energies, envelope(grid[0]), *grid[1:], a0)
        ref_steps, ref_amps, ref_drift = textbook_rk4(w, energies, *grid, a0)
        assert np.array_equal(steps, ref_steps)
        assert np.max(np.abs(amps - ref_amps)) <= 1e-13
        assert np.max(np.abs(drift - ref_drift)) <= 1e-13

    @pytest.mark.parametrize("split", [0.0, 1e-9], ids=["quartic", "nested"])
    def test_drift_is_the_largest_at_any_step_end(self, split, monkeypatch):
        # the step form follows the energies alone: any split at all takes the nested one
        built = []
        for name in ("_QuarticSteps", "_NestedSteps"):
            form = getattr(_kernels, name)
            monkeypatch.setattr(_kernels, name, lambda *a, f=form: built.append(f) or f(*a))
        # at dt = 1 a step shrinks the W = 1 mode and grows the W = 2.9 one, so the
        # norm dips and climbs back: after 50 steps it is near its start again
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        w = q @ np.diag([1.0, 2.9]) @ q.T
        energies = np.array([[0.0, split]])
        a0 = (q @ np.array([1.0, 1e-4])).astype(np.complex128)[None]
        grid = (ConstantPulse(1.0), 1.0, 50, 50)
        _, amps, drift = run_rk4(w, energies, envelope(grid[0]), *grid[1:], a0)
        _, _, ref_drift = textbook_rk4(w, energies, *grid, a0)
        final_drift = abs(np.vdot(amps[-1, 0], amps[-1, 0]).real - 1.0)
        assert ref_drift[0] > 10.0 * final_drift
        assert abs(drift[0] - ref_drift[0]) <= 1e-13
        assert [f.__name__ for f in built] == ["_NestedSteps" if split else "_QuarticSteps"]

    def test_batch_matches_single_runs(self):
        rng = np.random.default_rng(77)
        w, energies, a0 = random_system(rng, batch=5)
        grid = (envelope(CosinePulse(chi=1.0, omega=0.8)), 1e-3, 2000, 100)
        steps, amps, drift = run_rk4(w, energies, *grid, a0)
        assert amps.shape == (steps.size, 5, 5) and drift.shape == (5,)
        for b in range(5):
            steps_b, amps_b, drift_b = run_rk4(w, energies[b : b + 1], *grid, a0[b : b + 1])
            assert np.array_equal(steps, steps_b)
            assert np.max(np.abs(amps[:, b] - amps_b[:, 0])) <= 1e-14
            assert abs(drift[b] - drift_b[0]) <= 1e-14

    def test_sampling_layout(self):
        rng = np.random.default_rng(1)
        w, energies, a0 = random_system(rng, n=3)
        steps, amps, _ = run_rk4(w, energies, envelope(ConstantPulse(0.5)), 0.01, 25, 10, a0)
        assert steps.tolist() == [0, 10, 20, 25]
        assert amps.shape == (4, 1, 3)
        assert np.array_equal(amps[0], a0)

    def test_norm_drift_reported(self):
        rng = np.random.default_rng(5)
        w, energies, a0 = random_system(rng, n=2)
        value = envelope(ConstantPulse(1.0))
        _, _, drift_small = run_rk4(w, energies, value, 1e-4, 1000, 1000, a0)
        _, _, drift_big = run_rk4(w, energies, value, 0.5, 10, 10, a0)
        assert drift_small[0] < 1e-12
        assert drift_big[0] > drift_small[0]

    def test_degenerate_runs_never_touch_the_spectral_route(self, monkeypatch):
        # the RK4 route cross-checks the closed forms only while it shares none of them
        for module in [m for name, m in sys.modules.items() if name.startswith("nstate")]:
            for name in ("eigen_decompose", "launch_sector", "evolve_analytic", "propagator"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("spectral"))
        spec = design_spec(6)
        cfg = IntegratorConfig(t_end=2.0, dt=0.01, sample_stride=3)
        traj = integrate(spec, CosinePulse(chi=1.0, omega=0.5), cfg)
        assert abs(traj.populations[-1].sum() - 1.0) <= 1e-8
        integrate_many([spec, spec], ConstantPulse(0.4), cfg)


class TestJacobiPaths:
    def test_matches_lapack(self):
        rng = np.random.default_rng(99)
        for n in (2, 5, 12, 40):
            m = rng.normal(size=(n, n))
            m = m + m.T
            vals, vecs = jacobi_eigh(m)
            ref = np.linalg.eigvalsh(m)
            assert np.max(np.abs(vals - ref)) <= 1e-11
            assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-10 * max(1, np.abs(ref).max())

    def test_input_not_mutated(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(6, 6))
        m = m + m.T
        copy = m.copy()
        jacobi_eigh(m)
        assert np.array_equal(m, copy)

    def test_sign_convention(self):
        m = np.diag([2.0, 1.0, 3.0])
        vals, vecs = jacobi_eigh(m)
        assert vals.tolist() == [1.0, 2.0, 3.0]
        for j in range(3):
            col = vecs[:, j]
            assert col[np.abs(col) > 1e-12][0] > 0
