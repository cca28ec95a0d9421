"""The batched RK4 kernel against single runs, and the Jacobi eigensolver against LAPACK."""

import numpy as np
import pytest

from nstate import ConstantPulse, CosinePulse, GaussianPulse, pulse_value
from nstate._kernels import jacobi_eigh, run_rk4


def random_system(rng, n=5, batch=1):
    w = rng.normal(size=(n, n))
    w = w + w.T
    energies = rng.normal(size=(batch, n)) * 0.1
    a0 = np.zeros((batch, n), np.complex128)
    a0[:, 0] = 1.0
    return w, energies, a0


class TestRk4Paths:
    def test_batch_matches_single_runs(self):
        rng = np.random.default_rng(77)
        w, energies, a0 = random_system(rng, batch=5)
        grid = (CosinePulse(chi=1.0, omega=0.8).value, 1e-3, 2000, 100)
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
        steps, amps, _ = run_rk4(w, energies, ConstantPulse(0.5).value, 0.01, 25, 10, a0)
        assert steps.tolist() == [0, 10, 20, 25]
        assert amps.shape == (4, 1, 3)
        assert np.array_equal(amps[0], a0)

    def test_norm_drift_reported(self):
        rng = np.random.default_rng(5)
        w, energies, a0 = random_system(rng, n=2)
        value = ConstantPulse(1.0).value
        _, _, drift_small = run_rk4(w, energies, value, 1e-4, 1000, 1000, a0)
        _, _, drift_big = run_rk4(w, energies, value, 0.5, 10, 10, a0)
        assert drift_small[0] < 1e-12
        assert drift_big[0] > drift_small[0]

    @pytest.mark.parametrize(
        "pulse",
        [
            CosinePulse(chi=1.3, omega=0.8),
            ConstantPulse(v0=-0.7),
            GaussianPulse(peak=2.0, center=1.5, width=0.4),
        ],
        ids=["cosine", "constant", "gaussian"],
    )
    def test_scalar_value_matches_pulse_value(self, pulse):
        # the kernel samples V(t) through the scalar method, the exact route through
        # pulse_value; libm and numpy's vector exp may differ in the last bit
        grid = np.linspace(-1.0, 6.0, 701)
        scalar = [pulse.value(float(t)) for t in grid]
        np.testing.assert_allclose(scalar, pulse_value(pulse, grid), rtol=1e-15, atol=0.0)


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
