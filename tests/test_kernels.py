"""The batched RK4 kernel against single runs, and the two Jacobi eigensolver paths."""

import os
import subprocess
import sys

import numpy as np

from nstate import _kernels
from nstate._kernels import (
    PULSE_COSINE,
    _jacobi_numpy,
    jacobi_eigh,
    run_rk4,
)


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
        grid = (PULSE_COSINE, (1.0, 0.8, 0.0), 1e-3, 2000, 100)
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
        steps, amps, _ = run_rk4(w, energies, 0, (0.5, 0.0, 0.0), 0.01, 25, 10, a0)
        assert steps.tolist() == [0, 10, 20, 25]
        assert amps.shape == (4, 1, 3)
        assert np.array_equal(amps[0], a0)

    def test_norm_drift_reported(self):
        rng = np.random.default_rng(5)
        w, energies, a0 = random_system(rng, n=2)
        _, _, drift_small = run_rk4(w, energies, 0, (1.0, 0.0, 0.0), 1e-4, 1000, 1000, a0)
        _, _, drift_big = run_rk4(w, energies, 0, (1.0, 0.0, 0.0), 0.5, 10, 10, a0)
        assert drift_small[0] < 1e-12
        assert drift_big[0] > drift_small[0]


class TestJacobiPaths:
    def test_paths_agree_and_match_lapack(self):
        rng = np.random.default_rng(99)
        for n in (2, 5, 12, 40):
            m = rng.normal(size=(n, n))
            m = m + m.T
            vals_a, vecs_a = jacobi_eigh(m)
            vals_b, vecs_b = jacobi_eigh(m, core=_jacobi_numpy)
            ref = np.linalg.eigvalsh(m)
            assert np.max(np.abs(vals_a - ref)) <= 1e-11
            assert np.max(np.abs(vals_b - ref)) <= 1e-11
            for vals, vecs in ((vals_a, vecs_a), (vals_b, vecs_b)):
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


class TestEnvFlag:
    def test_flag_disables_numba(self):
        code = "import nstate; print(nstate.NUMBA_ENABLED)"
        env = dict(os.environ, NSTATE_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_default_state_reported(self):
        # one RK4 kernel; the flag decides only which Jacobi core is bound
        assert _kernels.rk4_core is _kernels._rk4_batch
        if _kernels.NUMBA_ENABLED:
            assert _kernels.jacobi_core is _kernels._jacobi_loop
        else:
            assert _kernels.jacobi_core is _kernels._jacobi_numpy
