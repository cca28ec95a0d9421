"""Spectral engine: eigensolve, propagator, sector closed forms, transfer designs."""

import math

import numpy as np
import pytest

from nstate import (
    ConstantPulse,
    CosinePulse,
    StructuredCoupling,
    SystemSpec,
    build_coupling,
    design_spec,
    design_transfer,
    design_transfer_2state,
    eigen_decompose,
    evolve_analytic,
    initial_state,
    invert_area,
    populations_exact,
    populations_universal,
    propagator,
    reduced_system,
)
from nstate.errors import EvenN0Error, NotDegenerateError, NTooSmallError


def charpoly_roots(w):
    """Independent eigenvalue oracle: real roots of the characteristic polynomial."""
    return np.sort(np.roots(np.poly(w)).real)


def w3():
    return build_coupling(SystemSpec(n=3, coupling=StructuredCoupling(alpha=0.0)))


def w4_design():
    return build_coupling(SystemSpec(n=4, coupling=StructuredCoupling(alpha=-1.0 / 3.0)))


class TestEigenDecompose:
    def test_three_state_spectrum(self):
        # characteristic polynomial is z^3 - 2 z, so z in {-sqrt2, 0, sqrt2}
        es = eigen_decompose(w3())
        assert np.allclose(es.values, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)

    def test_zero_matrix(self):
        es = eigen_decompose(np.zeros((2, 2)))
        assert np.array_equal(es.values, [0.0, 0.0])
        assert np.array_equal(es.vectors, np.eye(2))

    def test_four_state_design_spectrum(self):
        w = w4_design()
        es = eigen_decompose(w)
        # closed form: {1/3 - 2 sqrt(10)/3, -1, 1/3, 1/3 + 2 sqrt(10)/3};
        # the -1 comes from the antisymmetric pair of the upper manifold
        closed = np.sort(
            [
                1.0 / 3.0 - 2.0 * math.sqrt(10) / 3.0,
                -1.0,
                1.0 / 3.0,
                1.0 / 3.0 + 2.0 * math.sqrt(10) / 3.0,
            ]
        )
        assert np.allclose(es.values, closed, atol=1e-12)
        assert np.allclose(es.values, charpoly_roots(w), atol=1e-10)

    def test_matches_lapack_oracle_random(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 8, 20):
            m = rng.normal(size=(n, n))
            m = m + m.T
            es = eigen_decompose(m)
            assert np.allclose(es.values, np.linalg.eigvalsh(m), atol=1e-11)
            residual = m @ es.vectors - es.vectors * es.values
            norm = np.linalg.norm(m, 2)
            assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, norm)
            assert np.max(np.abs(es.vectors.T @ es.vectors - np.eye(n))) <= 1e-10

    def test_deterministic_ordering_and_signs(self):
        m = w4_design()
        es1 = eigen_decompose(m)
        es2 = eigen_decompose(m)
        assert np.array_equal(es1.values, es2.values)
        assert np.array_equal(es1.vectors, es2.vectors)
        for j in range(4):
            col = es1.vectors[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigen_decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestPropagator:
    def test_identity_at_zero_area(self):
        es = eigen_decompose(w4_design())
        assert np.allclose(propagator(es, 0.0), np.eye(4), atol=1e-12)

    def test_two_state_complete_transfer(self):
        es = eigen_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        u = propagator(es, math.pi / 2.0)
        assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_four_state_design_transfer(self):
        design = design_transfer(4, 1)
        es = eigen_decompose(w4_design())
        u = propagator(es, design.area)
        assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_unitarity_and_group_law(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 9):
            m = rng.normal(size=(n, n))
            es = eigen_decompose(m + m.T)
            a1, a2 = rng.uniform(-5, 5, size=2)
            u1, u2 = propagator(es, a1), propagator(es, a2)
            assert np.max(np.abs(u1 @ u1.conj().T - np.eye(n))) <= 1e-10
            assert np.max(np.abs(u1 @ u2 - propagator(es, a1 + a2))) <= 1e-10


class TestReducedSystem:
    def test_three_state_roots(self):
        rs = reduced_system(3, 0.0)
        assert rs.y_plus == pytest.approx(math.sqrt(2), abs=1e-14)
        assert rs.y_minus == pytest.approx(-math.sqrt(2), abs=1e-14)
        assert np.allclose(rs.z, [math.sqrt(2), -math.sqrt(2), 0.0], atol=1e-14)

    def test_four_state_design_roots(self):
        rs = reduced_system(4, -1.0 / 3.0)
        assert rs.y_plus == pytest.approx((1.0 + math.sqrt(10)) / 3.0, abs=1e-14)
        assert rs.y_minus == pytest.approx((1.0 - math.sqrt(10)) / 3.0, abs=1e-14)
        expected_z = [
            1.0 / 3.0 + 2.0 * math.sqrt(10) / 3.0,
            1.0 / 3.0 - 2.0 * math.sqrt(10) / 3.0,
            1.0 / 3.0,
        ]
        assert np.allclose(rs.z, expected_z, atol=1e-14)

    def test_root_product_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            alpha = float(rng.uniform(-4, 4))
            rs = reduced_system(n, alpha)
            assert rs.y_plus * rs.y_minus == pytest.approx(-2.0 / (n - 2), abs=1e-12)

    def test_mode_matrix_inverse(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            rs = reduced_system(n, float(rng.uniform(-4, 4)))
            assert np.max(np.abs(rs.mode_matrix @ rs.minv - np.eye(3))) <= 1e-12

    def test_initial_condition_from_inverse_rows(self):
        rs = reduced_system(5, 0.8)
        a0 = rs.minv @ np.ones(3)
        assert np.allclose(a0, [1.0, 0.0, 0.0], atol=1e-14)

    def test_sector_eigenvalues_in_full_spectrum(self):
        # the full matrix carries the three sector eigenvalues plus the
        # (n-3)-fold antisymmetric eigenvalue eps3 - gamma = -1
        n, alpha = 6, -1.0
        rs = reduced_system(n, alpha)
        w = build_coupling(SystemSpec(n=n, coupling=StructuredCoupling(alpha=alpha)))
        full = eigen_decompose(w).values
        expected = np.sort(np.concatenate([rs.z, [-1.0] * (n - 3)]))
        assert np.allclose(np.sort(full), expected, atol=1e-10)

    def test_needs_three_states(self):
        with pytest.raises(ValueError):
            reduced_system(2, 0.0)


class TestPopulationsExact:
    def test_initial_condition(self):
        rs = reduced_system(4, -1.0 / 3.0)
        assert populations_exact(rs, 0.0) == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)

    def test_three_state_transfer_point(self):
        rs = reduced_system(3, 0.0)
        p1, p2, p3 = populations_exact(rs, math.pi / math.sqrt(2))
        assert p1 == pytest.approx(0.0, abs=1e-12)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert p3 == pytest.approx(0.0, abs=1e-12)

    def test_four_state_half_area(self):
        # half the transfer area: P1 = P2 = 11/40, manifold holds the rest
        design = design_transfer(4, 1)
        rs = reduced_system(4, design.alpha)
        p1, p2, p3 = populations_exact(rs, design.area / 2.0)
        assert p1 == pytest.approx(11.0 / 40.0, abs=1e-12)
        assert p2 == pytest.approx(11.0 / 40.0, abs=1e-12)
        assert 2.0 * p3 == pytest.approx(1.0 - 2.0 * (11.0 / 40.0), abs=1e-12)

    def test_matches_amplitude_form(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            rs = reduced_system(n, float(rng.uniform(-3, 3)))
            areas = rng.uniform(0, 10, size=40)
            p1, p2, p3 = populations_exact(rs, areas)
            amps = rs.minv @ np.exp(-1j * np.outer(rs.z, areas))
            pops = np.abs(amps) ** 2
            assert np.max(np.abs(p1 - pops[0])) <= 1e-12
            assert np.max(np.abs(p2 - pops[1])) <= 1e-12
            assert np.max(np.abs(p3 - pops[2])) <= 1e-12

    def test_conservation(self):
        rng = np.random.default_rng(41)
        for n in range(3, 9):
            rs = reduced_system(n, float(rng.uniform(-3, 3)))
            areas = rng.uniform(0, 12, size=100)
            p1, p2, p3 = populations_exact(rs, areas)
            assert np.max(np.abs(p1 + p2 + (n - 2) * p3 - 1.0)) <= 1e-12

    def test_manifold_states_stay_identical(self):
        rng = np.random.default_rng(61)
        for n in (4, 7, 10):
            alpha = float(rng.uniform(-3, 3))
            es = eigen_decompose(
                build_coupling(SystemSpec(n=n, coupling=StructuredCoupling(alpha=alpha)))
            )
            for area in rng.uniform(0, 8, size=20):
                amp = propagator(es, float(area)) @ initial_state(n)
                mags = np.abs(amp[2:])
                assert np.max(mags) - np.min(mags) <= 1e-12


class TestPopulationsUniversal:
    def test_endpoints(self):
        start = populations_universal(0.0, 4)
        assert (start.p1, start.p2, start.p3_per_state) == pytest.approx((1.0, 0.0, 0.0))
        end = populations_universal(2.0 * math.pi, 4)
        assert end.p1 == pytest.approx(0.0, abs=1e-15)
        assert end.p2 == pytest.approx(1.0, abs=1e-15)
        assert end.p3_per_state == pytest.approx(0.0, abs=1e-30)

    def test_midpoint_three_state(self):
        mid = populations_universal(math.pi, 3)
        assert mid.p1 == pytest.approx(0.25)
        assert mid.p2 == pytest.approx(0.25)
        assert mid.p3_per_state == pytest.approx(0.5)

    def test_exactness_flag(self):
        assert populations_universal(1.0, 3).is_exact
        assert not populations_universal(1.0, 4).is_exact

    def test_endpoint_only_for_four_states(self):
        # the profile agrees at theta in {0, 2 pi n0} but deviates mid-pulse
        # by exactly 1/40 at theta = pi (derived from the sector cosine sum)
        design = design_transfer(4, 1)
        rs = reduced_system(4, design.alpha)
        for theta in (0.0, 2.0 * math.pi):
            exact = populations_exact(rs, theta * design.area / (2.0 * math.pi))
            profile = populations_universal(theta, 4)
            assert abs(exact[0] - profile.p1) <= 1e-10
            assert abs(exact[1] - profile.p2) <= 1e-10
            assert abs(exact[2] - profile.p3_per_state) <= 1e-10
        theta = np.linspace(0.0, 2.0 * math.pi, 4001)
        p1, _, _ = populations_exact(rs, theta * design.area / (2.0 * math.pi))
        profile = populations_universal(theta, 4)
        measured = np.max(np.abs(p1 - profile.p1))
        assert measured == pytest.approx(1.0 / 40.0, abs=1e-9)

    def test_conserves_probability_for_any_n(self):
        theta = np.linspace(0, 4 * math.pi, 500)
        for n in (3, 4, 8):
            prof = populations_universal(theta, n)
            total = prof.p1 + prof.p2 + (n - 2) * prof.p3_per_state
            assert np.max(np.abs(total - 1.0)) <= 1e-12


class TestDesignTransfer:
    def test_three_state(self):
        design = design_transfer(3, 1)
        assert design.alpha == 0.0
        assert design.beta == 1.0
        assert design.area == pytest.approx(math.pi / math.sqrt(2), abs=1e-14)
        assert (design.k, design.k_prime) == (2, -1)

    def test_four_state(self):
        design = design_transfer(4, 1)
        assert design.alpha == pytest.approx(-1.0 / 3.0)
        assert design.area == pytest.approx(3.0 * math.pi / math.sqrt(40.0), abs=1e-14)

    def test_even_n0_rejected(self):
        with pytest.raises(EvenN0Error):
            design_transfer(5, 2)

    def test_small_n_rejected(self):
        with pytest.raises(NTooSmallError):
            design_transfer(2, 1)

    def test_phase_multiples(self):
        for n in range(3, 11):
            for n0 in (1, 3):
                design = design_transfer(n, n0)
                rs = reduced_system(n, design.alpha)
                assert (rs.z[0] - rs.z[1]) * design.area / math.pi == pytest.approx(
                    design.k, abs=1e-10
                )
                assert (rs.z[1] - rs.z[2]) * design.area / math.pi == pytest.approx(
                    design.k_prime, abs=1e-10
                )
                assert design.k == -2 * design.k_prime

    def test_negative_branch(self):
        design = design_transfer(4, 1, negative=True)
        assert design.area < 0
        rs = reduced_system(4, design.alpha)
        assert (rs.z[0] - rs.z[1]) * design.area / math.pi == pytest.approx(design.k, abs=1e-10)
        _, p2, _ = populations_exact(rs, design.area)
        assert p2 == pytest.approx(1.0, abs=1e-10)

    def test_two_state_rule(self):
        assert design_transfer_2state(1) == pytest.approx(math.pi / 2)
        assert design_transfer_2state(3) == pytest.approx(3 * math.pi / 2)
        with pytest.raises(EvenN0Error):
            design_transfer_2state(2)


class TestEvolveAnalytic:
    def test_two_state_constant_pulse(self):
        spec = design_spec(2)
        traj = evolve_analytic(spec, ConstantPulse(1.0), [math.pi / 2.0])
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_initial_sample_only(self):
        traj = evolve_analytic(design_spec(4), ConstantPulse(1.0), [0.0])
        assert traj.populations[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_designed_cosine_transfer(self):
        design = design_transfer(4, 1)
        pulse = CosinePulse(chi=1.0, omega=1.0 / (1.05 * design.area))
        t0 = invert_area(pulse, design.area)
        traj = evolve_analytic(design_spec(4), pulse, [0.0, 0.5 * t0, t0])
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-10

    def test_rejects_split_levels(self):
        spec = SystemSpec(
            n=3, coupling=StructuredCoupling(alpha=0.0), energies=(0.0, 0.0, 0.1)
        )
        with pytest.raises(NotDegenerateError):
            evolve_analytic(spec, ConstantPulse(1.0), [0.0, 1.0])

    def test_common_offset_is_global_phase(self):
        spec0 = design_spec(3)
        spec_shift = SystemSpec(
            n=3, coupling=StructuredCoupling(alpha=0.0), energies=(1.3, 1.3, 1.3)
        )
        times = np.linspace(0.0, 2.0, 9)
        base = evolve_analytic(spec0, ConstantPulse(0.9), times)
        shifted = evolve_analytic(spec_shift, ConstantPulse(0.9), times)
        assert np.max(np.abs(base.populations - shifted.populations)) <= 1e-14
        phase = np.exp(-1j * 1.3 * times)[:, None]
        assert np.max(np.abs(base.amplitudes * phase - shifted.amplitudes)) <= 1e-12

    def test_large_n_design(self):
        for n in (10, 100):
            design = design_transfer(n, 1)
            pulse = CosinePulse(chi=1.0, omega=1.0 / (1.05 * abs(design.area)))
            t0 = invert_area(pulse, design.area)
            traj = evolve_analytic(design_spec(n), pulse, [t0])
            assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-10)

    def test_kick_train_area_steps(self):
        # the analytic route handles kick trains through the step-area function
        spec = design_spec(2)
        train_times = [0.4, 1.1]
        from nstate import KickTrain

        train = KickTrain(kicks=((train_times[0], math.pi / 4), (train_times[1], math.pi / 4)))
        traj = evolve_analytic(spec, train, [0.0, 0.7, 2.0])
        assert traj.populations[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert traj.populations[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert traj.populations[2, 1] == pytest.approx(1.0, abs=1e-12)
