"""Coupling construction, pulse shapes, and the exact phase-area calculus."""

import math

import numpy as np
import pytest

from nstate import (
    ConstantPulse,
    CosinePulse,
    ExplicitCoupling,
    GaussianPulse,
    KickTrain,
    StructuredCoupling,
    SystemSpec,
    build_coupling,
    invert_area,
    pulse_area,
    pulse_value,
)
from nstate.errors import AsymmetricMatrixError, StructuredRequiresN3Error, UnreachableAreaError
from nstate.model import Trajectory, make_trajectory, pulse_amplitude_scale


def simpson(f, a, b, n=4000):
    """Composite Simpson rule; the quadrature oracle for the closed-form areas."""
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


class TestBuildCoupling:
    def test_three_state_symmetric_layout(self):
        spec = SystemSpec(n=3, coupling=StructuredCoupling(alpha=0.0))
        w = build_coupling(spec)
        assert np.array_equal(w, np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float))

    def test_four_state_design_layout(self):
        # hand layout: alpha on the 1-2 bond, beta on 1-j, gamma elsewhere
        spec = SystemSpec(n=4, coupling=StructuredCoupling(alpha=-1.0 / 3.0))
        w = build_coupling(spec)
        expected = np.array(
            [
                [0.0, -1.0 / 3.0, 1.0, 1.0],
                [-1.0 / 3.0, 0.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 1.0],
                [1.0, 1.0, 1.0, 0.0],
            ]
        )
        assert np.array_equal(w, expected)

    def test_general_ratios_and_diagonals(self):
        spec = SystemSpec(
            n=5,
            coupling=StructuredCoupling(alpha=0.3, beta=-0.7, gamma=2.0, epsilon=(0.1, 0.2, 0.5)),
        )
        w = build_coupling(spec)
        assert w[0, 0] == 0.1 and w[1, 1] == 0.2
        assert all(w[j, j] == 0.5 for j in range(2, 5))
        assert w[0, 1] == 0.3
        assert all(w[0, j] == -0.7 for j in range(2, 5))
        assert all(w[1, j] == 2.0 for j in range(2, 5))
        assert w[2, 3] == w[2, 4] == w[3, 4] == 2.0

    def test_explicit_passthrough(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = SystemSpec(n=2, coupling=ExplicitCoupling(m))
        assert np.array_equal(build_coupling(spec), m)

    def test_explicit_asymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [0.999, 0.0]])
        with pytest.raises(AsymmetricMatrixError):
            build_coupling(SystemSpec(n=2, coupling=ExplicitCoupling(m)))

    def test_two_state_structured_slice(self):
        spec = SystemSpec(n=2, coupling=StructuredCoupling(alpha=0.4, epsilon=(0.1, -0.1, 0.0)))
        w = build_coupling(spec)
        assert np.array_equal(w, np.array([[0.1, 0.4], [0.4, -0.1]]))

    def test_two_state_with_beta_gamma_rejected(self):
        spec = SystemSpec(n=2, coupling=StructuredCoupling(alpha=0.4, beta=2.0))
        with pytest.raises(StructuredRequiresN3Error):
            build_coupling(spec)

    def test_bitwise_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            spec = SystemSpec(
                n=n,
                coupling=StructuredCoupling(
                    alpha=float(rng.normal()),
                    beta=float(rng.normal()),
                    gamma=float(rng.normal()),
                    epsilon=tuple(rng.normal(size=3)),
                ),
            )
            w = build_coupling(spec)
            assert np.array_equal(w, w.T)


class TestSystemSpec:
    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            SystemSpec(n=1, coupling=StructuredCoupling(alpha=1.0))

    def test_energy_count_must_match(self):
        with pytest.raises(ValueError):
            SystemSpec(n=3, coupling=StructuredCoupling(alpha=0.0), energies=(0.0, 1.0))

    def test_degenerate_flag(self):
        c = StructuredCoupling(alpha=0.0)
        assert SystemSpec(n=3, coupling=c).degenerate
        assert SystemSpec(n=3, coupling=c, energies=(2.0, 2.0, 2.0)).degenerate
        assert not SystemSpec(n=3, coupling=c, energies=(0.0, 0.0, 1e-12)).degenerate


class TestPulseValue:
    def test_cosine_zero_crossing(self):
        assert pulse_value(CosinePulse(chi=1.0, omega=2.0), math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_constant(self):
        assert pulse_value(ConstantPulse(v0=0.5), 7.0) == 0.5

    def test_kick_train_has_no_sampled_value(self):
        train = KickTrain(kicks=((1.0, math.pi / 2),))
        with pytest.raises(TypeError):
            pulse_value(train, 1.0)
        with pytest.raises(TypeError):
            pulse_amplitude_scale(train)

    def test_gaussian_peak(self):
        g = GaussianPulse(peak=2.0, center=1.0, width=0.5)
        assert pulse_value(g, 1.0) == 2.0
        assert pulse_value(g, 1.5) == pytest.approx(2.0 * math.exp(-0.5))


class TestPulseArea:
    def test_cosine(self):
        assert pulse_area(CosinePulse(chi=1.0, omega=2.0), math.pi / 4) == pytest.approx(0.5, abs=1e-15)

    def test_constant(self):
        assert pulse_area(ConstantPulse(v0=2.0), 3.0) == 6.0

    def test_kick_train_steps_right_continuously(self):
        train = KickTrain(kicks=((1.0, 0.3), (2.0, 0.4)))
        assert pulse_area(train, 1.5) == pytest.approx(0.3)
        assert pulse_area(train, 1.0) == pytest.approx(0.3)  # kick included at its time
        assert pulse_area(train, np.nextafter(1.0, 0.0)) == 0.0
        assert pulse_area(train, 2.0) == pytest.approx(0.7)
        assert pulse_area(train, 0.0) == 0.0

    def test_gaussian_matches_quadrature(self):
        g = GaussianPulse(peak=1.7, center=2.0, width=0.6)
        exact = pulse_area(g, 3.5)
        quad = simpson(lambda x: pulse_value(g, x), 0.0, 3.5)
        assert exact == pytest.approx(quad, abs=1e-10)

    def test_increment_matches_quadrature_all_variants(self):
        rng = np.random.default_rng(5)
        pulses = [
            CosinePulse(chi=1.3, omega=0.8),
            ConstantPulse(v0=-0.7),
            GaussianPulse(peak=2.0, center=1.5, width=0.4),
        ]
        for pulse in pulses:
            for _ in range(6):
                t1, t2 = np.sort(rng.uniform(0.0, 6.0, size=2))
                exact = pulse_area(pulse, t2) - pulse_area(pulse, t1)
                quad = simpson(lambda x: pulse_value(pulse, x), t1, t2)
                assert abs(exact - quad) <= 1e-8


class TestInvertArea:
    def test_cosine_analytic_point(self):
        t0 = invert_area(CosinePulse(chi=1.0, omega=1.0), 0.5)
        assert t0 == pytest.approx(math.asin(0.5), abs=1e-12)

    def test_constant(self):
        assert invert_area(ConstantPulse(v0=2.0), 6.0) == pytest.approx(3.0, abs=1e-12)

    def test_cosine_unreachable(self):
        with pytest.raises(UnreachableAreaError):
            invert_area(CosinePulse(chi=1.0, omega=1.0), 2.0)

    def test_constant_sign_mismatch(self):
        with pytest.raises(UnreachableAreaError):
            invert_area(ConstantPulse(v0=-1.0), 1.0)

    def test_zero_target(self):
        assert invert_area(CosinePulse(chi=1.0, omega=1.0), 0.0) == 0.0

    def test_negative_target_on_cosine(self):
        pulse = CosinePulse(chi=1.0, omega=1.0)
        t0 = invert_area(pulse, -0.5)
        assert t0 > math.pi / 2
        assert pulse_area(pulse, t0) == pytest.approx(-0.5, abs=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(17)
        pulse = CosinePulse(chi=0.9, omega=0.55)
        for _ in range(12):
            target = float(rng.uniform(-0.95, 0.95)) * 0.9 / 0.55
            t0 = invert_area(pulse, target)
            assert abs(pulse_area(pulse, t0) - target) <= 1e-10

    def test_gaussian_roundtrip_and_unreachable(self):
        g = GaussianPulse(peak=1.2, center=2.0, width=0.7)
        total = 1.2 * 0.7 * math.sqrt(2 * math.pi)
        t0 = invert_area(g, 0.5 * total)
        assert abs(pulse_area(g, t0) - 0.5 * total) <= 1e-10
        with pytest.raises(UnreachableAreaError):
            invert_area(g, 1.2 * total)
        # centred within one width of t = 0, so the weight before t = 0 is out of reach
        g = GaussianPulse(peak=1.2, center=0.3, width=0.7)
        total = simpson(lambda x: pulse_value(g, x), 0.0, 9.0)
        t0 = invert_area(g, 0.99 * total)
        assert abs(pulse_area(g, t0) - 0.99 * total) <= 1e-10
        with pytest.raises(UnreachableAreaError):
            invert_area(g, 1.01 * total)

    def test_gaussian_cap_tolerance(self):
        # within 1e-12 (relative) of the total weight is out of reach; 2e-12 short is not
        for center in (2.0, 0.3):
            g = GaussianPulse(peak=1.2, center=center, width=0.7)
            erf_lo = math.erf(-center / (0.7 * math.sqrt(2.0)))
            total = 1.2 * 0.7 * math.sqrt(0.5 * math.pi) * (1.0 - erf_lo)
            with pytest.raises(UnreachableAreaError):
                invert_area(g, total * (1.0 - 0.5e-12))
            t0 = invert_area(g, total * (1.0 - 2e-12))
            assert abs(pulse_area(g, t0) - total * (1.0 - 2e-12)) <= 1e-10

    def test_gaussian_matches_erfinv_root(self):
        # the bisection's stop rule lands within 1e-14 of the exact root
        from scipy.special import erfinv

        rng = np.random.default_rng(23)
        for _ in range(300):
            peak = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            center, width = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.1, 2.0))
            lo = math.erf(-center / (width * math.sqrt(2.0)))  # in [-1, 0]
            arg = float(rng.uniform(max(lo, -0.9), 0.9))  # the erf argument at the root
            scale = peak * width * math.sqrt(0.5 * math.pi)
            target = scale * (arg - lo)
            t0 = invert_area(GaussianPulse(peak, center, width), target)
            t_ref = center + width * math.sqrt(2.0) * float(erfinv(target / scale + lo))
            assert abs(t0 - t_ref) <= 1e-14 * max(1.0, abs(t_ref))

    def test_kick_train_is_not_inverted(self):
        # the type is checked before the zero-target shortcut
        for pulse, target in [
            (KickTrain(kicks=((1.0, 0.3), (2.0, 0.4))), 0.3),
            (KickTrain(kicks=((1.0, 0.3),)), 0.0),
            ("not a pulse", 0.0),
        ]:
            with pytest.raises(TypeError):
                invert_area(pulse, target)

    def test_gaussian_bracket_grows_past_four_widths(self):
        g = GaussianPulse(peak=1.0, center=0.0, width=1.0)
        target = (1.0 - 1e-6) * math.sqrt(math.pi / 2.0)  # the area from t = 0 on
        t0 = invert_area(g, target)
        assert t0 > 4.0  # beyond the first bracket, center + 4 * width
        assert abs(pulse_area(g, t0) - target) <= 1e-10

    def test_boundary_target_hits_turning_point(self):
        pulse = CosinePulse(chi=1.0, omega=2.0)
        t0 = invert_area(pulse, 0.5)  # exactly chi/omega
        assert t0 == pytest.approx(math.pi / 4, abs=1e-12)
        # the cap allows a relative overshoot of 1e-12, and no more
        assert invert_area(pulse, 0.5 * (1.0 + 0.5e-12)) == t0
        with pytest.raises(UnreachableAreaError):
            invert_area(pulse, 0.5 * (1.0 + 2e-12))


class TestKickTrainValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            KickTrain(kicks=((2.0, 0.1), (1.0, 0.1)))

    def test_gaussian_width_positive(self):
        with pytest.raises(ValueError):
            GaussianPulse(peak=1.0, center=0.0, width=0.0)

    def test_cosine_omega_positive(self):
        with pytest.raises(ValueError):
            CosinePulse(chi=1.0, omega=-1.0)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda x: CosinePulse(chi=x, omega=x), "chi"),
            (lambda x: CosinePulse(chi=1.0, omega=x), "omega"),
            (lambda x: ConstantPulse(v0=x), "v0"),
            (lambda x: GaussianPulse(peak=1.0, center=x, width=1.0), "center"),
            (
                lambda x: SystemSpec(n=2, coupling=StructuredCoupling(1.0), energies=(0.0, x)),
                "energies",
            ),
            (lambda x: StructuredCoupling(alpha=x), "alpha"),
            (lambda x: StructuredCoupling(alpha=1.0, epsilon=(0.0, x, 0.0)), "epsilon"),
            (lambda x: ExplicitCoupling(np.array([[0.0, 1.0], [1.0, x]])), "matrix"),
            (lambda x: KickTrain(kicks=((0.5, 1.0), (x, 1.0))), "times"),
            (lambda x: KickTrain(kicks=((0.5, x),)), "areas"),
        ],
    )
    def test_non_finite_field_is_named(self, make, name):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"\.{name} must be finite"):
                make(bad)


class TestTrajectory:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 0.0]),
                amplitudes=np.zeros((2, 2), complex),
                populations=np.zeros((2, 2)),
                areas=np.zeros(2),
                norms=np.zeros(2),
            )

    def test_populations_bounded(self):
        with pytest.raises(ValueError):
            make_trajectory([0.0], [[1.5 + 0j, 0.0]], [0.0])

    def test_helper_columns(self):
        amps = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.6, 0.8]], dtype=complex)
        traj = make_trajectory([0.0, 1.0], amps, [0.0, 0.1])
        assert traj.n == 4
        assert np.allclose(traj.p3_total, [0.0, 1.0])
        assert np.allclose(traj.p3_per_state, [0.0, 0.5])
        assert np.allclose(traj.norms, [1.0, 1.0])
        three = make_trajectory([0.0], [[0.0, 0.6, 0.8]], [0.0])  # one manifold state
        assert np.allclose(three.p3_per_state, [0.64]) and np.allclose(three.p3_total, [0.64])
