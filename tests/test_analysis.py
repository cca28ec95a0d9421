"""Fidelity readout, extrema location, leakage scans, and the power-law fit."""

import math

import numpy as np
import pytest

from nstate import (
    ConstantPulse,
    CosinePulse,
    IntegratorConfig,
    StructuredCoupling,
    SystemSpec,
    design_spec,
    design_transfer,
    evolve_analytic,
    find_extrema,
    fit_power_law,
    integrate,
    invert_area,
    leakage_scan,
    transfer_fidelity,
)
from nstate.analysis import LeakagePoint, leakage_ladder
from nstate.errors import (
    InsufficientPointsError,
    NonPositiveValueError,
    OutOfRangeError,
)


def designed_run(n=4):
    design = design_transfer(n, 1)
    pulse = CosinePulse(chi=1.0, omega=1.0 / (1.05 * design.area))
    t0 = invert_area(pulse, design.area)
    traj = integrate(design_spec(n), pulse, IntegratorConfig(t_end=t0, sample_stride=5))
    return traj, t0


class TestTransferFidelity:
    def test_designed_run_reaches_unity(self):
        traj, t0 = designed_run()
        assert transfer_fidelity(traj, 2, t0) == pytest.approx(1.0, abs=1e-6)

    def test_target_empty_at_start(self):
        traj, _ = designed_run()
        assert transfer_fidelity(traj, 2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range(self):
        traj, t0 = designed_run()
        with pytest.raises(OutOfRangeError):
            transfer_fidelity(traj, 2, t0 * 2.0)

    def test_bad_state_label(self):
        traj, _ = designed_run()
        with pytest.raises(ValueError):
            transfer_fidelity(traj, 5, 0.0)


class TestFindExtrema:
    def test_designed_three_state_first_maximum(self):
        design = design_transfer(3, 1)
        pulse = CosinePulse(chi=1.0, omega=1.0 / (1.3 * design.area))
        t0 = invert_area(pulse, design.area)
        times = np.linspace(0.0, 1.5 * t0, 3001)
        traj = evolve_analytic(design_spec(3), pulse, times)
        extrema = find_extrema(traj, 2)
        assert extrema, "expected at least one extremum"
        t_max, value = max(extrema, key=lambda e: e[1])
        assert value == pytest.approx(1.0, abs=1e-6)
        assert t_max == pytest.approx(t0, abs=2 * (times[1] - times[0]))

    def test_constant_trajectory_has_none(self):
        traj, _ = designed_run()
        flat = evolve_analytic(design_spec(2), ConstantPulse(0.0), np.linspace(0, 3, 50))
        assert find_extrema(flat, 1) == []

    def test_two_state_rabi_maxima(self):
        times = np.linspace(0.0, 3.5 * math.pi, 4001)
        traj = evolve_analytic(design_spec(2), ConstantPulse(1.0), times)
        maxima = [(t, v) for t, v in find_extrema(traj, 2) if v > 0.5]
        expected = [math.pi / 2 + m * math.pi for m in range(3)]
        assert len(maxima) == len(expected)
        for (t, v), t_exp in zip(maxima, expected):
            assert t == pytest.approx(t_exp, abs=1e-3)
            assert v == pytest.approx(1.0, abs=1e-6)


class TestLeakageScan:
    def test_leakage_grows_with_splitting(self):
        omega = 1.0 / (1.05 * design_transfer(4, 1).area)
        points = leakage_scan(4, 1, omega, [0.02, 0.04, 0.08])
        leaks = [p.leakage for p in points]
        assert leaks[0] < leaks[1] < leaks[2]

    def test_quadratic_regime_fit(self):
        omega = 1.0 / (1.05 * design_transfer(4, 1).area)
        points = leakage_scan(4, 1, omega, np.geomspace(0.01, 0.1, 8))
        fit = fit_power_law(points)
        assert 1.8 <= fit.exponent <= 2.2
        assert abs(fit.coefficient) < 1.0
        assert fit.r_squared >= 0.98

    def test_ratio_regime_enforced(self):
        omega = 1.0 / (1.05 * design_transfer(4, 1).area)
        with pytest.raises(ValueError):
            leakage_scan(4, 1, omega, [0.5, 1.5])

    def test_points_keep_input_order(self):
        omega = 1.0 / (1.05 * design_transfer(3, 1).area)
        ratios = [0.08, 0.02, 0.05]
        points = leakage_scan(3, 1, omega, ratios)
        assert [p.detuning_ratio for p in points] == ratios

    def test_batched_scan_matches_point_by_point_runs(self):
        design = design_transfer(4, 1)
        pulse = CosinePulse(chi=1.0, omega=1.0 / (1.05 * design.area))
        t0 = invert_area(pulse, design.area)
        ratios = [0.0, 0.03, 0.1, 0.06]
        points = leakage_scan(4, 1, pulse.omega, ratios)
        for r, point in zip(ratios, points):
            spec = SystemSpec(
                n=4,
                coupling=StructuredCoupling(alpha=design.alpha),
                energies=leakage_ladder(4, r, pulse.omega),
            )
            p2 = integrate(spec, pulse, IntegratorConfig(t_end=t0)).populations[-1, 1]
            assert abs(point.leakage - max(0.0, 1.0 - p2)) <= 1e-12


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        ratios = np.geomspace(0.01, 0.3, 7)
        points = [LeakagePoint(float(r), float(3.0 * r**2)) for r in ratios]
        fit = fit_power_law(points)
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.coefficient == pytest.approx(3.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_exact_linear(self):
        ratios = np.geomspace(0.01, 0.3, 5)
        points = [LeakagePoint(float(r), float(0.5 * r)) for r in ratios]
        fit = fit_power_law(points)
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficient == pytest.approx(0.5, abs=1e-10)

    def test_needs_three_points(self):
        points = [LeakagePoint(0.1, 0.01), LeakagePoint(0.2, 0.04)]
        with pytest.raises(InsufficientPointsError):
            fit_power_law(points)

    def test_rejects_non_positive(self):
        points = [LeakagePoint(0.1, 0.01), LeakagePoint(0.2, 0.0), LeakagePoint(0.3, 0.09)]
        with pytest.raises(NonPositiveValueError):
            fit_power_law(points)

    def test_scale_equivariance(self):
        ratios = np.geomspace(0.02, 0.2, 6)
        rng = np.random.default_rng(2)
        noise = rng.uniform(0.9, 1.1, size=ratios.size)
        base = [LeakagePoint(float(r), float(0.4 * r**2 * f)) for r, f in zip(ratios, noise)]
        scaled = [LeakagePoint(p.detuning_ratio, p.leakage * 7.5) for p in base]
        fit_base = fit_power_law(base)
        fit_scaled = fit_power_law(scaled)
        assert fit_scaled.exponent == pytest.approx(fit_base.exponent, abs=1e-10)
        assert fit_scaled.coefficient == pytest.approx(7.5 * fit_base.coefficient, rel=1e-10)


class TestLeakagePointValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            LeakagePoint(-0.1, 0.5)
        with pytest.raises(ValueError):
            LeakagePoint(0.1, 1.5)
