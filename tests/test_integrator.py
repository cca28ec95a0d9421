"""RK4 route against the exact one, kick jumps, and numerical hygiene."""

import math

import numpy as np
import pytest

from nstate import (
    ConstantPulse,
    CosinePulse,
    ExplicitCoupling,
    GaussianPulse,
    IntegratorConfig,
    KickTrain,
    StructuredCoupling,
    SystemSpec,
    convergence_order,
    design_spec,
    design_transfer,
    eigen_decompose,
    initial_state,
    integrate,
    integrate_kicks,
    integrate_many,
    invert_area,
    propagator,
    build_coupling,
)
from nstate._kernels import run_rk4
from nstate.errors import NormDriftError, SampleCountOverflowError, StepCountOverflowError


def two_state(energies=()):
    return SystemSpec(
        n=2,
        coupling=ExplicitCoupling(np.array([[0.0, 1.0], [1.0, 0.0]])),
        energies=energies,
    )


def designed_pulse(n, n0=1):
    area = design_transfer(n, n0).area if n >= 3 else n0 * math.pi / 2.0
    return CosinePulse(chi=1.0, omega=1.0 / (1.05 * area))


class TestIntegrate:
    def test_two_state_constant_transfer(self):
        traj = integrate(two_state(), ConstantPulse(1.0), IntegratorConfig(t_end=math.pi / 2))
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-8)

    def test_four_state_design_transfer(self):
        design = design_transfer(4, 1)
        pulse = designed_pulse(4)
        t0 = invert_area(pulse, design.area)
        traj = integrate(design_spec(4), pulse, IntegratorConfig(t_end=t0))
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-6)

    def test_zero_t_end_single_sample(self):
        traj = integrate(design_spec(3), ConstantPulse(1.0), IntegratorConfig(t_end=0.0))
        assert traj.times.tolist() == [0.0]
        assert traj.populations[0, 0] == 1.0

    def test_split_levels_supported(self):
        spec = two_state(energies=(0.0, 0.4))
        traj = integrate(spec, ConstantPulse(1.0), IntegratorConfig(t_end=2.0))
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8
        # splitting spoils the resonance, so transfer is no longer complete
        peak_p2 = traj.populations[:, 1].max()
        assert peak_p2 < 1.0 - 1e-4

    def test_norm_drift_rejected(self):
        with pytest.raises(NormDriftError):
            integrate(design_spec(3), ConstantPulse(1.0), IntegratorConfig(t_end=3.0, dt=1.0))

    def test_step_overflow_rejected(self):
        with pytest.raises(StepCountOverflowError):
            integrate(design_spec(3), ConstantPulse(1.0), IntegratorConfig(t_end=2.0, dt=1e-10))
        with pytest.raises(StepCountOverflowError):  # 1.5e9 steps: just over the 1e9 cap
            integrate(design_spec(3), ConstantPulse(1.0), IntegratorConfig(t_end=1.5, dt=1e-9))
        # a drive so strong that the step heuristic underflows to 0
        with pytest.raises(StepCountOverflowError):
            integrate(design_spec(3), ConstantPulse(1e308), IntegratorConfig(t_end=2.0))

    def test_sample_count_overflow_rejected_before_the_kernel(self, monkeypatch):
        monkeypatch.setattr("nstate.integrator.run_rk4", lambda *a: pytest.fail("kernel ran"))
        # about 2e8 steps, under MAX_STEPS, and every one of them a sample row
        with pytest.raises(SampleCountOverflowError):
            integrate(design_spec(3), designed_pulse(3), IntegratorConfig(t_end=1e5))

    def test_kick_train_rejected(self):
        with pytest.raises(TypeError):
            integrate(two_state(), KickTrain(kicks=((1.0, 0.5),)), IntegratorConfig(t_end=2.0))

    def test_custom_initial_state_and_time_reversal(self):
        spec = design_spec(4)
        t_end = 1.8
        forward = integrate(spec, ConstantPulse(0.9), IntegratorConfig(t_end=t_end))
        back = integrate(
            spec,
            ConstantPulse(-0.9),
            IntegratorConfig(t_end=t_end),
            a0=forward.final_amplitudes,
        )
        assert np.max(np.abs(back.final_amplitudes - initial_state(4))) <= 1e-7

    def test_gaussian_time_reversal(self):
        spec = design_spec(4)
        t_end = 1.8
        pulse = GaussianPulse(peak=1.1, center=0.8, width=0.25)
        mirrored = GaussianPulse(peak=-1.1, center=t_end - 0.8, width=0.25)
        forward = integrate(spec, pulse, IntegratorConfig(t_end=t_end))
        back = integrate(
            spec, mirrored, IntegratorConfig(t_end=t_end), a0=forward.final_amplitudes
        )
        assert np.max(np.abs(back.final_amplitudes - initial_state(4))) <= 1e-7

    def test_sampling_stride_and_endpoint(self, monkeypatch):
        # dt = 0.0103 makes 98 steps; min(samples, 98) intervals of ceil(98 / intervals) steps
        steps = []
        monkeypatch.setattr(
            "nstate.integrator.run_rk4", lambda *a: steps.append(a[4]) or run_rk4(*a)
        )
        pulse = ConstantPulse(0.5)
        cases = ((14, 7, 98), (10, 10, 100), (1, 98, 98), (200, 1, 98), (None, 1, 98))
        for samples, stride, n_steps in cases:
            cfg = IntegratorConfig(t_end=1.0, dt=0.0103, samples=samples)
            traj = integrate(two_state(), pulse, cfg)
            assert steps[-1] == n_steps, samples
            assert np.array_equal(traj.times, np.linspace(0.0, 1.0, n_steps // stride + 1))
            assert traj.times[-1] == 1.0  # the last sample is t_end itself
        # 10 intervals of 10 steps: every 10th state of the same 100-step run
        ten = integrate(two_state(), pulse, IntegratorConfig(t_end=1.0, dt=0.0103, samples=10))
        every = integrate(two_state(), pulse, IntegratorConfig(t_end=1.0, dt=0.01))
        assert np.array_equal(ten.amplitudes, every.amplitudes[::10])

    def test_step_cap_applies_to_the_rounded_step_count(self, monkeypatch):
        monkeypatch.setattr("nstate.integrator.MAX_STEPS", 99)
        # 98 raw steps fit under the cap, and 14 intervals of 7 keep them at 98
        cfg = IntegratorConfig(t_end=1.0, dt=0.0103, samples=14)
        assert integrate(two_state(), ConstantPulse(0.5), cfg).times.size == 15
        # 10 intervals of 10 steps make 100: refused before the kernel runs
        monkeypatch.setattr("nstate.integrator.run_rk4", lambda *a: pytest.fail("kernel ran"))
        cfg = IntegratorConfig(t_end=1.0, dt=0.0103, samples=10)
        with pytest.raises(StepCountOverflowError):
            integrate(two_state(), ConstantPulse(0.5), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, samples=0)
        with pytest.raises(ValueError, match="samples"):
            integrate_kicks(two_state(), KickTrain(kicks=()), 1.0, samples=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                IntegratorConfig(t_end=bad)
            with pytest.raises(ValueError, match="finite"):
                IntegratorConfig(t_end=1.0, dt=bad)


def ladder(e):
    return SystemSpec(n=3, coupling=StructuredCoupling(alpha=0.0), energies=(0.0, e, 2.0 * e))


class TestIntegrateMany:
    def test_batches_match_single_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr("nstate.integrator.run_rk4", lambda *a: calls.append(a) or run_rk4(*a))
        # the default step shrinks for the 5.0 ladder, and n=4 has another W
        specs = [ladder(0.0), ladder(5.0), ladder(0.1), design_spec(4)]
        cfg = IntegratorConfig(t_end=0.5)
        for spec, traj in zip(specs, integrate_many(specs, ConstantPulse(1.0), cfg)):
            single = integrate(spec, ConstantPulse(1.0), cfg)
            assert np.max(np.abs(single.amplitudes - traj.amplitudes)) <= 1e-14
        assert sorted(len(args[-1]) for args in calls[:3]) == [1, 1, 2]

    def test_one_coarse_run_fails_its_batch(self):
        cfg = IntegratorConfig(t_end=1.0, dt=0.01)
        integrate_many([ladder(0.1), ladder(0.2)], ConstantPulse(1.0), cfg)
        # E dt = 3 lies outside RK4's stability interval
        with pytest.raises(NormDriftError, match="norm drifted by"):
            integrate_many([ladder(0.1), ladder(150.0), ladder(0.2)], ConstantPulse(1.0), cfg)


class TestIntegrateKicks:
    def test_sample_count_overflow_rejected_before_the_grid(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("grid allocated"))
        train = KickTrain(kicks=((1.0, 1.0),))
        with pytest.raises(SampleCountOverflowError):
            integrate_kicks(design_spec(3), train, 2.0, samples=2 * 10**9)

    def test_sample_cap_counts_the_grid_and_two_rows_per_fired_kick(self, monkeypatch):
        # (samples + 1 + 2 * fired kicks) * n amplitudes; the kick after t_end does not fire
        train = KickTrain(kicks=((0.55, 0.3), (1.15, 0.2), (5.0, 0.1)))  # off the 0.2 grid
        monkeypatch.setattr("nstate.integrator.MAX_SAMPLE_ELEMENTS", (10 + 1 + 2 * 2) * 3)
        traj = integrate_kicks(design_spec(3), train, 2.0, samples=10)
        assert traj.times.size == 10 + 1 + 2 * 2
        monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("grid allocated"))
        with pytest.raises(SampleCountOverflowError):
            integrate_kicks(design_spec(3), train, 2.0, samples=11)

    def test_single_kick_transfers_permanently(self):
        train = KickTrain(kicks=((1.0, math.pi / 2.0),))
        traj = integrate_kicks(two_state(), train, t_end=4.0)
        before = traj.times < 1.0
        after = traj.times >= 1.0
        assert np.all(np.abs(traj.populations[before, 0] - 1.0) <= 1e-12)
        assert np.all(np.abs(traj.populations[after, 1] - 1.0) <= 1e-12)

    def test_zero_area_kick_is_identity(self):
        train = KickTrain(kicks=((1.0, 0.0),))
        traj = integrate_kicks(two_state(), train, t_end=2.0)
        assert np.all(np.abs(traj.populations[:, 0] - 1.0) <= 1e-14)

    def test_empty_train_constant(self):
        traj = integrate_kicks(two_state(), KickTrain(kicks=()), t_end=2.0)
        assert np.all(traj.populations[:, 0] == 1.0)

    def test_pre_and_post_samples_hug_each_kick(self):
        train = KickTrain(kicks=((1.0, math.pi / 2.0),))
        traj = integrate_kicks(two_state(), train, t_end=2.0)
        pre = np.nextafter(1.0, -np.inf)
        assert pre in traj.times and 1.0 in traj.times
        i_pre = np.searchsorted(traj.times, pre)
        i_post = np.searchsorted(traj.times, 1.0)
        assert traj.populations[i_pre, 0] == pytest.approx(1.0, abs=1e-14)
        assert traj.populations[i_post, 1] == pytest.approx(1.0, abs=1e-14)
        assert traj.areas[i_pre] == 0.0
        assert traj.areas[i_post] == pytest.approx(math.pi / 2.0)
        # a kick at t = 0 gets no sample before it: the first one is already post-kick
        traj = integrate_kicks(two_state(), KickTrain(kicks=((0.0, math.pi / 2.0),)), t_end=2.0)
        assert traj.times[0] == 0.0 and traj.populations[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_two_kick_relabel_round_trip(self):
        # oracle: two spectral-propagator applications with the swap in between
        design = design_transfer(4, 1)
        spec = design_spec(4)
        w = np.array(build_coupling(spec))
        u = propagator(eigen_decompose(w), design.area)
        state = u @ initial_state(4)
        w_swapped = w[[1, 0, 2, 3], :][:, [1, 0, 2, 3]]
        state = propagator(eigen_decompose(w_swapped), design.area) @ state
        assert abs(state[0]) ** 2 == pytest.approx(1.0, abs=1e-12)

        train = KickTrain(kicks=((1.0, design.area), (2.0, design.area)))
        traj = integrate_kicks(spec, train, t_end=3.0, relabels=[(1, 2), None])
        mid = np.searchsorted(traj.times, 1.5)
        assert traj.populations[mid, 1] == pytest.approx(1.0, abs=1e-12)
        assert traj.populations[-1, 0] == pytest.approx(1.0, abs=1e-12)
        for pair in ((1, 4), (4, 1)):  # the first and the last label are both valid
            integrate_kicks(spec, KickTrain(kicks=((1.0, design.area),)), t_end=1.0, relabels=[pair])

    def test_split_levels_free_phases(self):
        spec = two_state(energies=(0.3, 0.7))
        train = KickTrain(kicks=((0.5, math.pi / 2.0),))
        traj = integrate_kicks(spec, train, t_end=2.0)
        after = traj.times >= 0.5
        # free phases never move population
        assert np.all(np.abs(traj.populations[after, 1] - 1.0) <= 1e-12)
        # the kick carries the phase state 1 gathered before it (U e_1 = -i e_2), and
        # then the amplitude keeps rotating at the energy of state 2
        i0 = np.searchsorted(traj.times, 0.5)
        assert traj.amplitudes[i0, 1] == pytest.approx(-1j * np.exp(-1j * 0.3 * 0.5), abs=1e-12)
        phase = traj.amplitudes[-1, 1] / traj.amplitudes[i0, 1]
        expected = np.exp(-1j * 0.7 * (traj.times[-1] - traj.times[i0]))
        assert phase == pytest.approx(expected, abs=1e-12)

    def test_kick_beyond_t_end_ignored(self):
        train = KickTrain(kicks=((1.0, math.pi / 2.0), (5.0, math.pi / 2.0)))
        traj = integrate_kicks(two_state(), train, t_end=2.0)
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-12)
        # a kick exactly at t_end still fires: the last two samples straddle it
        traj = integrate_kicks(two_state(), KickTrain(kicks=((1.0, math.pi / 2.0),)), t_end=1.0)
        assert traj.times.size == 201 + 1  # the default grid and the pre-kick sample
        assert traj.populations[-2:, 1] == pytest.approx([0.0, 1.0], abs=1e-12)


class TestKickWidthLimit:
    def test_degenerate_endpoint_is_width_independent(self):
        # with equal energies the endpoint depends on the area alone
        spec = two_state()
        kick = KickTrain(kicks=((0.5, math.pi / 2.0),))
        reference = integrate_kicks(spec, kick, t_end=1.0)
        for width in (0.08, 0.01):
            peak = (math.pi / 2.0) / (width * math.sqrt(2.0 * math.pi))
            pulse = GaussianPulse(peak=peak, center=0.5, width=width)
            traj = integrate(spec, pulse, IntegratorConfig(t_end=1.0))
            assert abs(traj.populations[-1, 1] - reference.populations[-1, 1]) <= 1e-8


class TestConvergenceOrder:
    def test_cosine_is_fourth_order(self):
        order = convergence_order(design_spec(3), CosinePulse(1.0, 0.7), t_probe=2.0)
        assert 3.7 <= order <= 4.3

    def test_constant_is_fourth_order(self):
        order = convergence_order(two_state(), ConstantPulse(1.0), t_probe=2.0)
        assert 3.7 <= order <= 4.3

    def test_zero_coupling_returns_nan(self):
        spec = SystemSpec(n=2, coupling=ExplicitCoupling(np.zeros((2, 2))))
        assert math.isnan(convergence_order(spec, ConstantPulse(1.0), t_probe=1.0))
