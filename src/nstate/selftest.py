"""Cross-module invariant suite behind ``nstate selftest``.

Each property is a small named check; the runner executes them in a fixed
order, catches any failure, and reports one line per property.  Randomized
checks draw from a seeded generator so reruns are reproducible; ``--seed``
changes the draw.  ``--dt`` injects a fixed integrator step into every
numerical check, which is how the norm-drift guard is exercised (a huge step
must make the integrator refuse the run).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .analysis import LeakagePoint, fit_power_law, leakage_scan
from .integrator import IntegratorConfig, convergence_order, integrate, integrate_kicks
from .model import (
    ConstantPulse,
    CosinePulse,
    ExplicitCoupling,
    GaussianPulse,
    KickTrain,
    StructuredCoupling,
    SystemSpec,
    build_coupling,
    initial_state,
    invert_area,
    pulse_area,
    pulse_value,
)
from .spectral import (
    design_spec,
    design_transfer,
    eigen_decompose,
    evolve_analytic,
    populations_exact,
    populations_universal,
    propagator,
    reduced_system,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class _Context:
    rng: np.random.Generator
    dt: float | None  # fault-injection override for integrator steps


def _simpson(f, a, b, n=2000):
    """Composite Simpson quadrature (independent of the closed-form areas)."""
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _two_state_spec(energies=()) -> SystemSpec:
    return replace(design_spec(2), energies=energies)


# ---------------------------------------------------------------------------
# model properties


def check_pulse_area_matches_quadrature(ctx: _Context):
    pulses = [
        CosinePulse(chi=1.3, omega=0.8),
        ConstantPulse(v0=-0.7),
        GaussianPulse(peak=2.0, center=1.5, width=0.4),
    ]
    for pulse in pulses:
        for _ in range(6):
            t1, t2 = np.sort(ctx.rng.uniform(0.0, 6.0, size=2))
            exact = pulse_area(pulse, t2) - pulse_area(pulse, t1)
            quad = _simpson(lambda x: pulse_value(pulse, x), t1, t2)
            assert abs(exact - quad) <= 1e-8, f"{pulse}: {exact} vs {quad}"


def check_coupling_symmetry(ctx: _Context):
    for _ in range(20):
        n = int(ctx.rng.integers(3, 10))
        spec = SystemSpec(
            n=n,
            coupling=StructuredCoupling(
                alpha=float(ctx.rng.uniform(-3, 3)),
                beta=float(ctx.rng.uniform(-2, 2)),
                gamma=float(ctx.rng.uniform(-2, 2)),
                epsilon=tuple(ctx.rng.uniform(-1, 1, size=3)),
            ),
        )
        w = build_coupling(spec)
        assert np.array_equal(w, w.T), "mirrored entries are not bitwise equal"


def check_area_inversion_roundtrip(ctx: _Context):
    cosine = CosinePulse(chi=1.0, omega=0.6)
    for _ in range(12):
        target = float(ctx.rng.uniform(-0.95, 0.95)) * cosine.chi / cosine.omega
        t0 = invert_area(cosine, target)
        assert abs(pulse_area(cosine, t0) - target) <= 1e-10
    gaussian = GaussianPulse(peak=1.2, center=2.0, width=0.7)
    for _ in range(4):
        target = float(ctx.rng.uniform(0.05, 0.9)) * 1.2 * 0.7 * math.sqrt(2 * math.pi)
        t0 = invert_area(gaussian, target)
        assert abs(pulse_area(gaussian, t0) - target) <= 1e-10
    t0 = invert_area(ConstantPulse(2.0), 6.0)
    assert abs(t0 - 3.0) <= 1e-10


# ---------------------------------------------------------------------------
# spectral properties


def check_sector_matches_full_matrix(ctx: _Context):
    worst = 0.0
    for n in range(3, 9):
        for alpha in ctx.rng.uniform(-3, 3, size=50):
            rs = reduced_system(n, float(alpha))
            spec = SystemSpec(n=n, coupling=StructuredCoupling(alpha=float(alpha)))
            es = eigen_decompose(build_coupling(spec))
            areas = ctx.rng.uniform(0.0, 10.0, size=100)
            p1, p2, p3 = populations_exact(rs, areas)
            weights = es.vectors[0, :]
            amps = (np.exp(-1j * np.outer(areas, es.values)) * weights) @ es.vectors.T
            pops = np.abs(amps) ** 2
            dev = max(
                np.max(np.abs(p1 - pops[:, 0])),
                np.max(np.abs(p2 - pops[:, 1])),
                np.max(np.abs(p3 - pops[:, 2])),
            )
            worst = max(worst, dev)
    assert worst <= 1e-10, f"sector vs full-matrix deviation {worst}"


def check_population_conservation(ctx: _Context):
    for n in range(3, 9):
        alpha = float(ctx.rng.uniform(-3, 3))
        rs = reduced_system(n, alpha)
        areas = ctx.rng.uniform(0.0, 12.0, size=200)
        p1, p2, p3 = populations_exact(rs, areas)
        total = p1 + p2 + (n - 2) * p3
        assert np.max(np.abs(total - 1.0)) <= 1e-12


def check_manifold_symmetry(ctx: _Context):
    for n in (4, 6, 7, 9, 10):
        alpha = float(ctx.rng.uniform(-3, 3))
        spec = SystemSpec(n=n, coupling=StructuredCoupling(alpha=alpha))
        es = eigen_decompose(build_coupling(spec))
        for area in ctx.rng.uniform(0.0, 8.0, size=10):
            amp = propagator(es, float(area)) @ initial_state(n)
            mags = np.abs(amp[2:])
            assert np.max(mags) - np.min(mags) <= 1e-12


def check_design_complete_transfer(ctx: _Context):
    for n in range(3, 11):
        for n0 in (1, 3, 5):
            design = design_transfer(n, n0)
            rs = reduced_system(n, design.alpha)
            _, p2, _ = populations_exact(rs, design.area)
            assert abs(p2 - 1.0) <= 1e-10, f"n={n} n0={n0}: P2={p2}"
            c1 = (rs.z[0] - rs.z[1]) * design.area / math.pi - design.k
            c2 = (rs.z[1] - rs.z[2]) * design.area / math.pi - design.k_prime
            assert abs(c1) <= 1e-10 and abs(c2) <= 1e-10, f"phase conditions n={n} n0={n0}"


def check_universal_profile_exact_n3(ctx: _Context):
    design = design_transfer(3, 1)
    theta = np.arange(0.0, 4.0 * math.pi, 1e-3)
    rs = reduced_system(3, 0.0)
    p1, p2, p3 = populations_exact(rs, theta * design.area / (2.0 * math.pi))
    profile = populations_universal(theta, 3)
    dev = max(
        np.max(np.abs(p1 - profile.p1)),
        np.max(np.abs(p2 - profile.p2)),
        np.max(np.abs(p3 - profile.p3_per_state)),
    )
    assert profile.is_exact and dev <= 1e-12, f"n=3 profile deviation {dev}"


def check_universal_profile_endpoints(ctx: _Context):
    for n in range(4, 11):
        for n0 in (1, 3):
            design = design_transfer(n, n0)
            rs = reduced_system(n, design.alpha)
            for theta in (0.0, 2.0 * math.pi * n0):
                area = theta * design.area / (2.0 * math.pi * n0)
                exact = populations_exact(rs, area)
                profile = populations_universal(theta, n)
                assert not profile.is_exact
                dev = max(
                    abs(exact[0] - profile.p1),
                    abs(exact[1] - profile.p2),
                    abs(exact[2] - profile.p3_per_state),
                )
                assert dev <= 1e-10, f"endpoint deviation {dev} at n={n}"


def check_propagator_unitary_group(ctx: _Context):
    for n in (2, 4, 5, 7, 9):
        m = ctx.rng.normal(size=(n, n))
        es = eigen_decompose(m + m.T)
        eye = np.eye(n)
        assert np.max(np.abs(propagator(es, 0.0) - eye)) <= 1e-10
        a1, a2 = ctx.rng.uniform(-5, 5, size=2)
        u1, u2, u12 = propagator(es, a1), propagator(es, a2), propagator(es, a1 + a2)
        assert np.max(np.abs(u1 @ u1.conj().T - eye)) <= 1e-10, "not unitary"
        assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-10, "group law violated"


# ---------------------------------------------------------------------------
# integrator properties


def check_integrator_matches_analytic(ctx: _Context):
    for n in (2, 3, 4, 5):
        spec = design_spec(n)
        design = design_transfer(n)
        pulse = design.cosine()
        t_end = invert_area(pulse, design.area)
        cfg = IntegratorConfig(t_end=t_end, dt=ctx.dt, sample_stride=25)
        traj = integrate(spec, pulse, cfg)
        exact = evolve_analytic(spec, pulse, traj.times)
        dev = np.max(np.abs(traj.populations - exact.populations))
        assert dev <= 1e-8, f"n={n}: analytic vs rk4 deviation {dev}"
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8, "norm drift"


def check_norm_conserved(ctx: _Context):
    spec = design_spec(5)
    pulse = GaussianPulse(peak=1.0, center=1.0, width=0.3)
    traj = integrate(spec, pulse, IntegratorConfig(t_end=2.5, dt=ctx.dt))
    assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8


def check_kick_jump_limit(ctx: _Context):
    # a finite-width pulse approaches the ideal kick as the width shrinks;
    # with split levels the endpoint error falls like (splitting * width)^2
    spec = _two_state_spec(energies=(0.0, 0.5))
    kick = KickTrain(kicks=((0.5, math.pi / 2.0),))
    reference = integrate_kicks(spec, kick, t_end=1.0)
    target = reference.populations[-1, 1]
    errors = []
    for width in (0.08, 0.04, 0.02, 0.01):
        peak = (math.pi / 2.0) / (width * math.sqrt(2.0 * math.pi))
        pulse = GaussianPulse(peak=peak, center=0.5, width=width)
        traj = integrate(spec, pulse, IntegratorConfig(t_end=1.0, dt=ctx.dt))
        errors.append(abs(traj.populations[-1, 1] - target))
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:])), f"not monotone: {errors}"
    assert errors[-1] <= 1e-4, f"width 0.01 error {errors[-1]}"


def check_time_reversal(ctx: _Context):
    spec = design_spec(4)
    t_end = 1.8
    forward = integrate(spec, ConstantPulse(0.9), IntegratorConfig(t_end=t_end, dt=ctx.dt))
    back = integrate(
        spec,
        ConstantPulse(-0.9),
        IntegratorConfig(t_end=t_end, dt=ctx.dt),
        a0=forward.final_amplitudes,
    )
    dev = np.max(np.abs(back.final_amplitudes - initial_state(4)))
    assert dev <= 1e-7, f"constant-pulse reversal error {dev}"
    pulse = GaussianPulse(peak=1.1, center=0.8, width=0.25)
    mirrored = GaussianPulse(peak=-1.1, center=t_end - 0.8, width=0.25)
    forward = integrate(spec, pulse, IntegratorConfig(t_end=t_end, dt=ctx.dt))
    back = integrate(
        spec, mirrored, IntegratorConfig(t_end=t_end, dt=ctx.dt), a0=forward.final_amplitudes
    )
    dev = np.max(np.abs(back.final_amplitudes - initial_state(4)))
    assert dev <= 1e-7, f"gaussian reversal error {dev}"


def check_fourth_order(ctx: _Context):
    order = convergence_order(design_spec(3), CosinePulse(1.0, 0.7), t_probe=2.0, dt=ctx.dt)
    assert 3.7 <= order <= 4.3, f"cosine order {order}"
    order = convergence_order(_two_state_spec(), ConstantPulse(1.0), t_probe=2.0, dt=ctx.dt)
    assert 3.7 <= order <= 4.3, f"constant order {order}"
    zero = SystemSpec(n=2, coupling=ExplicitCoupling(np.zeros((2, 2))))
    assert math.isnan(convergence_order(zero, ConstantPulse(1.0), t_probe=1.0))


# ---------------------------------------------------------------------------
# analysis properties


def check_zero_ratio_zero_leakage(ctx: _Context):
    for n in (3, 4, 5):
        omega = design_transfer(n).cosine().omega
        points = leakage_scan(n, 1, omega, [0.0], dt=ctx.dt)
        assert points[0].leakage <= 1e-8, f"n={n}: {points[0].leakage}"


def check_fit_scale_equivariance(ctx: _Context):
    ratios = np.geomspace(0.01, 0.2, 6)
    base = [LeakagePoint(float(r), float(3.0 * r**2)) for r in ratios]
    fit = fit_power_law(base)
    assert abs(fit.exponent - 2.0) <= 1e-10 and abs(fit.coefficient - 3.0) <= 1e-10
    assert abs(fit.r_squared - 1.0) <= 1e-10
    scale = 0.17
    scaled = [LeakagePoint(p.detuning_ratio, p.leakage * scale) for p in base]
    fit_s = fit_power_law(scaled)
    assert abs(fit_s.exponent - fit.exponent) <= 1e-10
    assert abs(fit_s.coefficient - scale * fit.coefficient) <= 1e-10


def check_quadratic_leakage_regime(ctx: _Context):
    omega = design_transfer(4).cosine().omega
    points = leakage_scan(4, 1, omega, np.geomspace(0.01, 0.1, 6), dt=ctx.dt)
    fit = fit_power_law(points)
    assert 1.8 <= fit.exponent <= 2.2, f"exponent {fit.exponent}"
    assert abs(fit.coefficient) < 1.0, f"coefficient {fit.coefficient}"
    assert fit.r_squared >= 0.98, f"r2 {fit.r_squared}"


# ---------------------------------------------------------------------------
# cli properties


def _run_cli(argv: list[str]) -> int:
    """Invoke the CLI in-process with its prose output swallowed."""
    import contextlib
    import io

    from .cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def check_csv_deterministic(ctx: _Context):
    with tempfile.TemporaryDirectory() as tmp:
        out1 = os.path.join(tmp, "a.csv")
        out2 = os.path.join(tmp, "b.csv")
        argv = ["simulate", "--n", "3", "--samples", "60", "--porcelain"]
        assert _run_cli(argv + ["--out", out1]) == 0, "simulate run failed"
        assert _run_cli(argv + ["--out", out2]) == 0, "simulate rerun failed"
        with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
            b1, b2 = fh1.read(), fh2.read()
        assert b1 == b2, "repeated runs differ byte-wise"
        header = b1.decode().splitlines()[0]
        assert header.startswith("t,A,theta,P1,P2,P3_per_state,P3_total,norm")


def check_svg_self_contained(ctx: _Context):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.csv")
        svg1 = os.path.join(tmp, "a.svg")
        svg2 = os.path.join(tmp, "b.svg")
        argv = ["simulate", "--n", "4", "--samples", "50", "--porcelain", "--out", out]
        assert _run_cli(argv + ["--svg", svg1]) == 0, "simulate run failed"
        assert _run_cli(argv + ["--svg", svg2]) == 0, "simulate rerun failed"
        with open(svg1, "rb") as fh1, open(svg2, "rb") as fh2:
            b1, b2 = fh1.read(), fh2.read()
        assert b1 == b2, "SVG output is not deterministic"
        text = b1.decode()
        assert "href" not in text and "url(" not in text, "SVG references external data"
        assert text.startswith("<?xml") and "</svg>" in text


CHECKS = [
    ("model.pulse_area_matches_quadrature", check_pulse_area_matches_quadrature),
    ("model.coupling_symmetry", check_coupling_symmetry),
    ("model.area_inversion_roundtrip", check_area_inversion_roundtrip),
    ("spectral.sector_matches_full_matrix", check_sector_matches_full_matrix),
    ("spectral.population_conservation", check_population_conservation),
    ("spectral.manifold_symmetry", check_manifold_symmetry),
    ("spectral.design_complete_transfer", check_design_complete_transfer),
    ("spectral.universal_profile_exact_n3", check_universal_profile_exact_n3),
    ("spectral.universal_profile_endpoints", check_universal_profile_endpoints),
    ("spectral.propagator_unitary_group", check_propagator_unitary_group),
    ("integrator.matches_analytic", check_integrator_matches_analytic),
    ("integrator.norm_conserved", check_norm_conserved),
    ("integrator.kick_jump_limit", check_kick_jump_limit),
    ("integrator.time_reversal", check_time_reversal),
    ("integrator.fourth_order", check_fourth_order),
    ("analysis.zero_ratio_zero_leakage", check_zero_ratio_zero_leakage),
    ("analysis.fit_scale_equivariance", check_fit_scale_equivariance),
    ("analysis.quadratic_leakage_regime", check_quadratic_leakage_regime),
    ("cli.csv_deterministic", check_csv_deterministic),
    ("cli.svg_self_contained", check_svg_self_contained),
]


def run_selftest(name_filter=None, dt_override=None, seed=20240) -> list[CheckResult]:
    """Run all (or a filtered subset of) property checks; never raises."""
    results = []
    for name, func in CHECKS:
        if name_filter and name_filter not in name:
            continue
        ctx = _Context(rng=np.random.default_rng(seed), dt=dt_override)
        try:
            func(ctx)
            results.append(CheckResult(name=name, ok=True))
        except AssertionError as exc:
            results.append(CheckResult(name=name, ok=False, detail=str(exc)))
        except Exception as exc:  # noqa: BLE001 - report, never crash the suite
            results.append(
                CheckResult(name=name, ok=False, detail=f"{type(exc).__name__}: {exc}")
            )
    return results
