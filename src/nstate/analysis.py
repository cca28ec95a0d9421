"""Derived results: transfer fidelity, population extrema, and detuning leakage.

The leakage study perturbs a designed transfer with a uniform energy ladder
``E_k = (k-1) * r * omega`` (splitting-to-drive ratio ``r = omega_ij / omega``)
and records how much population misses the target state at the designed
transfer time.  In the probed regime the loss follows a power law close to
``c * r^2``, which is fitted by least squares in log-log space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InsufficientPointsError,
    NonPositiveValueError,
    OutOfRangeError,
    UnreachableAreaError,
)
from .integrator import MAX_STEPS, IntegratorConfig, integrate_many
from .model import CosinePulse, StructuredCoupling, SystemSpec, Trajectory, invert_area
from .spectral import design_transfer


@dataclass(frozen=True)
class LeakagePoint:
    """One scan point: splitting-to-drive ratio and 1 - P2 at the design time."""

    detuning_ratio: float
    leakage: float

    def __post_init__(self):
        if self.detuning_ratio < 0:
            raise ValueError("detuning ratio must be non-negative")
        if not 0.0 <= self.leakage <= 1.0:
            raise ValueError("leakage must lie in [0, 1]")


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    coefficient: float
    r_squared: float


def transfer_fidelity(traj: Trajectory, state: int, t0: float) -> float:
    """Population of ``state`` (1-based) linearly interpolated at time t0."""
    if not 1 <= state <= traj.n:
        raise ValueError(f"state must be in 1..{traj.n}")
    times = traj.times
    if t0 < times[0] or t0 > times[-1]:
        raise OutOfRangeError(f"t0={t0!r} outside sampled span [{times[0]!r}, {times[-1]!r}]")
    return float(np.interp(t0, times, traj.populations[:, state - 1]))


def find_extrema(traj: Trajectory, state: int) -> list[tuple[float, float]]:
    """Interior extrema of P_state(t) from slope sign changes, parabola-refined.

    Returns (time, value) pairs sorted by time; flat trajectories give an
    empty list.
    """
    if not 1 <= state <= traj.n:
        raise ValueError(f"state must be in 1..{traj.n}")
    t = traj.times
    y = traj.populations[:, state - 1]
    if t.size < 3:
        return []
    signs = np.sign(np.diff(y))
    segments = np.nonzero(signs)[0]
    extrema: list[tuple[float, float]] = []
    for left, right in zip(segments, segments[1:]):
        if signs[left] * signs[right] >= 0:
            continue
        # slope flips somewhere between segment `left` and segment `right`
        t0, t1, t2 = t[left], t[left + 1], t[right + 1]
        y0, y1, y2 = y[left], y[left + 1], y[right + 1]
        denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
        a = (t2 * (y1 - y0) + t1 * (y0 - y2) + t0 * (y2 - y1)) / denom
        b = (t2**2 * (y0 - y1) + t1**2 * (y2 - y0) + t0**2 * (y1 - y2)) / denom
        if a == 0.0:
            t_ext, y_ext = float(t1), float(y1)
        else:
            t_ext = -b / (2.0 * a)
            if not t0 <= t_ext <= t2:
                t_ext = float(t1)
            c = y1 - a * t1**2 - b * t1
            y_ext = float(a * t_ext**2 + b * t_ext + c)
        extrema.append((float(t_ext), float(y_ext)))
    return extrema


def leakage_ladder(n: int, ratio: float, pulse_omega: float) -> tuple[float, ...]:
    """Uniform energy ladder E_k = (k-1) * ratio * omega."""
    return tuple((k * ratio * pulse_omega) for k in range(n))


def leakage_scan(
    n: int,
    n0: int,
    pulse_omega: float,
    ratios: Sequence[float],
    chi: float = 1.0,
    dt: float | None = None,
) -> list[LeakagePoint]:
    """Leakage 1 - P2(t0) of the designed transfer under an energy ladder.

    For each ratio ``r`` the designed coupling is driven by ``chi cos(omega t)``
    up to the degenerate-design transfer time ``t0``; the levels are split by
    ``E_k = (k-1) r omega``.  Points come back in input order; each one is
    independent of the others, but runs that share a step grid are integrated
    as one batch.
    """
    ratios = [float(r) for r in ratios]
    if any(r < 0 for r in ratios):
        raise ValueError("ratios must be non-negative")
    if any(r >= 1 for r in ratios):
        raise ValueError("ratios must stay below 1 (weak-splitting regime)")
    design = design_transfer(n, n0)
    pulse = CosinePulse(chi=chi, omega=pulse_omega)
    if abs(chi) / pulse_omega < abs(design.area):
        raise UnreachableAreaError("pulse cannot accumulate the design area; lower omega")
    t0 = invert_area(pulse, design.area)

    specs = [
        SystemSpec(
            n=n,
            coupling=StructuredCoupling(alpha=design.alpha),
            energies=leakage_ladder(n, r, pulse_omega),
        )
        for r in ratios
    ]
    # only the state at t0 is read, so sample just the two endpoints
    cfg = IntegratorConfig(t_end=t0, dt=dt, sample_stride=MAX_STEPS)
    points = []
    for r, traj in zip(ratios, integrate_many(specs, pulse, cfg)):
        leak = min(1.0, max(0.0, 1.0 - float(traj.populations[-1, 1])))
        points.append(LeakagePoint(detuning_ratio=r, leakage=leak))
    return points


def fit_power_law(points: Sequence[LeakagePoint]) -> PowerLawFit:
    """Least-squares line in log-log space: leakage ~ coefficient * ratio^exponent."""
    if any(p.detuning_ratio <= 0.0 or p.leakage <= 0.0 for p in points):
        raise NonPositiveValueError("log-log fit needs strictly positive ratios and leakages")
    if len(points) < 3:
        raise InsufficientPointsError(f"need at least 3 points, got {len(points)}")
    x = np.log([p.detuning_ratio for p in points])
    y = np.log([p.leakage for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        exponent=float(slope),
        coefficient=float(np.exp(intercept)),
        r_squared=min(1.0, max(0.0, r2)),
    )
