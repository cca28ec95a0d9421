"""Derived results: detuning leakage and its power-law fit.

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
    UnreachableAreaError,
)
from .integrator import MAX_STEPS, IntegratorConfig, integrate_many
from .model import CosinePulse, StructuredCoupling, SystemSpec, invert_area
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
