"""Problem-statement types for driven n-state systems.

The physical setup: n levels with energies ``E_k`` (atomic units) coupled by a
shared external envelope, ``V_kj(t) = W_kj * V(t)`` with a constant real
symmetric matrix ``W`` of relative strengths.  When every ``E_k`` is equal the
dynamics depend on time only through the accumulated phase area
``A(t) = integral of V from 0 to t``, so this module also owns the exact
closed-form area calculus for each pulse shape and its inversion (find the
time at which a requested area is first reached).

The partially symmetric coupling layout treats states 3..n as mutually
equivalent:

* ``W[0,0] = eps1``, ``W[1,1] = eps2``, ``W[j,j] = eps3`` for ``j >= 3``
* ``W[0,1] = alpha`` (launch-to-target)
* ``W[0,j] = beta`` and ``W[1,j] = gamma`` for ``j >= 3``
* ``W[j,k] = gamma`` for distinct ``j, k >= 3``

State labels are 1-based in the physics (launch state 1, target state 2);
array indices are 0-based as usual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    StructuredRequiresN3Error,
    UnreachableAreaError,
)

_ERF_VEC = np.vectorize(math.erf, otypes=[float])
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def _require_finite(obj, names=None) -> None:
    """Reject NaN or infinite values in the named attributes (default: every field)."""
    for name in names or [f.name for f in fields(obj)]:
        values = np.asarray(getattr(obj, name), dtype=np.float64)
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {float(bad[0])!r}")


@dataclass(frozen=True)
class StructuredCoupling:
    """Partially symmetric coupling ratios (states 3..n mutually equivalent)."""

    alpha: float
    beta: float = 1.0
    gamma: float = 1.0
    epsilon: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.epsilon) != 3:
            raise ValueError("epsilon must hold three diagonal ratios")
        _require_finite(self)


@dataclass(frozen=True)
class ExplicitCoupling:
    """A full n-by-n relative-strength matrix, validated for exact symmetry."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("coupling matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        _require_finite(self)


@dataclass(frozen=True)
class SystemSpec:
    """State count, per-level energies, and the coupling description."""

    n: int
    coupling: StructuredCoupling | ExplicitCoupling
    energies: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two states")
        energies = tuple(float(e) for e in self.energies)
        if not energies:
            energies = (0.0,) * self.n
        if len(energies) != self.n:
            raise ValueError(f"expected {self.n} energies, got {len(energies)}")
        object.__setattr__(self, "energies", energies)
        _require_finite(self, ("energies",))

    @property
    def degenerate(self) -> bool:
        """True when every level shares the same energy."""
        return all(e == self.energies[0] for e in self.energies)


@dataclass(frozen=True)
class CosinePulse:
    chi: float
    omega: float

    def __post_init__(self):
        _require_finite(self)
        if not self.omega > 0:
            raise ValueError("cosine pulse needs omega > 0")


@dataclass(frozen=True)
class ConstantPulse:
    v0: float

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class GaussianPulse:
    peak: float
    center: float
    width: float

    def __post_init__(self):
        _require_finite(self)
        if not self.width > 0:
            raise ValueError("gaussian pulse needs width > 0")


@dataclass(frozen=True)
class KickTrain:
    """A train of impulsive kicks (time, area); never sampled, only jumped."""

    kicks: tuple[tuple[float, float], ...]

    def __post_init__(self):
        kicks = tuple((float(t), float(a)) for t, a in self.kicks)
        object.__setattr__(self, "kicks", kicks)
        _require_finite(self, ("times", "areas"))
        times = [t for t, _ in kicks]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("kick times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.kicks])

    @property
    def areas(self) -> np.ndarray:
        return np.array([a for _, a in self.kicks])


Pulse = CosinePulse | ConstantPulse | GaussianPulse | KickTrain


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled state of one run: populations, phase area, and norm.

    ``populations[m, k]`` is ``|a_k|^2`` at ``times[m]``.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    populations: np.ndarray
    areas: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        p = np.asarray(self.populations)
        if p.size and (p.min() < -1e-9 or p.max() > 1.0 + 1e-9):
            raise ValueError("populations escaped [0, 1] beyond tolerance")

    @property
    def n(self) -> int:
        return self.populations.shape[1]

    @property
    def p1(self) -> np.ndarray:
        return self.populations[:, 0]

    @property
    def p2(self) -> np.ndarray:
        return self.populations[:, 1]

    @property
    def p3_per_state(self) -> np.ndarray:
        """Mean population of states 3..n (zeros for a 2-state system)."""
        if self.n <= 2:
            return np.zeros(self.populations.shape[0])
        return self.populations[:, 2:].mean(axis=1)

    @property
    def p3_total(self) -> np.ndarray:
        if self.n <= 2:
            return np.zeros(self.populations.shape[0])
        return self.populations[:, 2:].sum(axis=1)

    @property
    def final_amplitudes(self) -> np.ndarray:
        return self.amplitudes[-1]


def make_trajectory(times, amplitudes, areas) -> Trajectory:
    """Assemble a Trajectory from amplitude samples (populations and norms derived)."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    pops = amps.real**2 + amps.imag**2
    return Trajectory(
        times=np.asarray(times, dtype=np.float64),
        amplitudes=amps,
        populations=pops,
        areas=np.asarray(areas, dtype=np.float64),
        norms=pops.sum(axis=1),
    )


def initial_state(n: int) -> np.ndarray:
    """Unit amplitude in the launch state: a_1 = 1, all others 0."""
    a = np.zeros(n, dtype=np.complex128)
    a[0] = 1.0
    return a


def build_coupling(spec: SystemSpec) -> np.ndarray:
    """Construct the relative-strength matrix W for a system description.

    Explicit matrices are passed through after an exact symmetry check; the
    structured form is laid out so that mirrored entries are bitwise equal.
    """
    c = spec.coupling
    if isinstance(c, ExplicitCoupling):
        m = c.matrix
        if m.shape != (spec.n, spec.n):
            raise ValueError(f"explicit matrix is {m.shape}, expected ({spec.n}, {spec.n})")
        if not np.array_equal(m, m.T):
            raise AsymmetricMatrixError("explicit coupling matrix must be exactly symmetric")
        return m

    n = spec.n
    e1, e2, e3 = c.epsilon
    if n == 2:
        # Only the {alpha, epsilon} slice of the structured form is meaningful
        # for two states; asking for beta/gamma structure is an error.
        if c.beta != 1.0 or c.gamma != 1.0:
            raise StructuredRequiresN3Error("beta/gamma structure needs n >= 3")
        w = np.array([[e1, c.alpha], [c.alpha, e2]], dtype=np.float64)
        w.setflags(write=False)
        return w

    w = np.full((n, n), c.gamma, dtype=np.float64)
    w[0, 1] = w[1, 0] = c.alpha
    w[0, 2:] = w[2:, 0] = c.beta
    np.fill_diagonal(w, e3)
    w[0, 0] = e1
    w[1, 1] = e2
    w.setflags(write=False)
    return w


def pulse_value(p: Pulse, t):
    """Instantaneous envelope V(t) of a smooth pulse; kick trains have none."""
    t_arr = np.asarray(t, dtype=np.float64)
    if isinstance(p, CosinePulse):
        out = p.chi * np.cos(p.omega * t_arr)
    elif isinstance(p, ConstantPulse):
        out = np.full_like(t_arr, p.v0)
    elif isinstance(p, GaussianPulse):
        u = (t_arr - p.center) / p.width
        out = p.peak * np.exp(-0.5 * u * u)
    else:
        raise TypeError(f"unknown pulse type {type(p).__name__}")
    return float(out) if np.ndim(t) == 0 else out


def pulse_area(p: Pulse, t):
    """Exact phase area A(t), the integral of V from 0 to t.

    Kick-train areas are right-continuous steps: the kick at ``t_i`` is
    included as soon as ``t >= t_i``.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if isinstance(p, CosinePulse):
        out = (p.chi / p.omega) * np.sin(p.omega * t_arr)
    elif isinstance(p, ConstantPulse):
        out = p.v0 * t_arr
    elif isinstance(p, GaussianPulse):
        scale = p.peak * p.width * _SQRT_HALF_PI
        lo = math.erf(-p.center / (p.width * math.sqrt(2.0)))
        out = scale * (_ERF_VEC((t_arr - p.center) / (p.width * math.sqrt(2.0))) - lo)
    elif isinstance(p, KickTrain):
        cum = np.concatenate(([0.0], np.cumsum(p.areas)))
        out = cum[np.searchsorted(p.times, t_arr, side="right")]
    else:
        raise TypeError(f"unknown pulse type {type(p).__name__}")
    return float(out) if np.ndim(t) == 0 else out


def _bisect_area(p: Pulse, target: float, lo: float, hi: float, tol: float) -> float:
    """The time in ``[lo, hi]`` at which the area crosses ``target``; the ends must straddle it."""
    f_lo = pulse_area(p, lo) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = pulse_area(p, mid) - target
        if abs(f_mid) <= tol and (hi - lo) <= 1e-15 * max(1.0, hi):
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_area(p: Pulse, a_target: float) -> float:
    """Smallest t0 > 0 at which the pulse has accumulated ``a_target``.

    Cosine and constant pulses invert in closed form.  A gaussian is found by
    bracketing plus bisection to an absolute tolerance of
    ``1e-12 * max(1, |a_target|)``.  Raises ``Unreachable`` when the pulse can
    never reach the requested area (cosine beyond chi/omega, constant with a
    sign mismatch, or gaussian beyond its total weight).  A zero target
    returns t0 = 0.  Kick trains are applied as exact jumps, never inverted,
    and raise ``TypeError`` like any other non-pulse.
    """
    if not isinstance(p, (CosinePulse, ConstantPulse, GaussianPulse)):
        raise TypeError(f"unknown pulse type {type(p).__name__}")
    target = float(a_target)
    if not math.isfinite(target):
        raise ValueError("target area must be finite")
    if target == 0.0:
        return 0.0

    if isinstance(p, CosinePulse):
        amax = abs(p.chi) / p.omega
        if abs(target) > amax * (1.0 + 1e-12):
            raise UnreachableAreaError(f"cosine pulse area is capped at {amax!r}")
        phase = math.asin(min(1.0, abs(target) / amax))
        if (target > 0.0) == (p.chi > 0.0):
            # first rising (for chi > 0) quarter-wave reaches the target
            return phase / p.omega
        # opposite sign is first reached on the falling half-wave
        return (math.pi + phase) / p.omega

    if isinstance(p, ConstantPulse):
        if p.v0 == 0.0 or (target > 0.0) != (p.v0 > 0.0):
            raise UnreachableAreaError("constant pulse sign cannot reach the target")
        return target / p.v0

    if (target > 0.0) != (p.peak > 0.0):
        raise UnreachableAreaError("gaussian pulse sign cannot reach the target")
    total = p.peak * p.width * _SQRT_HALF_PI * (
        1.0 + math.erf(p.center / (p.width * math.sqrt(2.0)))
    )
    if abs(target) >= abs(total) * (1.0 - 1e-12):
        raise UnreachableAreaError("target exceeds the gaussian's total area")
    hi = p.center + 4.0 * p.width
    while abs(pulse_area(p, hi)) < abs(target):
        hi += 4.0 * p.width
    return _bisect_area(p, target, 0.0, hi, 1e-12 * max(1.0, abs(target)))


def pulse_amplitude_scale(p: Pulse) -> float:
    """Magnitude scale of V(t), used for the integrator's default step heuristic."""
    if isinstance(p, CosinePulse):
        return abs(p.chi)
    if isinstance(p, ConstantPulse):
        return abs(p.v0)
    if isinstance(p, GaussianPulse):
        return abs(p.peak)
    raise TypeError(f"unknown pulse type {type(p).__name__}")
