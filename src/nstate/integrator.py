"""Independent numerical route: fixed-step RK4 for i da/dt = (diag(E) + V(t) W) a.

This integrator deliberately knows nothing about the spectral closed forms,
so agreement between the two routes is a genuine cross-check.  It also covers
what the analytic route cannot: split (non-degenerate) level energies.  Delta
kicks are never sampled numerically; they are applied as exact propagator
jumps ``exp(-i A0 W)`` with exact free phases ``exp(-i E_k dt)`` between them.

The step size is fixed (no adaptivity) for bit-reproducible runs.  The
kernel takes each step of a batch whose runs all have degenerate levels as
one quartic polynomial in ``W`` and, when any run has split levels, as the
four nested RK4 stages; both are the classic RK4 step, and neither uses the
spectral closed forms.  The envelope reaches the kernel as the vector
:func:`~nstate.model.pulse_value`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import run_rk4
from .errors import NormDriftError, SampleCountOverflowError, StepCountOverflowError
from .model import (
    KickTrain,
    Pulse,
    SystemSpec,
    Trajectory,
    build_coupling,
    initial_state,
    make_trajectory,
    pulse_amplitude_scale,
    pulse_area,
    pulse_value,
)
from .spectral import eigen_decompose, evolve_analytic, propagator

NORM_DRIFT_LIMIT = 1e-8
MAX_STEPS = 10**9
MAX_SAMPLE_ELEMENTS = 2**25


def check_sample_count(rows: int, width: int) -> None:
    """Raise ``SampleCountOverflow`` before allocating ``rows`` samples of ``width`` amplitudes."""
    if rows * width > MAX_SAMPLE_ELEMENTS:
        raise SampleCountOverflowError(
            f"{rows} samples of {width} amplitudes requested; cap is {MAX_SAMPLE_ELEMENTS} elements"
        )


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step run parameters.

    ``dt`` is an upper bound on the step; the actual step is shrunk so an
    integer number of steps lands exactly on ``t_end``.  When ``dt`` is None a
    heuristic ties the step to the fastest system scale:
    ``1e-3 / max(1, ||W|| * chi, max |E_k|)``.  ``samples`` is the number of
    sample intervals: a run of ``steps`` steps keeps ``min(samples, steps)``
    equal intervals, each of ``ceil(steps / intervals)`` steps, so the step
    only ever shrinks and the rows are ``linspace(0, t_end, intervals + 1)``.
    None keeps every step.
    """

    t_end: float
    dt: float | None = None
    samples: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and non-negative, got {self.t_end!r}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")


def default_dt(spec: SystemSpec, p: Pulse) -> float:
    """Step heuristic bounded by the Frobenius norm of W times the drive scale."""
    w = build_coupling(spec)
    with np.errstate(over="ignore"):  # an infinite norm makes the step 0: StepCountOverflow
        w_norm = math.sqrt(float(np.sum(w * w)))
    scale = max(1.0, w_norm * pulse_amplitude_scale(p), max(abs(e) for e in spec.energies))
    return 1e-3 / scale


def step_grid(spec: SystemSpec, p: Pulse, cfg: IntegratorConfig) -> tuple[int, int]:
    """Fixed steps and sample stride for ``cfg``: ``dt`` (or :func:`default_dt`) shrunk to fit.

    The step count is rounded up to a whole number of steps in each of the
    ``min(samples, steps)`` sample intervals; ``MAX_STEPS`` caps the rounded count.
    """
    dt_req = cfg.dt if cfg.dt is not None else default_dt(spec, p)
    # an overflowing drive scale makes the heuristic step 0: that run has no step count
    steps = cfg.t_end / dt_req if dt_req > 0 else math.inf
    stride = 1
    if steps <= MAX_STEPS:
        steps = max(1, math.ceil(steps))
        if cfg.samples is not None:
            intervals = min(cfg.samples, steps)
            stride = -(-steps // intervals)
            steps = stride * intervals
    if steps > MAX_STEPS:
        raise StepCountOverflowError(f"{steps:.4g} steps requested; cap is {MAX_STEPS}")
    return steps, stride


def integrate_many(specs, p: Pulse, cfg: IntegratorConfig, a0=None) -> list[Trajectory]:
    """Propagate several systems under one pulse and one run config; one trajectory each.

    Every run starts from ``a0`` (default ``e_1``).  Runs that share ``n``, the
    coupling matrix and the resolved step count (hence ``dt``) form one batch
    and go through a single kernel call; the others form batches of their
    own.  Each trajectory equals what :func:`integrate` returns for that run
    alone, and they come back in input order.  ``NormDrift`` is raised when
    any run loses more than 1e-8 of its probability at any step end.
    """
    if isinstance(p, KickTrain):
        raise TypeError("kick trains are propagated by integrate_kicks, not sampled")
    specs = list(specs)

    def start(n: int) -> np.ndarray:
        return initial_state(n) if a0 is None else np.asarray(a0, dtype=np.complex128)

    if cfg.t_end == 0.0:
        area = pulse_area(p, 0.0)
        return [make_trajectory([0.0], [start(spec.n)], [area]) for spec in specs]

    batches: dict[tuple, tuple[np.ndarray, list[int]]] = {}
    for i, spec in enumerate(specs):
        w = build_coupling(spec)
        n_steps, stride = step_grid(spec, p, cfg)
        key = (spec.n, w.tobytes(), n_steps, stride)
        batches.setdefault(key, (w, []))[1].append(i)

    for (n, _, n_steps, stride), (_, members) in batches.items():
        check_sample_count(n_steps // stride + 1, len(members) * n)
    trajectories: list[Trajectory | None] = [None] * len(specs)
    envelope = functools.partial(pulse_value, p)
    for (n, _, n_steps, stride), (w, members) in batches.items():
        dt = cfg.t_end / n_steps
        energies = np.array([specs[i].energies for i in members], dtype=np.float64)
        batch_a0 = np.tile(start(n), (len(members), 1))
        sample_steps, amps, drift = run_rk4(w, energies, envelope, dt, n_steps, stride, batch_a0)
        worst = drift.max()
        # written so that a NaN drift fails the guard too; a smaller dt cannot mend that one
        if not worst <= NORM_DRIFT_LIMIT:
            advice = f"shrink dt below {dt:.3e}" if math.isfinite(worst) else "the drive overflows"
            raise NormDriftError(f"norm drifted by {worst:.3e}; {advice}")

        # row j holds step j * stride; its time j * stride * dt is this grid point to 2 ulps
        times = np.linspace(0.0, cfg.t_end, sample_steps.size)
        areas = np.asarray(pulse_area(p, times), dtype=np.float64)
        for b, i in enumerate(members):
            trajectories[i] = make_trajectory(times, amps[:, b], areas)
    return trajectories


def integrate(spec: SystemSpec, p: Pulse, cfg: IntegratorConfig, a0=None) -> Trajectory:
    """Propagate with classic RK4 from ``a(0) = e_1`` (or ``a0`` when given).

    Raises ``NormDrift`` when probability is lost beyond 1e-8 (the step is too
    coarse) and ``StepCountOverflow`` for runs needing more than 1e9 steps.
    Kick trains are rejected here; use :func:`integrate_kicks`.  This is the
    single-run case of :func:`integrate_many`.
    """
    return integrate_many([spec], p, cfg, a0)[0]


def integrate_kicks(
    spec: SystemSpec,
    train: KickTrain,
    t_end: float,
    samples: int = 200,
    relabels=None,
) -> Trajectory:
    """Evolve through a kick train: free phases between kicks, exact jumps at them.

    Each kick of area ``A0`` applies ``exp(-i A0 W)``;  between kicks the
    amplitudes only rotate by ``exp(-i E_k dt)``.  The trajectory is sampled
    on a uniform grid of ``samples`` intervals plus a pair of samples hugging
    every kick after t = 0 (one float below the kick time, and the kick time
    itself, which by the right-continuous convention already holds the
    post-kick state).

    ``relabels`` optionally gives, per kick, a pair of 1-based state labels to
    swap in the coupling matrix after that kick fires, so a subsequent kick
    can treat the freshly populated state as the new launch state.
    """
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if relabels is not None:
        if len(relabels) != len(train.kicks):
            raise ValueError("need one relabel entry (or None) per kick")
        for pair in relabels:
            if pair is None:
                continue
            i, j = pair
            if not (1 <= i <= spec.n and 1 <= j <= spec.n) or i == j:
                raise ValueError(f"relabel pair {pair} is not two distinct states in 1..{spec.n}")

    w = np.array(build_coupling(spec), dtype=np.float64)
    energies = np.asarray(spec.energies, dtype=np.float64)
    active = [(t, a) for t, a in train.kicks if t <= t_end]

    check_sample_count(samples + 1 + 2 * len(active), spec.n)
    grid = [np.linspace(0.0, t_end, samples + 1)] if t_end > 0 else [np.array([0.0])]
    for t_kick, _ in active:
        if t_kick > 0.0:
            grid.append(np.array([np.nextafter(t_kick, -np.inf), t_kick]))
    times = np.unique(np.concatenate(grid))

    es = eigen_decompose(w)
    a = initial_state(spec.n)
    t_cursor = 0.0
    next_kick = 0
    out = np.empty((times.size, spec.n), dtype=np.complex128)
    for m, t_sample in enumerate(times):
        while next_kick < len(active) and active[next_kick][0] <= t_sample:
            t_kick, kick_area = active[next_kick]
            a = a * np.exp(-1j * energies * (t_kick - t_cursor))
            t_cursor = t_kick
            a = propagator(es, kick_area) @ a
            if relabels is not None and relabels[next_kick] is not None:
                i, j = relabels[next_kick]
                idx = [i - 1, j - 1]
                w[idx, :] = w[idx[::-1], :]
                w[:, idx] = w[:, idx[::-1]]
                es = eigen_decompose(w)
            next_kick += 1
        a = a * np.exp(-1j * energies * (t_sample - t_cursor))
        t_cursor = float(t_sample)
        out[m] = a

    areas = np.asarray(pulse_area(train, times), dtype=np.float64)
    return make_trajectory(times, out, areas)


def convergence_order(spec: SystemSpec, p: Pulse, t_probe: float, dt: float | None = None):
    """Empirical integration order from errors at dt and dt/2 versus the exact route.

    Only meaningful for degenerate systems driven by a smooth pulse.  Returns
    log2(e(dt) / e(dt/2)), or NaN when either error vanishes (for example a
    zero coupling matrix, which RK4 reproduces exactly).
    """
    if not t_probe > 0:
        raise ValueError("t_probe must be positive")
    base_dt = dt if dt is not None else t_probe / 256.0
    reference = evolve_analytic(spec, p, [t_probe]).amplitudes[-1]

    def amplitude_error(step: float) -> float:
        n_steps = max(1, round(t_probe / step))
        cfg = IntegratorConfig(t_end=t_probe, dt=t_probe / n_steps, samples=1)
        traj = integrate(spec, p, cfg)
        return float(np.max(np.abs(traj.amplitudes[-1] - reference)))

    coarse = amplitude_error(base_dt)
    fine = amplitude_error(0.5 * base_dt)
    if coarse == 0.0 or fine == 0.0:
        return float("nan")
    return math.log2(coarse / fine)
