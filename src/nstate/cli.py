"""Command-line surface: design transfers, simulate, kick schedules, leakage scans.

Subcommands
-----------
design    print the complete-transfer coupling ratio and pulse area for n states
simulate  run the analytic and/or RK4 routes and emit a CSV (optionally an SVG)
kick      propagate a delta-kick schedule and emit pre/post-kick CSV rows
leakage   scan detuning ratios, emit ratio/leakage CSV plus a power-law fit line
selftest  run the cross-module invariant suite and report pass/fail per property

Conventions
-----------
* CSV floats carry 17 significant digits with LF line endings, so repeated
  runs of the same configuration are byte-identical.
* Machine output (CSV, porcelain key=value lines) goes to --out or stdout;
  prose goes to stderr whenever stdout carries data.
* Every failure prints a single ``error=<Name>`` line on stderr.  Exit codes:
  0 success, 1 selftest failure, 2 usage/configuration, 3 numerical failure.

Config files are flat ``key = value`` lines under ``[system]``, ``[pulse]``
and ``[run]`` headers, and each key has the flag ``--`` plus its name (``-``
for ``_``; ``shape`` is ``--pulse``).  One table says which subcommands and
pulse shapes read each key.  A key that the subcommand or the pulse shape does
not read exits 2 with ``error=Config`` (an unregistered flag with
``error=Usage``), so no input is silently ignored.  Flags override the file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analysis import fit_power_law, leakage_scan
from .errors import NUMERICAL_ERRORS, ConfigError, NonPositiveValueError, NStateError
from .integrator import (
    IntegratorConfig,
    check_sample_count,
    integrate,
    integrate_kicks,
    step_count,
)
from .model import (
    ConstantPulse,
    CosinePulse,
    ExplicitCoupling,
    GaussianPulse,
    KickTrain,
    StructuredCoupling,
    SystemSpec,
    Trajectory,
    invert_area,
)
from .spectral import design_transfer, evolve_analytic

CSV_COLUMNS = ["t", "A", "theta", "P1", "P2", "P3_per_state", "P3_total", "norm"]
RK4_COLUMNS = ["P1_rk4", "P2_rk4", "P3_per_state_rk4", "P3_total_rk4", "norm_rk4"]


class _Key(NamedTuple):
    """One input: its config section, its type, and who reads it."""

    section: str
    type: type
    commands: str  # the subcommands that read the key, space separated
    shapes: str = ""  # the pulse shapes that read it; empty: read whatever the shape
    flag: str = ""  # default: "--" and the key with "_" as "-"
    choices: tuple | None = None
    positive: bool = False
    help: str | None = None


_SHAPES = ("cosine", "constant", "gaussian", "kicks")

# The one table of config keys and their flags: it registers each subcommand's
# flags, checks each config file against what the subcommand reads, and
# merges the two (flags win).
_KEYS = {
    "n": _Key("system", int, "design simulate kick leakage"),
    "n0": _Key("run", int, "design simulate kick leakage"),
    "alpha": _Key("system", float, "simulate kick"),
    "beta": _Key("system", float, "simulate kick"),
    "gamma": _Key("system", float, "simulate kick"),
    "epsilon": _Key("system", str, "simulate kick"),
    "energies": _Key("system", str, "simulate kick"),
    "matrix": _Key("system", str, "simulate kick"),
    "shape": _Key("pulse", str, "design simulate", flag="--pulse", choices=_SHAPES),
    "chi": _Key("pulse", float, "design simulate leakage", "cosine"),
    "omega": _Key("pulse", float, "design simulate leakage", "cosine"),
    "v0": _Key("pulse", float, "design simulate", "constant"),
    "peak": _Key("pulse", float, "design simulate", "gaussian"),
    "center": _Key("pulse", float, "design simulate", "gaussian"),
    "width": _Key("pulse", float, "design simulate", "gaussian"),
    "t_end": _Key("run", float, "simulate kick"),
    "samples": _Key("run", int, "simulate kick", positive=True),
    "dt": _Key("run", float, "simulate leakage selftest", positive=True),
    "method": _Key("run", str, "simulate", choices=("analytic", "rk4", "both")),
    "kicks": _Key("pulse", str, "kick", "kicks", help="t:area[:i-j] tokens, comma separated"),
}

# The pulse shape each subcommand drives unless a shape is given; only design
# and simulate take one, and a kick config may restate its own.
_DEFAULT_SHAPE = {"design": None, "simulate": "cosine", "kick": "kicks", "leakage": "cosine"}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems in the machine-parsable format."""

    def error(self, message):
        print("error=Usage", file=sys.stderr)
        print(message, file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# configuration handling


def parse_config_text(text: str, command: str | None = None) -> dict[str, dict[str, str]]:
    """Parse flat ``[section]`` / ``key = value`` lines.

    A key the table does not place in its section is fatal, and so, when
    ``command`` is given, is a key that subcommand does not read.
    """
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("system", "pulse", "run"):
                raise ConfigError(f"unknown section [{current}] at line {lineno}")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"expected 'key = value' inside a section at line {lineno}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _KEYS or _KEYS[key].section != current:
            raise ConfigError(f"unknown key '{key}' in section [{current}] at line {lineno}")
        restates_shape = key == "shape" and value.lower() == _DEFAULT_SHAPE.get(command)
        if command and command not in _KEYS[key].commands.split() and not restates_shape:
            raise ConfigError(
                f"key '{key}' in section [{current}] at line {lineno} is not read by {command}"
            )
        sections[current][key] = value
    return sections


def _inputs(args) -> dict:
    """The subcommand's inputs: config entries overridden by flags, shape resolved.

    A shape the subcommand does not drive (``kicks`` outside ``kick``) is
    fatal, and so is a pulse key that the resolved pulse shape does not read.
    """
    values = {}
    if getattr(args, "config", None):
        for section in parse_config_text(_read_config(args), args.command).values():
            values.update(section)
    for key in _KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    shape = _get(values, "shape", _DEFAULT_SHAPE.get(args.command))
    if shape is not None:
        # a subcommand drives a shape only when it reads every key of that shape
        shape_keys = [spec for spec in _KEYS.values() if shape in spec.shapes.split()]
        if any(args.command not in spec.commands.split() for spec in shape_keys):
            raise ConfigError(f"key 'shape' is {shape}, a pulse shape {args.command} does not drive")
        values["shape"] = shape
    for key in values:
        if _KEYS[key].shapes and shape not in _KEYS[key].shapes.split():
            reader = f"pulse shape {shape}" if shape else f"{args.command} without --pulse"
            raise ConfigError(f"key '{key}' in section [pulse] is not read by {reader}")
    return values


def _get(values: dict, key: str, default=None):
    """``values[key]`` parsed as the table's type for ``key``, or ``default``."""
    if key not in values:
        return default
    spec = _KEYS[key]
    try:
        value = spec.type(values[key])
    except ValueError as exc:
        kind = "an integer" if spec.type is int else "a number"
        raise ConfigError(f"key '{key}' is not {kind}: {values[key]!r}") from exc
    if spec.type is float and not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {value!r}")
    if spec.positive and not value > 0:
        raise ConfigError(f"key '{key}' must be positive, got {value!r}")
    if spec.choices:
        value = value.lower()
        if value not in spec.choices:
            choices = ", ".join(spec.choices)
            raise ConfigError(f"key '{key}' must be one of {choices}, got {value!r}")
    return value


def _required_n(values: dict) -> int:
    n = _get(values, "n")
    if n is None:
        raise ConfigError("missing required key 'n' ([system] n or --n)")
    return n


def _parse_float_list(text: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"key '{key}' is not a comma list of numbers: {text!r}") from exc


@dataclass
class RunSetup:
    """Fully resolved inputs for simulate/kick: system, pulse, run block."""

    spec: SystemSpec
    pulse: object
    relabels: list | None
    t_end: float | None
    dt: float | None
    samples: int
    n0: int
    method: str


def build_run_setup(values: dict) -> RunSetup:
    n = _required_n(values)
    n0 = _get(values, "n0", 1)

    if "matrix" in values:
        rows = [_parse_float_list(r, "matrix") for r in values["matrix"].split(";")]
        if len(rows) != n or any(len(row) != n for row in rows):
            lengths = ",".join(str(len(row)) for row in rows)
            raise ConfigError(f"key 'matrix' needs {n} rows of {n} values, got rows of {lengths}")
        coupling = ExplicitCoupling(np.array(rows, dtype=np.float64))
    else:
        alpha = _get(values, "alpha")
        if alpha is None:
            alpha = design_transfer(n, n0).alpha  # the designed launch-to-target ratio
        eps = (0.0, 0.0, 0.0)
        if "epsilon" in values:
            eps = tuple(_parse_float_list(values["epsilon"], "epsilon"))
            if len(eps) != 3:
                raise ConfigError("'epsilon' needs exactly three values")
        coupling = StructuredCoupling(
            alpha=alpha,
            beta=_get(values, "beta", 1.0),
            gamma=_get(values, "gamma", 1.0),
            epsilon=eps,
        )
    energies = ()
    if "energies" in values:
        energies = tuple(_parse_float_list(values["energies"], "energies"))
    spec = SystemSpec(n=n, coupling=coupling, energies=energies)
    pulse, relabels = _build_pulse(values, n, n0)
    return RunSetup(
        spec=spec,
        pulse=pulse,
        relabels=relabels,
        t_end=_get(values, "t_end"),
        dt=_get(values, "dt"),
        samples=_get(values, "samples", 400),
        n0=n0,
        method=_get(values, "method", "both"),
    )


def _build_pulse(values: dict, n: int, n0: int):
    """Build the ``values["shape"]`` pulse; a cosine without omega is the design's drive."""
    shape = values["shape"]
    relabels = None
    if shape == "cosine":
        chi = _get(values, "chi", 1.0)
        omega = _get(values, "omega")
        if omega is None:
            pulse = design_transfer(n, n0).cosine(chi)
        else:
            pulse = CosinePulse(chi=chi, omega=omega)
    elif shape == "constant":
        v0 = _get(values, "v0")
        if v0 is None:
            raise ConfigError("constant pulse needs 'v0'")
        pulse = ConstantPulse(v0=v0)
    elif shape == "gaussian":
        peak = _get(values, "peak")
        width = _get(values, "width")
        if peak is None or width is None:
            raise ConfigError("gaussian pulse needs 'peak' and 'width'")
        pulse = GaussianPulse(peak=peak, center=_get(values, "center", 0.0), width=width)
    elif "kicks" not in values:
        pulse = KickTrain(kicks=())
    else:
        kicks, relabels = _parse_kicks(values["kicks"])
        pulse = KickTrain(kicks=tuple(kicks))
    return pulse, relabels


def _parse_kicks(text: str):
    """Parse ``t:area[:i-j]`` tokens; the i-j pair relabels states after that kick."""
    kicks, relabels = [], []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"kick token {token!r} is not 't:area' or 't:area:i-j'")
        try:
            kicks.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"kick token {token!r} has non-numeric fields") from exc
        if len(parts) == 3 and parts[2]:
            try:
                i, j = (int(x) for x in parts[2].split("-"))
            except ValueError as exc:
                raise ConfigError(f"relabel field in {token!r} is not 'i-j'") from exc
            relabels.append((i, j))
        else:
            relabels.append(None)
    return kicks, relabels


# ---------------------------------------------------------------------------
# output helpers


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    row = ",".join(["%.17g"] * len(columns))
    # one float64 table, formatted a row at a time: Python floats for every
    # cell at once would hold about 1 MB more at the op's peak
    table = np.column_stack([np.asarray(col, dtype=np.float64) for col in columns])
    lines = [",".join(header)] + [row % tuple(cells) for cells in table]
    lines.append("")  # the trailing newline, without a second copy of the joined text
    return "\n".join(lines)


def _trajectory_columns(traj: Trajectory, theta_scale: float) -> list[np.ndarray]:
    return [
        traj.times,
        traj.areas,
        traj.areas * theta_scale,
        traj.p1,
        traj.p2,
        traj.p3_per_state,
        traj.p3_total,
        traj.norms,
    ]


def render_svg(times, p1, p2, p3_scaled, title: str) -> str:
    """Self-contained population plot: P1 long-dashed, P2 solid, (n-2)P3 short-dashed."""
    width, height = 640.0, 400.0
    left, right, top, bottom = 64.0, 596.0, 36.0, 356.0
    t0, t1 = float(times[0]), float(times[-1])
    span = (t1 - t0) or 1.0

    def xpix(t):
        return left + (right - left) * (t - t0) / span

    def ypix(y):
        return bottom - (bottom - top) * y / 1.05

    xs = xpix(np.asarray(times, dtype=np.float64)).tolist()

    def polyline(values, dash):
        ys = ypix(np.asarray(values, dtype=np.float64)).tolist()
        pts = " ".join(["%.2f,%.2f" % xy for xy in zip(xs, ys)])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline fill="none" stroke="black" stroke-width="1.3"{dash_attr} '
            f'points="{pts}"/>'
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{(left + right) / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + (right - left) * frac
        t_label = t0 + span * frac
        parts.append(
            f'<line x1="{x:.2f}" y1="{bottom:.2f}" x2="{x:.2f}" y2="{bottom + 5:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{bottom + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t_label:.3g}</text>'
        )
        y = ypix(frac)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 9:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{frac:.3g}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{height - 6:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">t</text>'
    )
    parts.append(polyline(p1, "9,5"))
    parts.append(polyline(p2, None))
    parts.append(polyline(p3_scaled, "2,4"))
    legend = [("P1", "9,5"), ("P2", None), ("(n-2) P3", "2,4")]
    for row, (label, dash) in enumerate(legend):
        y = top + 14 + 16 * row
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{right - 118:.2f}" y1="{y:.2f}" x2="{right - 78:.2f}" y2="{y:.2f}" '
            f'stroke="black" stroke-width="1.3"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{right - 72:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _report(lines_machine: list[str], lines_human: list[str], args, data_on_stdout: bool):
    """Porcelain lines are machine text; prose goes to stderr if stdout has data."""
    stream = sys.stderr if data_on_stdout else sys.stdout
    if args.porcelain:
        for line in lines_machine:
            print(line, file=stream)
    else:
        for line in lines_human:
            print(line, file=stream)


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(args) -> int:
    values = _inputs(args)
    n = _required_n(values)
    n0 = _get(values, "n0", 1)
    design = design_transfer(n, n0, negative=args.negative_branch)
    pairs: list[tuple[str, str]] = [("n", str(n)), ("n0", str(n0))]
    if n == 2:
        pairs.append(("A0", _fmt(design.area)))
    else:
        pairs += [
            ("alpha", _fmt(design.alpha)),
            ("beta", _fmt(design.beta)),
            ("A0", _fmt(design.area)),
            ("k", str(design.k)),
            ("k_prime", str(design.k_prime)),
        ]
    if "shape" in values:
        pulse, _ = _build_pulse(values, n, n0)
        pairs.append(("t0", _fmt(invert_area(pulse, design.area))))
    machine = [f"{key}={value}" for key, value in pairs]
    human = [f"{key} = {value}" for key, value in pairs]
    _report(machine, human, args, data_on_stdout=False)
    return 0


def cmd_simulate(args) -> int:
    setup = build_run_setup(_inputs(args))
    area0 = design_transfer(setup.spec.n, setup.n0).area
    t_end = invert_area(setup.pulse, area0) if setup.t_end is None else setup.t_end
    theta_scale = 2.0 * math.pi * setup.n0 / area0

    traj_rk4 = traj_ana = None
    if t_end == 0.0:
        times = np.array([0.0])
        if setup.method in ("analytic", "both"):
            traj_ana = evolve_analytic(setup.spec, setup.pulse, times)
        if setup.method in ("rk4", "both"):
            traj_rk4 = integrate(setup.spec, setup.pulse, IntegratorConfig(t_end=0.0))
    else:
        if setup.method in ("rk4", "both"):
            cfg = IntegratorConfig(t_end=t_end, dt=setup.dt)
            stride = max(1, step_count(setup.spec, setup.pulse, cfg) // setup.samples)
            cfg = replace(cfg, sample_stride=stride)
            traj_rk4 = integrate(setup.spec, setup.pulse, cfg)
        if setup.method in ("analytic", "both"):
            if traj_rk4 is not None:
                times = traj_rk4.times
            else:
                check_sample_count(setup.samples + 1, setup.spec.n)
                times = np.linspace(0.0, t_end, setup.samples + 1)
            traj_ana = evolve_analytic(setup.spec, setup.pulse, times)

    base = traj_ana if traj_ana is not None else traj_rk4
    columns = _trajectory_columns(base, theta_scale)
    header = list(CSV_COLUMNS)
    max_delta = None
    if setup.method == "both":
        header += RK4_COLUMNS
        columns += [
            traj_rk4.p1,
            traj_rk4.p2,
            traj_rk4.p3_per_state,
            traj_rk4.p3_total,
            traj_rk4.norms,
        ]
        max_delta = float(
            max(
                np.max(np.abs(traj_ana.p1 - traj_rk4.p1)),
                np.max(np.abs(traj_ana.p2 - traj_rk4.p2)),
                np.max(np.abs(traj_ana.p3_per_state - traj_rk4.p3_per_state)),
                np.max(np.abs(traj_ana.p3_total - traj_rk4.p3_total)),
            )
        )

    _emit(_csv_text(header, columns), args.out)
    if args.svg:
        n = setup.spec.n
        svg = render_svg(
            base.times,
            base.p1,
            base.p2,
            (n - 2) * base.p3_per_state if n > 2 else base.p3_total,
            title=f"populations, n={n}, method={setup.method}",
        )
        with open(args.svg, "w", newline="") as fh:
            fh.write(svg)

    machine = [f"rows={base.times.size}", f"t_end={_fmt(t_end)}"]
    human = [f"wrote {base.times.size} samples up to t = {_fmt(t_end)}"]
    if max_delta is not None:
        machine.append(f"max_delta={_fmt(max_delta)}")
        human.append(f"max |analytic - rk4| over population columns = {_fmt(max_delta)}")
    _report(machine, human, args, data_on_stdout=args.out is None)
    return 0


def cmd_kick(args) -> int:
    setup = build_run_setup(_inputs(args))
    train = setup.pulse
    if setup.t_end is not None:
        t_end = setup.t_end
    elif train.kicks:
        t_end = train.kicks[-1][0] + 1.0
    else:
        t_end = 1.0
    traj = integrate_kicks(
        setup.spec,
        train,
        t_end,
        samples=setup.samples + 1,
        relabels=setup.relabels,
    )
    theta_scale = 2.0 * math.pi * setup.n0 / design_transfer(setup.spec.n, setup.n0).area
    _emit(_csv_text(list(CSV_COLUMNS), _trajectory_columns(traj, theta_scale)), args.out)
    fired = sum(t <= t_end for t, _ in train.kicks)  # integrate_kicks applies these
    machine = [f"rows={traj.times.size}", f"kicks={fired}"]
    human = [f"wrote {traj.times.size} samples through {fired} kicks"]
    _report(machine, human, args, data_on_stdout=args.out is None)
    return 0


def _parse_ratios(text: str) -> list[float]:
    text = text.strip()
    if text.startswith("geom:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError("geometric ratio syntax is geom:<lo>:<hi>:<count>")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"bad geometric ratio argument {text!r}") from exc
        if lo <= 0 or hi <= lo or count < 2:
            raise ConfigError("geometric ratio range needs 0 < lo < hi and count >= 2")
        return list(np.geomspace(lo, hi, count))
    return _parse_float_list(text, "ratios")


def cmd_leakage(args) -> int:
    values = _inputs(args)
    n = _required_n(values)
    ratios = _parse_ratios(args.ratios)
    if any(r >= 1.0 for r in ratios):
        raise ConfigError("ratios must stay below 1 (weak-splitting regime)")
    if any(r < 0.0 for r in ratios):
        raise ConfigError("ratios must be non-negative")
    if not all(r > 0.0 for r in ratios):
        # fail before the scan runs, not in the log-log fit afterwards
        raise NonPositiveValueError("the power-law fit needs strictly positive ratios")
    n0 = _get(values, "n0", 1)
    pulse, _ = _build_pulse(values, n, n0)
    points = leakage_scan(n, n0, pulse.omega, ratios, chi=pulse.chi, dt=_get(values, "dt"))
    fit = fit_power_law(points)
    csv = _csv_text(
        ["ratio", "leakage"],
        [
            np.array([p.detuning_ratio for p in points]),
            np.array([p.leakage for p in points]),
        ],
    )
    _emit(csv, args.out)
    print(
        f"exponent={_fmt(fit.exponent)}, c={_fmt(fit.coefficient)}, r2={_fmt(fit.r_squared)}"
    )
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    dt = _get(_inputs(args), "dt")
    results = run_selftest(name_filter=args.filter, dt_override=dt, seed=args.seed)
    failures = 0
    for res in results:
        if res.ok:
            print(f"pass {res.name}")
        else:
            failures += 1
            print(f"FAIL {res.name}: {res.detail}")
    print(f"{len(results) - failures}/{len(results)} properties passed")
    return 0 if failures == 0 else 1


def _read_config(args) -> str:
    try:
        with open(args.config, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    # each subcommand registers only the flags it reads, so any other exits 2
    parser = _Parser(prog="nstate", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    out = ("--out", dict(help="write CSV here instead of stdout"))
    config = ("--config", dict(help="path to a [section] key=value config file"))
    porcelain = ("--porcelain", dict(action="store_true", help="machine key=value output"))

    def add(command, func, text, *own):
        sub = subs.add_parser(command, help=text)
        for flag, kwargs in own:
            sub.add_argument(flag, **kwargs)
        for key, spec in _KEYS.items():
            if command in spec.commands.split():
                flag = spec.flag or "--" + key.replace("_", "-")
                sub.add_argument(
                    flag, dest=key, type=spec.type, choices=spec.choices, help=spec.help
                )
        sub.set_defaults(func=func)

    branch = dict(action="store_true", help="take the falling-area branch")
    add("design", cmd_design, "print complete-transfer conditions",
        porcelain, ("--negative-branch", branch))  # fmt: skip
    add("simulate", cmd_simulate, "run analytic and/or RK4 trajectories", config, out,
        ("--svg", dict(help="also write a line plot to this SVG path")), porcelain)  # fmt: skip
    add("kick", cmd_kick, "propagate a delta-kick schedule", config, out, porcelain)
    ratios = dict(required=True, help="comma list or geom:<lo>:<hi>:<count>")
    add("leakage", cmd_leakage, "detuning-ratio leakage scan and fit", out, ("--ratios", ratios))
    add("selftest", cmd_selftest, "run the cross-module invariant suite",
        ("--seed", dict(type=int, default=20240, help="seed for randomized checks")),
        ("--filter", dict(help="run only properties whose name contains this")))  # fmt: skip
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except NStateError as exc:
        print(f"error={exc.code}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 3 if isinstance(exc, NUMERICAL_ERRORS) else 2
    except (ValueError, TypeError) as exc:
        print("error=Config", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
