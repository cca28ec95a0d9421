"""Seeded operations for the benchmark workloads, how one op runs, and the gate it must pass.

Every operation is one ``nstate`` CLI invocation of fixed size.  The seed only
varies values that leave the amount of work unchanged (drive strength, ratio
values, kick times, relabel pairs), so op times are comparable across seeds.
The program sees nothing but the generated argv.

The gates take their tolerances from ``tests/test_acceptance.py``: 1e-10 for
the exact routes, 1e-6 for RK4 agreement, 1e-12 for conservation, and a
leakage exponent in [1.8, 2.2] with |c| < 1 and r^2 >= 0.98.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

LEAK_N = 4
LEAK_POINTS = 8
TRANSFER_N = 48
KICK_N = 16
KICK_COUNT = 32
SAMPLES = 4000


def design_area(n: int) -> float:
    """Complete-transfer pulse area for n states and n0 = 1 (the paper's closed form)."""
    return math.pi * math.sqrt(9.0 / (18.0 * (n - 2) + 4.0 * (n - 3) ** 2))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _chi(rng: np.random.Generator) -> str:
    # chi only rescales time: with ||W|| chi >= 1 the step heuristic and the
    # design time both scale as 1/chi, so the step count stays fixed
    return repr(float(_log_uniform(rng, 0.5, 2.0)))


@dataclass(frozen=True)
class OpResult:
    """What one CLI invocation left behind: exit code, streams and written files."""

    argv: list[str]
    rc: int | None  # None when main raised
    stdout: str
    stderr: str
    files: dict[str, bytes]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _porcelain(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _csv(data: bytes) -> tuple[list[str], np.ndarray]:
    header, _, body = data.partition(b"\n")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return header.decode().split(","), table


# ---------------------------------------------------------------------------
# leakage_scan: 8 independent RK4 runs sharing one dt and t0, then a fit


def leakage_argv(rng: np.random.Generator, outdir: str) -> list[str]:
    ratios = _log_uniform(rng, 0.01, 0.1, LEAK_POINTS)
    return [
        "leakage", "--n", str(LEAK_N), "--chi", _chi(rng),
        "--ratios", ",".join(repr(float(r)) for r in ratios),
        "--out", f"{outdir}/leak.csv",
    ]  # fmt: skip


def leakage_check(op: OpResult) -> str | None:
    fit = {}
    for part in op.stdout.strip().split(","):
        key, _, value = part.strip().partition("=")
        fit[key] = float(value)
    if not 1.8 <= fit["exponent"] <= 2.2:
        return f"exponent {fit['exponent']} outside [1.8, 2.2]"
    if not abs(fit["c"]) < 1.0:
        return f"|c| = {abs(fit['c'])} not below 1"
    if not fit["r2"] >= 0.98:
        return f"r2 {fit['r2']} below 0.98"
    header, table = _csv(op.files[_flag(op.argv, "--out")])
    if header != ["ratio", "leakage"] or table.shape != (LEAK_POINTS, 2):
        return f"leakage CSV has header {header} and shape {table.shape}"
    ratios = [float(r) for r in _flag(op.argv, "--ratios").split(",")]
    if table[:, 0].tolist() != ratios:
        return "leakage CSV ratios differ from the requested ones"
    if not np.all((table[:, 1] >= 0.0) & (table[:, 1] <= 1.0)):
        return "a leakage lies outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# transfer_trace: the n=48 transfer figure by both routes, CSV and SVG


def transfer_argv(rng: np.random.Generator, outdir: str) -> list[str]:
    return [
        "simulate", "--n", str(TRANSFER_N), "--chi", _chi(rng),
        "--samples", str(SAMPLES), "--method", "both", "--porcelain",
        "--out", f"{outdir}/transfer.csv", "--svg", f"{outdir}/transfer.svg",
    ]  # fmt: skip


def transfer_check(op: OpResult) -> str | None:
    keys = _porcelain(op.stdout)
    max_delta = float(keys["max_delta"])
    if not max_delta <= 1e-6:
        return f"max_delta {max_delta} above 1e-6"
    header, table = _csv(op.files[_flag(op.argv, "--out")])
    col = {name: table[:, k] for k, name in enumerate(header)}
    if table.shape[0] != int(keys["rows"]):
        return f"CSV has {table.shape[0]} rows, porcelain says {keys['rows']}"
    if abs(col["P2"][-1] - 1.0) > 1e-10:
        return f"analytic final P2 = {col['P2'][-1]!r}"
    if abs(col["P2_rk4"][-1] - 1.0) > 1e-6:
        return f"RK4 final P2 = {col['P2_rk4'][-1]!r}"
    drift = float(np.max(np.abs(col["norm"] - 1.0)))
    if drift > 1e-12:
        return f"analytic norm drifts by {drift}"
    if not op.files[_flag(op.argv, "--svg")].startswith(b"<?xml"):
        return "SVG output is not an XML document"
    return None


# ---------------------------------------------------------------------------
# kick_walk: 32 delta kicks with relabels; one eigensolve per relabel


def kick_argv(rng: np.random.Generator, outdir: str) -> list[str]:
    area = repr(design_area(KICK_N))
    times = np.arange(1, KICK_COUNT + 1) + rng.uniform(0.1, 0.9, KICK_COUNT)
    tokens = []
    for t in times:
        i, j = rng.choice(KICK_N, size=2, replace=False) + 1
        tokens.append(f"{float(t)!r}:{area}:{i}-{j}")
    return [
        "kick", "--n", str(KICK_N), "--kicks", ",".join(tokens),
        "--samples", str(SAMPLES), "--porcelain", "--out", f"{outdir}/kick.csv",
    ]  # fmt: skip


def _expm(m: np.ndarray) -> np.ndarray:
    import scipy.linalg  # deferred: importing it would pre-load modules the program loads lazily

    return scipy.linalg.expm(m)


def kick_reference(kicks: str, n: int):
    """Kick times and the populations after each kick, without ``nstate.spectral``.

    The coupling is laid out from the paper's partially symmetric form with the
    designed ``alpha = -(n-3)/3``; every kick applies ``expm(-i A W)`` and then
    swaps the named states in W.  Level energies are equal, so populations are
    constant between kicks.
    """
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    w[0, 1] = w[1, 0] = -(n - 3) / 3.0
    a = np.zeros(n, complex)
    a[0] = 1.0
    times, pops = [], [np.abs(a) ** 2]
    for token in kicks.split(","):
        t, area, pair = token.split(":")
        a = _expm(-1j * float(area) * w) @ a
        idx = [int(s) - 1 for s in pair.split("-")]
        w[idx, :] = w[idx[::-1], :]
        w[:, idx] = w[:, idx[::-1]]
        times.append(float(t))
        pops.append(np.abs(a) ** 2)
    return np.array(times), np.array(pops)


def kick_check(op: OpResult) -> str | None:
    keys = _porcelain(op.stdout)
    if int(keys["kicks"]) != KICK_COUNT:
        return f"porcelain reports {keys['kicks']} kicks"
    header, table = _csv(op.files[_flag(op.argv, "--out")])
    col = {name: table[:, k] for k, name in enumerate(header)}
    if table.shape[0] != int(keys["rows"]):
        return f"CSV has {table.shape[0]} rows, porcelain says {keys['rows']}"
    kick_times, pops = kick_reference(_flag(op.argv, "--kicks"), KICK_N)
    if not np.isin(kick_times, col["t"]).all():
        return "a kick time is missing from the sample grid"
    # right-continuous: the sample at a kick time already holds the post-kick state
    ref = pops[np.searchsorted(kick_times, col["t"], side="right")]
    worst = max(
        float(np.max(np.abs(col["P1"] - ref[:, 0]))),
        float(np.max(np.abs(col["P2"] - ref[:, 1]))),
        float(np.max(np.abs(col["P3_total"] - ref[:, 2:].sum(axis=1)))),
    )
    if worst > 1e-10:
        return f"populations differ from the expm reference by {worst}"
    return None


def load_program():
    """Import ``nstate.cli`` from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "nstate" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nstate package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nstate.cli

    if Path(nstate.cli.__file__).resolve().parent != SRC / "nstate":
        raise SystemExit(f"perfbench: imported nstate from {nstate.cli.__file__}")
    return nstate.cli


def run_op(main, argv: list[str], outdir: str) -> tuple[OpResult, float]:
    """One closed-loop op: the CLI call is timed; reading its files back is not."""
    paths = [p for p in argv if p.startswith(outdir)]
    for path in paths:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    files = {p: Path(p).read_bytes() for p in paths if Path(p).is_file()}
    return OpResult(argv, rc, out.getvalue(), err.getvalue(), files), elapsed


def gate(workload, op: OpResult) -> str | None:
    """Why the op failed (nonzero exit, traceback, or its correctness gate), else None."""
    if op.rc != 0:
        return f"exit code {op.rc}: {op.stderr.strip()[-300:]}"
    if "Traceback" in op.stderr:
        return "traceback on stderr"
    try:
        return workload.check(op)
    except Exception as exc:  # a malformed output is a failed op, not a crashed run
        return f"output unreadable: {exc!r}"


def leakage_probe(outdir: str) -> list[str]:
    return ["leakage", "--n", "4", "--ratios", "0.02,0.05,0.09", "--dt", "0.01", "--out", f"{outdir}/probe.csv"]


def transfer_probe(outdir: str) -> list[str]:
    return [
        "simulate", "--n", "4", "--samples", "10", "--dt", "0.01", "--method", "both", "--porcelain",
        "--out", f"{outdir}/probe.csv", "--svg", f"{outdir}/probe.svg",
    ]  # fmt: skip


def kick_probe(outdir: str) -> list[str]:
    area = repr(design_area(4))
    kicks = f"1.0:{area}:1-2,2.0:{area}"
    return ["kick", "--n", "4", "--kicks", kicks, "--samples", "10", "--porcelain", "--out", f"{outdir}/probe.csv"]


@dataclass(frozen=True)
class Workload:
    """A seeded op generator, its gate, and a small probe op of the same command.

    The probe runs the op's code paths at a few milliseconds of work, so the
    one-time cost of a first call (lazy imports, a JIT compile) stands out
    from op-to-op noise when ``setup_s`` is measured.
    """

    name: str
    why: str
    make_argv: Callable[[np.random.Generator, str], list[str]]
    check: Callable[[OpResult], str | None]
    probe_argv: Callable[[str], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "leakage_scan",
            "8 independent RK4 runs sharing dt and t0, no eigensolve: exercises RK4 "
            "batching, bypasses the eigensolver and rendering",
            leakage_argv,
            leakage_check,
            leakage_probe,
        ),
        Workload(
            "transfer_trace",
            "one RK4 run at batch size 1, one n=48 eigensolve, analytic evolution and "
            "CSV/SVG rendering of the transfer figure",
            transfer_argv,
            transfer_check,
            transfer_probe,
        ),
        Workload(
            "kick_walk",
            "delta kicks with relabels: one eigensolve per relabel and a per-sample phase "
            "loop, no RK4",
            kick_argv,
            kick_check,
            kick_probe,
        ),
    )
}
