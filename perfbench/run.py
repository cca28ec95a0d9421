#!/usr/bin/env python3
"""The nstate benchmark: seeded CLI workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload transfer_trace --seed 1 --seconds 30 --trace 0

One client drives ``nstate.cli.main(argv)`` in-process in a closed loop: the
next op starts only when the previous one has returned.  Op 0 runs twice, cold
and then warm, and the two runs must write byte-identical files.  Fresh seeded
ops follow until ``--seconds`` of op time have passed.  Every op's output goes
through its workload's correctness gate; a failed gate counts the op as failed
and the run goes on.  For ``setup_s``, nine fresh interpreters, spread over the
run between ops, each import ``nstate.cli`` and run a small probe op twice
(``cold_start.py``).

Without tracing, a fixed reference computation (``reference.py``) is timed
before op 1 and after every op.  Each op's time divided by the mean of the two
reference times around it is the op's time in reference units; the op time
metrics are given in those units, which cancel the host's speed swings.  The
same metrics in seconds are in the details line and the table.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics, averaged per traced
op, plus ``trace.overhead_ratio``.  The last line of standard output is the
JSON result; the line before it holds the details (environment stamp, op 0's
argv for replay, the tail percentile and its sample count, failures).  A
table of the same numbers goes to standard error.  See ``perfbench/README.md``.
"""

import os

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads, so library threading adds no
    # scheduler noise; the cold-start subprocesses inherit the same setting.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import reference_s  # noqa: E402
from tracer import Tracer, op_layer_metrics  # noqa: E402
from workloads import SRC, WORKLOADS, gate, load_program, run_op  # noqa: E402

ROOT = SRC.parent
WORK = ROOT / ".perfbench_tmp"
COLD_STARTS = 9
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
SECONDS_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "reference_p50_s": "s"}


def cold_start(probe: list[str]) -> tuple[float, float, list[int]]:
    """One fresh interpreter: (spawn to end of ``import nstate.cli``, probe's first-call excess, exit codes).

    ``perf_counter`` reads CLOCK_MONOTONIC, which is shared across processes,
    so the child's clock reading after the import is comparable to the
    parent's reading before the spawn.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = Path(__file__).with_name("cold_start.py")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(script), json.dumps(probe)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    child = json.loads(proc.stdout.splitlines()[-1])
    first, second = child["probe_s"]
    return child["import_end"] - start, first - second, child["rc"]


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest of TAIL_PERCENTILES with at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples the requirement drops to half the
    samples, which is the median.  Returns (percentile, value, samples beyond).
    """
    need = min(MIN_BEYOND, len(times) // 2)
    for pct in TAIL_PERCENTILES:
        beyond = int(len(times) * (100.0 - pct) / 100.0)
        if beyond >= need:
            return pct, float(np.percentile(times, pct)), beyond
    raise AssertionError("the median always qualifies")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """What ran: versions, BLAS and its threads, cores, commit, and the kernel paths taken."""
    import importlib.metadata

    import nstate
    from nstate import _kernels

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": blas_threads(),
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "numba_enabled": getattr(nstate, "NUMBA_ENABLED", None),
        "rk4_core": getattr(getattr(_kernels, "rk4_core", None), "__name__", None),
        "jacobi_core": getattr(getattr(_kernels, "jacobi_core", None), "__name__", None),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, details line)."""
    cli = load_program()
    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    plain_s: list[float] = []
    traced_s: list[float] = []
    refs: list[float] = []  # untraced runs only; refs[i] and refs[i + 1] bracket plain_s[i]
    tracer = Tracer() if trace else None

    def attempt(argv, traced=False):
        with tracer.installed() if traced else contextlib.nullcontext():
            op, elapsed = run_op(cli.main, argv, str(workdir))
        reason = gate(workload, op)
        if reason is not None:
            failures.append(reason)
        return op, elapsed

    def enough() -> bool:
        return sum(plain_s) + sum(traced_s) >= seconds and (bool(traced_s) or not trace)

    def cold_starts_due() -> int:
        # spread over the run, so they sample the machine's fast and slow spells alike
        done = sum(plain_s) / seconds
        return 0 if trace else min(COLD_STARTS, 1 + int(COLD_STARTS * done))

    cold: list[tuple[float, float, list[int]]] = []
    try:
        argv0 = workload.make_argv(rng, str(workdir))
        first, first_s = attempt(argv0)
        if not trace:
            refs.append(reference_s())
        again, again_s = attempt(argv0)
        if (first.files, first.stdout) != (again.files, again.stdout):
            failures.append("op 0 rerun is not byte-identical")
        plain_s.append(again_s)  # the warm rerun is the first steady sample
        while True:
            if not trace and len(refs) == len(plain_s):
                refs.append(reference_s())
            while len(cold) < cold_starts_due():
                cold.append(cold_start(workload.probe_argv(str(workdir))))
            if enough():
                break
            argv = workload.make_argv(rng, str(workdir))
            traced = trace and len(plain_s) > len(traced_s)
            if traced:
                tracer.begin_op(len(traced_s))
            _, elapsed = attempt(argv, traced)
            (traced_s if traced else plain_s).append(elapsed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    failures += [f"probe op exit codes {rc}" for _, _, rc in cold if rc != [0, 0]]

    attempted = 2 * len(cold) + 1 + len(plain_s) + len(traced_s)
    p50 = statistics.median(plain_s)
    pct, tail_s, beyond = tail(plain_s)
    details = {
        "workload": name,
        "seed": seed,
        "replay_argv": argv0,
        "steady_ops": len(plain_s),
        "steady_op_s": plain_s,
        "first_op_excess_s": first_s - p50,
        "cold_starts": [{"import_s": i, "probe_excess_s": e} for i, e, _ in cold],
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
        "env": environment(),
    }
    if trace:
        per_op = [op_layer_metrics(tracer, op) for op in range(len(traced_s))]
        metrics = {key: statistics.fmean(m[key] for m in per_op) for key in per_op[0]}
        metrics["trace.overhead_ratio"] = statistics.fmean(traced_s) / statistics.fmean(plain_s)
        details["traced_ops"] = len(traced_s)
    else:
        in_ref = [t / (0.5 * (before + after)) for t, before, after in zip(plain_s, refs, refs[1:])]
        details["steady_op_ref"] = in_ref
        details["reference_s"] = refs
        details["seconds"] = {
            "ops_per_s": len(plain_s) / sum(plain_s),
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "reference_p50_s": statistics.median(refs),
        }
        metrics = {
            "setup_s": statistics.median(i + e for i, e, _ in cold),
            "ops_per_ref": len(in_ref) / sum(in_ref),
            "op_p50_ref": statistics.median(in_ref),
            "op_tail_ref": tail(in_ref)[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in metrics.items()},
    }
    return result, details


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_us_per_state_step"):
        return "us"
    if metric.endswith("_flops_computed"):
        return "flop"
    if metric.endswith("ratio") or metric.endswith("_per_result"):
        return "ratio"
    return "count"


def report(result: dict, details: dict) -> None:
    err = sys.stderr
    print(f"# {details['workload']}  seed={details['seed']}  steady ops={details['steady_ops']}", file=err)
    for key, metric in result["metrics"].items():
        print(f"{key:36s} {metric['value']:>16.6g} {metric['unit']}", file=err)
    for key, value in details.get("seconds", {}).items():
        print(f"{key:36s} {value:>16.6g} {SECONDS_UNITS[key]}", file=err)
    if "seconds" in details:
        print(
            f"{'op_tail percentile':36s} {details['op_tail_percentile']:>16g} "
            f"({details['op_tail_samples_beyond']} of {details['steady_ops']} samples beyond)",
            file=err,
        )
    print(f"{'fail_ratio':36s} {details['fail_ratio']:>16.6g} ratio", file=err)
    for reason in details["failures"]:
        print(f"failed: {reason}", file=err)
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        report(*run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
        return 0
    # one process per workload, as when each is run on its own
    for name in WORKLOADS:
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        subprocess.run([sys.executable, __file__, "--workload", name, *options], check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
