"""Metamorphic relations at the CLI: equivalent inputs give equal populations.

Each relation runs ``simulate`` or ``kick`` twice through ``main``, once on a
system and once on an equivalent restatement of it, and compares the
population columns of the two CSVs.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nstate import build_coupling, design_spec
from nstate.cli import main

POPULATIONS = slice(3, 7)  # P1, P2, P3_per_state, P3_total
cases = st.tuples(st.integers(3, 8), st.sampled_from(["analytic", "rk4"]))


def run(argv: list[str]) -> np.ndarray:
    """The CSV table that ``main(argv)`` writes to stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1)


def simulate(n: int, method: str, *extra: str) -> np.ndarray:
    """The CSV table of one ``simulate`` run with the designed default pulse."""
    return run(["simulate", "--n", str(n), "--samples", "40", "--method", method, *extra])


def assert_same_populations(a: np.ndarray, b: np.ndarray):
    assert a.shape == b.shape
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.max(np.abs(a[:, POPULATIONS] - b[:, POPULATIONS])) <= 1e-12


@settings(derandomize=True, max_examples=12, deadline=None)
@given(cases)
def test_explicit_matrix_equals_structured_design(case):
    # the 3-by-3 launch sector of the structured route against the full n-by-n solve
    n, method = case
    matrix = ";".join(",".join(map(repr, row)) for row in build_coupling(design_spec(n)).tolist())
    assert_same_populations(simulate(n, method), simulate(n, method, "--matrix", matrix))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(cases)
def test_uniform_energy_offset_leaves_populations(case):
    n, method = case
    offset = ",".join(["0.7"] * n)
    assert_same_populations(simulate(n, method), simulate(n, method, "--energies", offset))


def _csv_list(values) -> str:
    return ",".join(map(repr, values))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2**32 - 1))
def test_permuting_states_3_to_n_leaves_p1_p2(n, seed):
    # split levels, so only RK4 runs; W and the energies are permuted together
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n))
    w = (w + w.T) / np.sqrt(2.0 * n)
    energies = rng.normal(size=n) * 0.3
    perm = np.r_[0, 1, 2 + rng.permutation(n - 2)]

    def table(w, energies):
        matrix = ";".join(_csv_list(row) for row in w.tolist())
        extra = [f"--matrix={matrix}", f"--energies={_csv_list(energies.tolist())}"]
        return simulate(n, "rk4", "--t-end", "2", "--dt", "0.005", *extra)

    a, b = table(w, energies), table(w[perm][:, perm], energies[perm])
    assert a.shape == b.shape
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.max(np.abs(a[:, 3:5] - b[:, 3:5])) <= 1e-12


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(3, 8), st.floats(1.0, 40.0), st.floats(0.05, 1.5))
@example(5, 2.5, 0.1)  # ||W|| chi < 1: only the scaled runs leave the step rule's floor of 1
@example(5, 40.0, 0.1)
def test_scaling_the_drive_and_levels_while_shrinking_time_leaves_populations(n, s, chi):
    # H -> s H with t -> t / s is the same evolution, whether or not the step rule's
    # floor of 1 is active; split levels, so only RK4 runs
    energies = np.linspace(-0.3, 0.4, n)

    def table(scale):
        return simulate(
            n, "rk4", f"--chi={chi * scale!r}", f"--omega={0.6 * scale!r}",
            f"--energies={_csv_list((energies * scale).tolist())}", f"--t-end={2.0 / scale!r}",
        )  # fmt: skip

    a, b = table(1.0), table(s)
    assert a.shape == b.shape
    assert np.max(np.abs(a[:, 0] - s * b[:, 0])) <= 1e-14 * a[-1, 0]
    assert np.max(np.abs(a[:, POPULATIONS] - b[:, POPULATIONS])) <= 1e-12


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    st.integers(3, 8),
    st.floats(0.1, 1.0),
    st.floats(1e-6, 0.5),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_two_nearby_kicks_equal_one_of_the_summed_area(n, t, gap, a1, a2):
    # degenerate levels: no free phase between the kicks, so exp(-i a2 W) exp(-i a1 W)
    # is exp(-i (a1 + a2) W), the propagator group law
    def final_row(kicks: str) -> np.ndarray:
        return run(["kick", "--n", str(n), "--kicks", kicks, "--t-end", "2", "--samples", "10"])[-1]

    two = final_row(f"{t!r}:{a1!r},{t + gap!r}:{a2!r}")
    one = final_row(f"{t!r}:{a1 + a2!r}")
    assert np.max(np.abs(two[POPULATIONS] - one[POPULATIONS])) <= 1e-12
