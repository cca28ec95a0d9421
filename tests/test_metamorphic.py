"""Metamorphic relations at the CLI: equivalent inputs give equal populations.

Each relation runs ``simulate`` twice through ``main``, once on a designed
system and once on an equivalent restatement of it, and compares the
population columns of the two CSVs.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nstate import build_coupling, design_spec
from nstate.cli import main

POPULATIONS = slice(3, 7)  # P1, P2, P3_per_state, P3_total
cases = st.tuples(st.integers(3, 8), st.sampled_from(["analytic", "rk4"]))


def simulate(n: int, method: str, *extra: str) -> np.ndarray:
    """The CSV table of one ``simulate`` run with the designed default pulse."""
    argv = ["simulate", "--n", str(n), "--samples", "40", "--method", method, *extra]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1)


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
