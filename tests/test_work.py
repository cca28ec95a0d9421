"""Work pins: exact kernel call counts for one op of each benchmark workload shape.

Timings swing with the host; these counts do not.  A change that alters the
work per op (more steps, more eigensolves, more rows) fails here at once, and
its author updates the pin on purpose.
"""

import pytest

from nstate import _kernels, design_transfer
from nstate.cli import main

AREA_16 = repr(design_transfer(16, 1).area)
KICKS = ",".join(f"{k + 0.5}:{AREA_16}:{(k - 1) % 16 + 1}-{k % 16 + 1}" for k in range(1, 33))


@pytest.mark.parametrize(
    "argv, rk4_calls, state_steps, eigensolves, rows",
    [
        (["leakage", "--n", "4", "--ratios", "geom:0.01:0.1:8"], 1, 50_472, [], 8),
        (["simulate", "--n", "48", "--samples", "4000", "--method", "both", "--svg", "w.svg"],
         1, 8_000, [(3, 3)], 4_001),
        (["kick", "--n", "16", "--kicks", KICKS, "--samples", "4000"], 0, 0, [(16, 16)] * 33, 4_065),
    ],
    ids=["leakage", "transfer", "kick"],
)  # fmt: skip
def test_work_per_op(argv, rk4_calls, state_steps, eigensolves, rows, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps, shapes = [], []
    rk4, jacobi = _kernels.rk4_core, _kernels.jacobi_eigh

    def rk4_spy(w, energies, envelope, dt, n_steps, sample_steps, a0, out):
        steps.append(n_steps * a0.shape[0])
        return rk4(w, energies, envelope, dt, n_steps, sample_steps, a0, out)

    def jacobi_spy(matrix):
        shapes.append(matrix.shape)
        return jacobi(matrix)

    monkeypatch.setattr(_kernels, "rk4_core", rk4_spy)
    monkeypatch.setattr(_kernels, "jacobi_eigh", jacobi_spy)
    assert main(argv + ["--out", "w.csv"]) == 0
    assert (len(steps), sum(steps)) == (rk4_calls, state_steps)
    assert shapes == eigensolves
    assert len((tmp_path / "w.csv").read_text().splitlines()) - 1 == rows
