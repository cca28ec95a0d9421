"""Command-line surface: outputs, schemas, determinism, and error contracts."""

import csv
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import nstate
from nstate.cli import _csv_text, main, parse_config_text, render_svg
from nstate.errors import ConfigError

BASE_HEADER = "t,A,theta,P1,P2,P3_per_state,P3_total,norm"


def run_cli(argv):
    """Invoke the CLI in-process, capturing streams and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def porcelain_dict(text):
    pairs = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestDesign:
    def test_three_state_porcelain(self):
        code, out, _ = run_cli(["design", "--n", "3", "--n0", "1", "--porcelain"])
        assert code == 0
        got = porcelain_dict(out)
        assert float(got["alpha"]) == 0.0
        assert float(got["beta"]) == 1.0
        assert float(got["A0"]) == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
        assert got["k"] == "2" and got["k_prime"] == "-1"

    def test_four_state_with_pulse_time(self):
        code, out, _ = run_cli(
            ["design", "--n", "4", "--porcelain", "--pulse", "cosine", "--chi", "1", "--omega", "0.5"]
        )
        assert code == 0
        got = porcelain_dict(out)
        area = 3.0 * math.pi / math.sqrt(40.0)
        assert float(got["alpha"]) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert float(got["A0"]) == pytest.approx(area, abs=1e-12)
        # invert (chi/omega) sin(omega t0) = A0 by hand
        t0_expected = math.asin(area * 0.5 / 1.0) / 0.5
        assert float(got["t0"]) == pytest.approx(t0_expected, abs=1e-9)

    def test_even_n0_exits_2_with_error_line(self):
        code, _, err = run_cli(["design", "--n", "4", "--n0", "2"])
        assert code == 2
        assert "error=EvenN0" in err.splitlines()[0]

    def test_unreachable_pulse_exits_2(self):
        code, _, err = run_cli(
            ["design", "--n", "4", "--pulse", "cosine", "--chi", "1", "--omega", "2"]
        )
        assert code == 2
        assert "error=Unreachable" in err

    def test_two_state(self):
        code, out, _ = run_cli(["design", "--n", "2", "--porcelain"])
        assert code == 0
        assert float(porcelain_dict(out)["A0"]) == pytest.approx(math.pi / 2)
        code, out, _ = run_cli(["design", "--n", "2", "--n0", "3", "--negative-branch", "--porcelain"])
        assert code == 0
        assert out.splitlines() == ["n=2", "n0=3", "A0=-4.7123889803846897"]


class TestSimulate:
    def test_csv_schema_and_figure_agreement(self, tmp_path):
        out_path = tmp_path / "run.csv"
        code, _, _ = run_cli(
            ["simulate", "--n", "4", "--samples", "150", "--out", str(out_path), "--porcelain"]
        )
        assert code == 0
        with open(out_path) as fh:
            header = fh.readline().strip()
        assert header == BASE_HEADER + ",P1_rk4,P2_rk4,P3_per_state_rk4,P3_total_rk4,norm_rk4"
        rows = read_rows(out_path)
        deltas = [
            abs(float(r[col]) - float(r[f"{col}_rk4"]))
            for r in rows
            for col in ("P1", "P2", "P3_per_state", "P3_total")
        ]
        assert max(deltas) <= 1e-6
        last = rows[-1]
        assert float(last["theta"]) == pytest.approx(2 * math.pi, abs=1e-8)
        assert float(last["P2"]) == pytest.approx(1.0, abs=1e-9)
        conservation = [
            abs(float(r["P1"]) + float(r["P2"]) + 2 * float(r["P3_per_state"]) - 1.0)
            for r in rows
        ]
        assert max(conservation) <= 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--n", "3", "--samples", "80", "--porcelain"]
        assert run_cli(argv + ["--out", str(a)])[0] == 0
        assert run_cli(argv + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_csv_with_summary_on_stderr(self):
        code, out, err = run_cli(
            ["simulate", "--n", "2", "--pulse", "constant", "--v0", "1",
             "--t-end", "1.0", "--samples", "5", "--method", "analytic"]
        )
        assert code == 0
        assert out.splitlines()[0] == BASE_HEADER
        assert "samples" in err  # prose stays off the data stream

    def test_gaussian_pulse_routes_agree(self):
        code, out, err = run_cli(
            ["simulate", "--n", "3", "--pulse", "gaussian", "--peak", "2", "--width", "0.5",
             "--center", "1", "--method", "both", "--porcelain"]
        )  # fmt: skip
        assert code == 0 and out.startswith(BASE_HEADER)
        assert float(porcelain_dict(err)["max_delta"]) <= 1e-6

    def test_zero_t_end_single_row(self, tmp_path):
        out_path = tmp_path / "zero.csv"
        code, _, _ = run_cli(
            ["simulate", "--n", "3", "--t-end", "0", "--out", str(out_path), "--porcelain"]
        )
        assert code == 0
        rows = read_rows(out_path)
        assert len(rows) == 1
        assert float(rows[0]["P1"]) == pytest.approx(1.0, abs=1e-12)
        code, _, _ = run_cli(
            ["kick", "--n", "3", "--kicks", "0.5:1", "--t-end", "0", "--out", str(out_path)]
        )
        rows = read_rows(out_path)
        assert code == 0 and len(rows) == 1 and float(rows[0]["t"]) == 0.0

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[system]\nn = 3\nbogus = 1\n")
        code, _, err = run_cli(["simulate", "--config", str(cfg)])
        assert code == 2
        assert "error=Config" in err

    def test_config_file_round(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# designed four-state run\n"
            "[system]\nn = 4\n\n"
            "[pulse]\nshape = cosine\nchi = 1.0\n\n"
            "[run]\nsamples = 40\nmethod = analytic\n"
        )
        out_path = tmp_path / "run.csv"
        code, _, _ = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(out_path), "--porcelain"]
        )
        assert code == 0
        rows = read_rows(out_path)
        assert float(rows[-1]["P2"]) == pytest.approx(1.0, abs=1e-10)

    def test_norm_drift_exits_3(self, tmp_path):
        code, _, err = run_cli(
            ["simulate", "--n", "3", "--dt", "1.0", "--method", "rk4",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3
        assert "error=NormDrift" in err

    def test_sample_count_overflow_exits_2_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("grid allocated"))
        code, out, err = run_cli(
            ["simulate", "--n", "3", "--samples", "2000000000", "--method", "analytic"]
        )
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error=")]
        assert errors == ["error=SampleCountOverflow"] and "Traceback" not in err

    def test_kick_shape_rejected(self):
        code, _, err = run_cli(["simulate", "--n", "2", "--pulse", "kicks"])
        assert code == 2
        assert "error=Config" in err

    def test_svg_written_and_self_contained(self, tmp_path):
        svg = tmp_path / "fig.svg"
        code, _, _ = run_cli(
            ["simulate", "--n", "4", "--samples", "60", "--out", str(tmp_path / "r.csv"),
             "--svg", str(svg), "--porcelain"]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "stroke-dasharray" in text  # dashed population styles present
        assert "href" not in text and "url(" not in text

    def test_method_rk4_base_columns(self, tmp_path):
        out_path = tmp_path / "rk4.csv"
        code, _, _ = run_cli(
            ["simulate", "--n", "2", "--pulse", "constant", "--v0", "1",
             "--t-end", str(math.pi / 2), "--method", "rk4",
             "--out", str(out_path), "--porcelain"]
        )
        assert code == 0
        rows = read_rows(out_path)
        assert float(rows[-1]["P2"]) == pytest.approx(1.0, abs=1e-8)


class TestKick:
    def test_schedule_with_relabel(self, tmp_path):
        area = 3.0 * math.pi / math.sqrt(40.0)
        cfg = tmp_path / "kick.cfg"
        cfg.write_text(
            "[system]\nn = 4\nalpha = -0.3333333333333333\n\n"
            f"[pulse]\nshape = kicks\nkicks = 1.0:{area!r}:1-2, 2.0:{area!r}\n\n"
            "[run]\nt_end = 3.0\nsamples = 20\n"
        )
        out_path = tmp_path / "kick.csv"
        code, _, _ = run_cli(
            ["kick", "--config", str(cfg), "--out", str(out_path), "--porcelain"]
        )
        assert code == 0
        rows = read_rows(out_path)
        by_time = {float(r["t"]): r for r in rows}
        assert float(by_time[1.0]["P2"]) == pytest.approx(1.0, abs=1e-10)
        assert float(by_time[2.0]["P1"]) == pytest.approx(1.0, abs=1e-10)
        pre_first = [r for r in rows if 0.99 < float(r["t"]) < 1.0]
        assert pre_first and float(pre_first[0]["P1"]) == pytest.approx(1.0, abs=1e-12)

    def test_non_increasing_times_exit_2(self):
        code, _, err = run_cli(["kick", "--n", "2", "--kicks", "2.0:0.5, 1.0:0.5"])
        assert code == 2
        assert "error=Config" in err

    def test_empty_schedule_constant(self, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            ["kick", "--n", "2", "--kicks", "", "--t-end", "1.0",
             "--out", str(out_path), "--porcelain"]
        )
        assert code == 0
        rows = read_rows(out_path)
        assert all(float(r["P1"]) == 1.0 for r in rows)

    def test_kicks_after_t_end_are_not_counted(self):
        code, _, err = run_cli(
            ["kick", "--n", "2", "--kicks", "0.5:1,3:1", "--t-end", "1", "--porcelain"]
        )
        assert code == 0 and porcelain_dict(err)["kicks"] == "1"
        code, _, err = run_cli(["kick", "--n", "2", "--kicks", "0.5:1,3:1", "--t-end", "1"])
        assert code == 0 and "through 1 kicks" in err


class TestLeakage:
    def test_scan_and_fit_line(self, tmp_path):
        out_path = tmp_path / "leak.csv"
        code, out, _ = run_cli(
            ["leakage", "--n", "4", "--ratios", "geom:0.01:0.1:8", "--out", str(out_path)]
        )
        assert code == 0
        fit_line = out.strip().splitlines()[-1]
        assert fit_line.startswith("exponent=")
        fields = dict(part.split("=") for part in fit_line.replace(" ", "").split(","))
        assert 1.8 <= float(fields["exponent"]) <= 2.2
        assert abs(float(fields["c"])) < 1.0
        assert float(fields["r2"]) >= 0.98
        rows = read_rows(out_path)
        assert list(rows[0].keys()) == ["ratio", "leakage"]
        assert len(rows) == 8

    def test_ratio_at_or_above_one_exits_2(self):
        code, _, err = run_cli(["leakage", "--n", "4", "--ratios", "0.5,1.5"])
        assert code == 2
        assert "error=Config" in err

    def test_single_ratio_insufficient(self):
        code, _, err = run_cli(["leakage", "--n", "4", "--ratios", "0.05"])
        assert code == 2
        assert "error=InsufficientPoints" in err

    def test_zero_ratio_fails_before_any_run(self, monkeypatch):
        monkeypatch.setattr("nstate.analysis.integrate_many", lambda *_: pytest.fail("scan ran"))
        code, out, err = run_cli(["leakage", "--n", "4", "--ratios", "0,0.05,0.1"])
        assert code == 2 and out == ""
        assert err.splitlines()[0] == "error=NonPositiveValue"


class TestSelftest:
    def test_filtered_subset_passes(self):
        code, out, _ = run_cli(["selftest", "--filter", "model"])
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines if l.startswith("pass ")]) == 3
        assert lines[-1] == "3/3 properties passed"

    def test_coarse_dt_fails(self):
        code, out, _ = run_cli(["selftest", "--filter", "integrator.matches", "--dt", "1"])
        assert code == 1
        assert any(l.startswith("FAIL") for l in out.splitlines())

    @pytest.mark.parametrize("dt", ["nan", "0", "-1"])
    def test_dt_that_is_not_a_step_exits_2_before_any_property(self, dt):
        code, out, err = run_cli(["selftest", "--filter", "model", "--dt", dt])
        assert code == 2 and out == ""
        assert err.splitlines()[0] == "error=Config" and "dt" in err.splitlines()[1]


class TestConfigParser:
    def test_rejects_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("[weird]\nx = 1\n")

    def test_rejects_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 3\n")

    def test_comments_and_blanks_ignored(self):
        sections = parse_config_text("# hi\n\n[system]\nn = 3\n")
        assert sections == {"system": {"n": "3"}}

    def test_usage_error_is_machine_readable(self):
        code, _, err = run_cli(["simulate", "--method", "bogus"])
        assert code == 2
        assert "error=Usage" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate", "--n", "3", "--t-end", "inf", "--method", "rk4"], "t_end"),
        (["simulate", "--n", "3", "--dt", "nan", "--method", "rk4"], "dt"),
        (["simulate", "--n", "3", "--chi", "nan"], "chi"),
        (["leakage", "--n", "4", "--ratios", "0.01,0.1", "--chi", "nan"], "chi"),
        (["simulate", "--n", "3", "--energies", "nan,0,0"], "energies"),
        (["simulate", "--n", "3", "--epsilon", "nan,0,0"], "epsilon"),
        (["simulate", "--n", "3", "--matrix", "nan,1,1;1,0,1;1,1,0"], "matrix"),
        (["kick", "--n", "3", "--kicks", "1:nan"], "areas"),
        (["kick", "--n", "2", "--matrix", "0,1;1"], "matrix"),
    ],
)
def test_non_finite_input_exits_2_naming_the_field(argv, name):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0] == "error=Config" and name in lines[1]
    assert "Traceback" not in err and sum(line.startswith("error=") for line in lines) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["design", "--n", "3", "--out", "d.csv"], "--out"),
        (["design", "--n", "3", "--config", "run.cfg"], "--config"),
        (["kick", "--n", "3", "--svg", "k.svg"], "--svg"),
        (["leakage", "--n", "4", "--ratios", "0.01,0.1", "--porcelain"], "--porcelain"),
        (["selftest", "--filter", "model", "--out", "s.csv"], "--out"),
        (["simulate", "--n", "3", "--seed", "7"], "--seed"),
        (["design", "--n", "3", "--alpha", "5"], "--alpha"),
        (["design", "--n", "3", "--energies", "0,1,2"], "--energies"),
        (["design", "--n", "3", "--t-end", "9"], "--t-end"),
        (["kick", "--n", "3", "--kicks", "1:1", "--chi", "5"], "--chi"),
        (["kick", "--n", "3", "--kicks", "1:1", "--pulse", "cosine"], "--pulse"),
        (["kick", "--n", "3", "--kicks", "1:1", "--dt", "0.1"], "--dt"),
    ],
)
def test_flag_the_subcommand_never_reads_exits_2(argv, flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "error=Usage" and flag in err
    assert list(tmp_path.iterdir()) == []


KICK_N3 = "[system]\nn = 3\n"


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["kick"], KICK_N3 + "[pulse]\nchi = 5\n", "chi"),
        (["kick"], KICK_N3 + "[run]\ndt = 0.1\n", "dt"),
        (["kick"], KICK_N3 + "[run]\nmethod = rk4\n", "method"),
        (["kick"], KICK_N3 + "[pulse]\nshape = cosine\n", "shape"),
        (["simulate"], KICK_N3 + "[pulse]\nkicks = 1:1\n", "kicks"),
        (["simulate"], KICK_N3 + "[pulse]\nshape = constant\nv0 = 1\nomega = 2\n", "omega"),
        (["simulate", "--n", "3", "--pulse", "constant", "--v0", "1", "--chi", "1"], None, "chi"),
        (["simulate", "--n", "3", "--peak", "1"], None, "peak"),
        (["design", "--n", "3", "--chi", "1"], None, "chi"),
        (["design", "--n", "3", "--pulse", "kicks"], None, "shape"),
    ],
)
def test_key_the_subcommand_or_shape_never_reads_exits_2(argv, config, key, tmp_path):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0] == "error=Config" and f"key '{key}'" in lines[1]
    assert sum(line.startswith("error=") for line in lines) == 1


@pytest.mark.parametrize(
    "argv, config, error, text",
    [
        (["simulate", "--n", "3", "--pulse", "constant"], None, "Config", "'v0'"),
        (["simulate", "--n", "3", "--pulse", "gaussian", "--peak", "1"], None, "Config", "'width'"),
        (["simulate"], KICK_N3 + "[run]\nmethod = euler\n", "Config", "'euler'"),
        (["simulate", "--n", "3", "--energies", "0,x,0"], None, "Config", "energies"),
        (["kick", "--n", "3", "--kicks", "1"], None, "Config", "'1'"),
        (["kick", "--n", "3", "--kicks", "a:1"], None, "Config", "'a:1'"),
        (["kick", "--n", "3", "--kicks", "1:1:x"], None, "Config", "'1:1:x'"),
        (["kick", "--n", "3", "--kicks", "0.5:1", "--t-end", "-1"], None, "Config", "t_end"),
        (["design", "--n", "1"], None, "Config", "n >= 2"),
        (["leakage", "--n", "4", "--ratios", "geom:0.01:0.1"], None, "Config", "geom:"),
        (["leakage", "--n", "4", "--ratios", "geom:a:b:3"], None, "Config", "'geom:a:b:3'"),
        (["leakage", "--n", "4", "--ratios", "geom:0.1:0.01:3"], None, "Config", "lo < hi"),
        (["simulate", "--config", "missing.cfg"], None, "Config", "missing.cfg"),
        (["simulate"], None, "Config", "'n'"),
        (["simulate", "--n", "3", "--pulse", "gaussian", "--peak", "-1", "--width", "0.5"],
         None, "Unreachable", "sign"),
        (["leakage", "--n", "4", "--omega", "10", "--ratios", "0.01,0.02,0.03"],
         None, "Unreachable", "omega"),
    ],
)  # fmt: skip
def test_malformed_input_exits_2_with_one_error_line(argv, config, error, text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0] == f"error={error}" and text in lines[1]
    assert sum(line.startswith("error=") for line in lines) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "3", "--alpha", "1e200", "--method", "analytic", "--t-end", "1",
         "--samples", "3"],
        ["kick", "--n", "3", "--alpha", "1e200", "--kicks", "0.5:1"],
        ["simulate", "--n", "3", "--alpha", "1e308", "--beta", "1e308", "--gamma", "1e308"],
        ["simulate", "--n", "3", "--alpha", "1e308", "--beta", "1e308", "--gamma", "1e308",
         "--method", "analytic"],
        ["kick", "--n", "3", "--alpha", "1e308", "--beta", "1e308", "--gamma", "1e308",
         "--kicks", "0.5:1"],
        ["simulate", "--n", "3", "--alpha", "1e100", "--dt", "0.1", "--t-end", "1",
         "--samples", "3", "--method", "rk4"],
        ["simulate", "--n", "3", "--alpha", "1e100", "--dt", "0.1", "--t-end", "1",
         "--samples", "3", "--method", "both"],
        ["simulate", "--n", "3", "--alpha", "1e100", "--dt", "0.1", "--t-end", "1",
         "--samples", "3", "--method", "rk4", "--energies", "0,0.5,1"],
    ],
)  # fmt: skip
def test_overflowing_coupling_exits_3_without_warnings(argv):
    code, out, err = run_cli(argv)
    assert code == 3 and out == ""
    assert sum(line.startswith("error=") for line in err.splitlines()) == 1
    assert "RuntimeWarning" not in err and "Traceback" not in err
    if "--dt" in argv:  # the RK4 norm turns NaN: no step would mend that
        assert err.splitlines()[1] == "norm drifted by nan; the drive overflows"


def test_csv_text_matches_per_cell_format():
    columns = [
        np.array([0.0, -0.0, 1e-300, 1e17]),
        np.array([np.nan, np.inf, -1.0 / 3.0, 2.5]),
        np.array([1, 2, 3, 4]),  # integer columns print as floats
    ]
    expected = "a,b,c\n" + "".join(
        ",".join(f"{float(col[m]):.17g}" for col in columns) + "\n" for m in range(4)
    )
    assert _csv_text(["a", "b", "c"], columns) == expected
    assert _csv_text(["a"], [np.array([])]) == "a\n"


def test_svg_points_match_per_point_pixels():
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(-2.0, 7.0, 50))
    values = [rng.uniform(-0.1, 1.1, 50) for _ in range(3)]
    svg = render_svg(times, *values, title="t")
    t0, span = times[0], times[-1] - times[0]
    for ys in values:
        pts = " ".join(
            f"{64.0 + 532.0 * (t - t0) / span:.2f},{356.0 - 320.0 * y / 1.05:.2f}"
            for t, y in zip(times, ys)
        )
        assert f'points="{pts}"' in svg


def test_console_entry_point_smoke():
    # the child imports the same nstate as this process, installed or not
    src = str(Path(nstate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "nstate.cli", "design", "--n", "3", "--porcelain"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "A0=" in result.stdout
