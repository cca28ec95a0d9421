"""Fuzz the CLI boundary: every argv or config ends in exit 0, 2 or 3 with at most one error line.

Each subcommand draws ``--n`` (and ``--ratios``) plus up to four more of its
flags from small menus of plausible values (a few of them malformed, such as
a ragged matrix or unordered kicks), and then either keeps them or replaces
one flag's value with 0, -1, nan, inf,
1e308 or junk text, so each rejection path is reached on its own and valid
runs still happen.  The menus keep any run that succeeds below about 1e4 RK4
steps and 1e3 samples.

Config files for simulate and kick are drawn from the same menus, keyed by
the config name of each flag, plus at most one extra entry: a key the
subcommand may not read, an unknown key, or a key under another section.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nstate.cli import main

BAD = ["0", "-1", "nan", "inf", "1e308", "x"]
SYSTEM = {
    "--n": ["2", "3", "4"],
    "--n0": ["1", "3", "2"],
    "--alpha": ["0.5", "-0.3333333333333333"],
    "--beta": ["1", "0.5"],
    "--gamma": ["1", "2"],
    "--epsilon": ["0,0,0", "0.1,0.2,0.3", "1,2"],
    "--energies": ["0,0,0", "0,0.01,0.02"],
    "--matrix": ["0,1,1;1,0,1;1,1,0", "0,1;1,0", "0,1;2,0", "0,1;1"],
}
PULSE = {
    "--pulse": ["cosine", "constant", "gaussian", "kicks", "x"],
    "--chi": ["0.5", "1", "2"],
    "--omega": ["0.3", "0.5"],
    "--v0": ["1", "2"],
    "--peak": ["1", "2"],
    "--center": ["0", "1"],
    "--width": ["0.5", "1"],
}
RUN = {
    "--t-end": ["0", "1", "2"],
    "--samples": ["10", "50", "2000000000"],
}
REQUIRED = ("--n", "--ratios")
MENUS = {
    "design": {"--n": SYSTEM["--n"], "--n0": SYSTEM["--n0"], **PULSE, "--negative-branch": [None]},
    "simulate": {
        **SYSTEM,
        **PULSE,
        **RUN,
        "--dt": ["0.01", "0.001"],
        "--method": ["analytic", "rk4", "both", "x"],
    },
    "kick": {**SYSTEM, **RUN, "--kicks": ["1:1", "1:1:1-2,2:1", "", "2:1,1:1", "1:1:1-9"]},
    "leakage": {
        "--n": SYSTEM["--n"],
        "--n0": SYSTEM["--n0"],
        "--ratios": ["0.01,0.05,0.1", "geom:0.01:0.1:3", "0.5,1.5", "0,0.1", "geom:1:0"],
        "--chi": PULSE["--chi"],
        "--omega": PULSE["--omega"],
        "--dt": ["0.01", "0.002"],
    },
}


def _argv(command: str, flags: dict) -> list[str]:
    return [command] + [flag if value is None else f"{flag}={value}" for flag, value in flags.items()]


def _flags(menu: dict) -> st.SearchStrategy:
    required = {flag: st.sampled_from(menu[flag]) for flag in REQUIRED if flag in menu}
    optional = sorted(set(menu) - set(required))
    plausible = st.lists(st.sampled_from(optional), max_size=4, unique=True).flatmap(
        lambda names: st.fixed_dictionaries(
            {**required, **{flag: st.sampled_from(menu[flag]) for flag in names}}
        )
    )
    one_bad = st.tuples(st.sampled_from(sorted(menu)), st.sampled_from(BAD))
    return plausible.flatmap(
        lambda flags: st.one_of(st.just(flags), one_bad.map(lambda bad: {**flags, bad[0]: bad[1]}))
    )


argvs = st.sampled_from(sorted(MENUS)).flatmap(
    lambda command: _flags(MENUS[command]).map(lambda flags: _argv(command, flags))
)

SECTION = {
    **dict.fromkeys(["n", "alpha", "beta", "gamma", "epsilon", "energies", "matrix"], "system"),
    **dict.fromkeys(["shape", "chi", "omega", "v0", "peak", "center", "width", "kicks"], "pulse"),
    **dict.fromkeys(["n0", "t_end", "samples", "dt", "method", "bogus"], "run"),
}
EVERY_FLAG = {**MENUS["simulate"], **MENUS["kick"], "--bogus": ["1"]}


def _key(flag: str) -> str:
    return "shape" if flag == "--pulse" else flag[2:].replace("-", "_")


def _config_text(entries: list[tuple[str, str, str | None]]) -> str:
    """``[section]`` blocks of ``key = value`` lines; a ``None`` section is the key's own."""
    blocks: dict[str, list[str]] = {}
    for flag, value, section in entries:
        key = _key(flag)
        blocks.setdefault(section or SECTION[key], []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in blocks.items())


extra_entry = st.sampled_from(sorted(EVERY_FLAG)).flatmap(
    lambda flag: st.tuples(
        st.just(flag),
        st.sampled_from(EVERY_FLAG[flag]),
        st.sampled_from([None, None, "system", "pulse", "run", "weird"]),
    )
)
configs = st.sampled_from(["kick", "simulate"]).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.tuples(_flags(MENUS[command]), st.lists(extra_entry, max_size=1)).map(
            lambda drawn: _config_text(
                [(flag, value, None) for flag, value in drawn[0].items()] + drawn[1]
            )
        ),
    )
)


def _assert_contract(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error=")]
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert len(errors) == (0 if code == 0 else 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(argv=argvs)
@example(argv=["simulate", "--n=3", "--chi=1e308", "--method=rk4"])
@example(argv=["leakage", "--n=4", "--ratios=0.01,0.1", "--chi=1e308"])
@example(argv=["simulate", "--n=3", "--pulse=constant", "--v0=1e308", "--method=rk4"])
@example(argv=["simulate", "--n=3", "--alpha=1e200", "--method=analytic", "--t-end=1"])
@example(argv=["kick", "--n=3", "--alpha=1e200", "--kicks=0.5:1"])
@example(argv=["simulate", "--n=3", "--alpha=1e308", "--beta=1e308", "--gamma=1e308"])
def test_cli_exits_0_2_or_3_with_at_most_one_error_line(argv):
    _assert_contract(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(drawn=configs)
@example(drawn=("kick", "[system]\nn = 3\n[pulse]\nchi = 5\n[run]\ndt = 0.1\nmethod = rk4\n"))
@example(drawn=("simulate", "[system]\nn = 3\n[pulse]\nkicks = 1:1\n"))
def test_config_files_exit_0_2_or_3_with_at_most_one_error_line(drawn):
    command, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        _assert_contract([command, "--config", path])
