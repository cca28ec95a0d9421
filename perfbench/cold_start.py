"""One cold start for ``setup_s``; the benchmark runs it as a fresh interpreter.

    PYTHONPATH=src python3 perfbench/cold_start.py '<probe argv as JSON>'

Imports ``nstate.cli`` before anything else, then runs the small probe op
twice.  Prints one JSON line: the ``perf_counter`` reading at the end of the
import (CLOCK_MONOTONIC, comparable with the parent's reading before the
spawn), both probe times and both exit codes.
"""

import nstate.cli  # noqa: I001  first, so the import is all the interpreter has done
import time

import_end = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    argv = json.loads(sys.argv[1])
    times, codes = [], []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            codes.append(nstate.cli.main(argv))
            times.append(time.perf_counter() - start)
    print(json.dumps({"import_end": import_end, "probe_s": times, "rc": codes}))


if __name__ == "__main__":
    main()
