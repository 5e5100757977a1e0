"""Golden CLI corpus: recorded stdout and exit codes of fixed invocations.

``tests/golden/cases.txt`` lists one invocation per line as
``name exit argv...``; ``tests/golden/<name>.stdout`` holds the bytes that
invocation wrote to stdout.  Every verb, every built-in group, and each
projective-family group with each property it leaves invariant are
covered, so a refactor or an optimisation that changes any output byte
fails here.  Re-record (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from erlangen.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = GOLDEN / "cases.txt"


def read_cases():
    """[(name, exit code, argv)] in file order, and the header lines."""
    header, cases = [], []
    for line in CASES.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            header.append(line)
            continue
        name, code, *argv = line.split()
        cases.append((name, int(code), argv))
    return header, cases


def invoke(argv):
    """(exit code, stdout bytes) of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name,code,argv",
                         [pytest.param(*case, id=case[0]) for case in read_cases()[1]])
def test_golden_invocation(name, code, argv):
    got_code, got_out = invoke(argv)
    assert got_code == code
    assert got_out == (GOLDEN / f"{name}.stdout").read_bytes()


def record():
    header, cases = read_cases()
    lines = list(header)
    for name, _, argv in cases:
        code, out = invoke(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        lines.append(" ".join([name, str(code)] + argv))
    CASES.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
