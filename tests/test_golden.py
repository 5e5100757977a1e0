"""Golden CLI corpus: recorded stdout and exit codes of fixed invocations.

``tests/golden/cases.txt`` lists one invocation per line as
``name exit argv...``; ``tests/golden/<name>.stdout`` holds the bytes that
invocation wrote to stdout.  Every verb, every built-in group, and each
projective-family group with each property it leaves invariant are
covered, so a refactor or an optimisation that changes any output byte
fails here.  Re-record (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from erlangen.cli import _build_parser, main

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


def _fresh_process_cases():
    """The first case of each verb, a failing verdict of two verbs and a
    usage error: the exit codes a CI gate reads."""
    cases, verbs = [], set()
    for name, code, argv in read_cases()[1]:
        if argv[0] not in verbs or name in ("violated-affine-distance-d2", "contact-swap-zp",
                                            "usage-missing-seed"):
            verbs.add(argv[0])
            cases.append(pytest.param(name, code, argv, id=name))
    return cases


@pytest.mark.parametrize("name,code,argv", _fresh_process_cases())
def test_golden_invocation_in_a_fresh_process(name, code, argv):
    """``python -m erlangen.cli`` runs the entry point, which main() alone
    does not: it writes the recorded bytes and exits with the recorded
    code, with nothing on stderr but a usage error's one line."""
    src = str(GOLDEN.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # stdout into a pipe stays block-buffered, so an exit that skipped the
    # flush would lose the output
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "erlangen.cli", *argv],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    if code == 2:
        assert re.fullmatch(rb"error: [^\n]+\n", proc.stderr), proc.stderr
    else:
        assert proc.stderr == b""


def test_every_verb_map_and_kind_is_recorded():
    """Each verb of the CLI, and each choice of its --map and --kind flags,
    is run by at least one golden case."""
    parser = _build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    wanted = {(verb,) for verb in verbs}
    wanted |= {(verb, action.dest, choice) for verb, sub in verbs.items()
               for action in sub._actions if {"--map", "--kind"} & set(action.option_strings)
               for choice in action.choices}
    recorded = set()
    for _, _, argv in read_cases()[1]:
        args = vars(parser.parse_args(argv))
        recorded.add((args["verb"],))
        recorded |= {(args["verb"], dest, args[dest]) for dest in ("map_name", "kind")
                     if dest in args}
    assert sorted(wanted - recorded) == []


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
