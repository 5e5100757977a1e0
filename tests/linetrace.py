"""Print every line of src/erlangen that the test suite never runs in process.

Run by hand from the repository root; it is not part of the test suite:

    python tests/linetrace.py            # the whole suite, as `pytest -q`
    python tests/linetrace.py tests/test_cli.py -x

The arguments go to ``pytest.main`` unchanged.  A line tracer
(``sys.settrace`` and ``threading.settrace``) is installed before anything
imports ``erlangen``: ``tests/conftest.py`` imports two of its modules, so a
tracer started from a pytest plugin would see their module-level lines as
never run.  The executable lines of each source file are those of its
compiled code objects (``co_lines()``).  After the run the script prints,
as ``file:line: text``, every executable line that neither ran nor is
listed in ``UNRUN``, then a count.  It exits with pytest's code when pytest
fails, 1 when a line is printed or an ``UNRUN`` entry is stale, and 0
otherwise.  The tracer makes the suite about 1.6 times as slow.
"""

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "erlangen"

_OUT_OF_PROCESS = ("runs only in the fresh-process tests: its gc.disable() and gc.freeze() "
                   "would switch the session's collector off and freeze its objects")
_PADE = ("a scipy whose Pade kernel does not load or allocate; goes when the form groups "
         "sample by the Cayley transform (ROADMAP item 10)")

#: lines that never run in process, by design: (file, function, line text, reason)
UNRUN = [
    ("cli.py", "entrypoint", "gc.disable()", _OUT_OF_PROCESS),
    ("cli.py", "entrypoint", "code = main(sys.argv[1:])", _OUT_OF_PROCESS),
    ("cli.py", "entrypoint", "gc.freeze()", _OUT_OF_PROCESS),
    ("cli.py", "entrypoint", "sys.exit(code)", _OUT_OF_PROCESS),
    ("cli.py", "<module>", "entrypoint()", "the __main__ guard of `python -m erlangen.cli`"),
    ("numerics.py", "_pade_kernel", "except ImportError:", _PADE),
    ("numerics.py", "_pade_kernel", "return None", _PADE),
    ("numerics.py", "expm_stack",
     'raise MemoryError(f"expm: the Pade kernel could not allocate (code {m})")', _PADE),
    ("numerics.py", "expm_stack", "if info <= -11:", _PADE),
    ("numerics.py", "expm_stack",
     'raise MemoryError(f"expm: the Pade kernel could not allocate (code {info})")', _PADE),
    ("numerics.py", "expm_stack",
     'raise RuntimeError(f"expm: internal LAPACK error in the Pade kernel (code {info})")', _PADE),
    ("cayley_klein.py", "induced_surface_distance",
     'raise GeometryError("projection degenerate for this center")',
     "a point this close to the center passes center.equals only on quadrics of "
     "dimension 10^4 or more, too large for a test"),
]


def _owners(tree: ast.AST) -> dict:
    """The innermost function around each line, by line number."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line in range(node.lineno, node.end_lineno + 1):
                if owner.get(line, (0, ""))[0] < node.lineno:
                    owner[line] = (node.lineno, node.name)
    return {line: name for line, (_, name) in owner.items()}


def executable_lines(path: Path) -> dict:
    """{line number: (function, stripped text)} of the file's executable lines."""
    text = path.read_text()
    source, owner = text.splitlines(), _owners(ast.parse(text))
    lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {i: (owner.get(i, "<module>"), source[i - 1].strip()) for i in sorted(lines)}


def stale_entries() -> list:
    """The UNRUN entries that name no executable line of their file."""
    found = {(path.name,) + entry for path in SRC.glob("*.py")
             for entry in executable_lines(path).values()}
    return [entry for entry in UNRUN if entry[:3] not in found]


def main(argv: list) -> int:
    prefix = str(SRC) + "/"
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    import pytest
    try:
        code = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    listed = {entry[:3] for entry in UNRUN}
    missed = total = 0
    for path in sorted(SRC.glob("*.py")):
        for line, (function, text) in executable_lines(path).items():
            total += 1
            if (str(path), line) not in ran and (path.name, function, text) not in listed:
                missed += 1
                print(f"src/erlangen/{path.name}:{line}: {text}")
    stale = stale_entries()
    for entry in stale:
        print(f"stale UNRUN entry: {entry[:3]}")
    print(f"{missed} of {total} executable lines neither ran nor are listed")
    if code != 0:
        return int(code)
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
