#!/usr/bin/env python3
"""List the executable lines of ``src/`` that a pytest run never executes.

No coverage package is needed: the test suite runs in this process under a
``sys.settrace`` line collector (also installed for new threads) that records
only frames whose code lives under ``src/``.  A line is executable when some
code object compiled from the file maps a bytecode instruction to it.  Runs
that tests start in a subprocess are not seen, so a line that only such a
run reaches carries the comment ``# unrun-ok`` and is not counted.

Run from the repository root; extra arguments go to pytest:

    python scripts/unrun_lines.py [-x tests/test_grassmann.py ...]

The exit status is pytest's when the tests fail, otherwise 1 when some
unmarked line of ``src/`` never ran and 0 when every one did.
"""

import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PREFIX = str(SRC) + "/"
MARK = "# unrun-ok"
executed = {}


def _tracer(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    seen = executed.setdefault(filename, set())

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    return local


def executable_lines(path):
    """Lines of ``path`` that carry an instruction of some code object."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        lines.update(line for _, _, line in code.co_lines() if line)
    return lines


def main(argv):
    import pytest

    sys.path.insert(0, str(SRC))
    threading.settrace(_tracer)
    sys.settrace(_tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text().splitlines()
        unrun = sorted(
            line for line in executable_lines(path) - executed.get(str(path), set()) if MARK not in text[line - 1]
        )
        total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun: {', '.join(map(str, unrun))}")
    print(f"{total} unrun lines in {SRC.relative_to(ROOT)}")
    return int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
