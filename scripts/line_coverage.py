"""List every line of ``src/dircomplex`` that the tier-1 suite never runs.

Runs the suite in this process through ``pytest.main`` under a
``sys.settrace`` line tracer (standard library only) and prints each library
line that no test reached, with the function it belongs to:

    python scripts/line_coverage.py

A line counts when it holds bytecode of a function or class body; each code
object's first line (its ``def`` or ``class`` line) and module-level code,
which runs at import, are not counted. The tracer is armed before pytest
starts, so class bodies and calls made while tests are collected count too,
and it is armed again before each test's setup, call and teardown, because
CPython switches a trace function off when it raises, as it does when a test
overflows the stack inside it. A code object stops being traced once all of
its lines have run.

Exits 1 when the suite fails or when an unrun line lies outside
``ALLOWED``, which is keyed by function name, and 0 otherwise.
"""

from __future__ import annotations

import linecache
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "dircomplex"

# function (module.qualified name) -> why its unrun lines are accepted
ALLOWED = {
    "cli.main": "the console-script entry point ends the process, and on a "
    "closed pipe re-points fd 1 to devnull, so only tests that start a "
    "process run it, where this tracer does not follow",
}


def _code_objects(code, prefix):
    """Yield ``(qualified name, code)`` for every function or class body
    nested in ``code``."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = f"{prefix}.{const.co_name}" if prefix else const.co_name
            yield name, const
            yield from _code_objects(const, name)


def _body_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    return lines - {code.co_firstlineno}


def library_lines():
    """Map ``(path, line)`` to its function's name, for every counted line."""
    owner = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        # an outer function is listed before the functions nested in it, so
        # a line that both hold goes to the innermost
        for name, code in _code_objects(module, ""):
            for line in _body_lines(code):
                owner[(str(path), line)] = f"{path.stem}.{name}"
    return owner


# code object -> its tracer, or None once it is not (or no longer) traced
_tracers = {}
# code object -> (path, lines of its body that have not run yet)
_left = {}


def _new_tracer(code):
    path = os.path.realpath(code.co_filename)
    if Path(path).parent != PACKAGE:
        _tracers[code] = None
        return None
    left = _body_lines(code)
    _left[code] = (path, left)

    def trace_line(frame, event, arg):
        if event == "line":
            left.discard(frame.f_lineno)
            if not left:
                _tracers[code] = None
        return trace_line

    _tracers[code] = trace_line if left else None
    return _tracers[code]


def _trace_call(frame, event, arg):
    try:
        return _tracers[frame.f_code]
    except KeyError:
        return _new_tracer(frame.f_code)


def _arm():
    sys.settrace(_trace_call)
    threading.settrace(_trace_call)


class _Rearm:
    """Pytest plugin: arm the tracer again before every phase of a test."""

    def pytest_runtest_setup(self, item):
        _arm()

    def pytest_runtest_call(self, item):
        _arm()

    def pytest_runtest_teardown(self, item):
        _arm()


def main():
    sys.path.insert(0, str(SRC))
    import pytest

    os.chdir(ROOT)
    _arm()
    status = pytest.main(["-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider"], plugins=[_Rearm()])
    sys.settrace(None)
    threading.settrace(None)

    owner = library_lines()
    unrun = set(owner)
    for code, (path, left) in _left.items():
        unrun -= {(path, line) for line in _body_lines(code) - left}
    blocking = 0
    for path, line in sorted(unrun):
        name = owner[(path, line)]
        text = linecache.getline(path, line).strip()
        mark = "allowed" if name in ALLOWED else "UNRUN"
        blocking += name not in ALLOWED
        where = f"{Path(path).relative_to(ROOT)}:{line}"
        print(f"{mark:7} {where}  {name}  {text}")
    print(f"{len(owner) - len(unrun)} of {len(owner)} lines ran; "
          f"{len(unrun) - blocking} unrun in allowed functions, "
          f"{blocking} outside them")
    for name, reason in ALLOWED.items():
        print(f"allowed: {name}: {reason}")
    return 1 if status != 0 or blocking else 0


if __name__ == "__main__":
    sys.exit(main())
