#!/usr/bin/env python3
"""List the functions in src/hadamard6 that no command reaches.

Runs every command once, in this one process, under sys.setprofile, and
prints (as a JSON list) each function or method defined in the package's
source that no command called, minus the allowlist below.  Exits 1 when the
list is not empty, or when an allowlist entry names no function or one that
a command reached.

    python scripts/reach.py

Only code compiled from the package's own files is listed, so methods that
namedtuple generates never appear.  Protocol methods that the interpreter
calls implicitly (hashing, printing, equality, truth) are skipped: a command
may never need them, but removing one changes how every value behaves.
A function counts as reached when it was called at all: what it holds, its
branches, lambdas and nested functions, counts with it.
"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

COMMANDS = (
    ["verify"],
    ["verify", "--json"],
    ["verify", "--json", "--seed", "1"],
    ["outer", "table"],
    ["outer", "apply", "(1,2)"],
    ["outer", "apply", "id"],
    ["outer", "apply", "(1,7)"],
    ["hexacode"],
    *(["order", "--group", g] for g in ("X", "X0", "N", "Y", "autstar", "aut")),
    ["order"],  # usage errors
    ["bogus"],
)
PROTOCOL = {"__hash__", "__repr__", "__str__", "__eq__", "__bool__"}
# perfbench/tracer.py wraps these, or another method of their class, by name;
# they go when it stops
TRACER_NAMED = {
    "groups.center_of",
    "matrices.ExactMatrix.__init__",
    "matrices.ExactMatrix.__matmul__",
    "monomial.MonomialMatrix.__mul__",
}
ALLOWED = TRACER_NAMED | {
    # number-type operations that only the tests' dense references use
    "eisenstein.EisensteinRational.__sub__",
    "eisenstein.EisensteinRational.__neg__",
    "eisenstein.EisensteinRational.__rsub__",
    "eisenstein.SplitQuaternion.__add__",
    # reached only by a component that is not an int
    "eisenstein._integer",
    # the process entry; main() is what the commands call
    "cli.run",
}


def defined(code, prefix):
    """(qualified name, code) for every function defined in the body of a
    module or class, recursing into class bodies only."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name.startswith("<"):
            continue
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_NEWLOCALS:
            yield name, const
        else:
            yield from defined(const, name + ".")


def main() -> int:
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from hadamard6 import cli

        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sys.setprofile(None)

    keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in reached}
    missed = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        module = compile(path.read_text(), str(path), "exec")
        missed.update(name for name, code in defined(module, path.stem + ".")
                      if code.co_name not in PROTOCOL
                      and (str(path), code.co_firstlineno, code.co_name) not in keys)
    stale = ALLOWED - missed
    if stale:
        print(f"allowlisted but reached or not defined: {sorted(stale)}", file=sys.stderr)
    unreached = sorted(missed - ALLOWED)
    print(json.dumps(unreached, indent=2))
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
