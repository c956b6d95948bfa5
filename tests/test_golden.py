"""Golden output: the CLI's stdout, byte for byte, for the commands users run.

Each case runs ``cli.main`` in-process and compares its stdout with a file in
tests/golden/.  ``outer table`` (40 KB) is pinned by its SHA-256 only;
tests/test_outer.py checks its content.  A changed golden file is a changed
verified output, so review its diff before committing it.

Regenerate every file from the repository root with:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"
"""

from __future__ import annotations

import difflib
import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hadamard6.cli import GROUPS, main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("verify.json", ["verify", "--json"]),
    ("verify.txt", ["verify"]),
    *[(f"order_{g}.txt", ["order", "--group", g]) for g in GROUPS],
    ("hexacode.json", ["hexacode"]),
    ("outer_apply_12.txt", ["outer", "apply", "(1,2)"]),
    ("outer_apply_123456.txt", ["outer", "apply", "(1,2,3,4,5,6)"]),
    ("outer_table.sha256", ["outer", "table"]),
]


def _output(name: str, argv: list[str]) -> str:
    """stdout of the command, or its SHA-256 line for a .sha256 file."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited with {code}")
    out = buf.getvalue()
    if name.endswith(".sha256"):
        return hashlib.sha256(out.encode()).hexdigest() + "\n"
    return out


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        (GOLDEN / name).write_text(_output(name, argv))


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden_file(name, argv):
    expected = (GOLDEN / name).read_text()
    actual = _output(name, argv)
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True), actual.splitlines(keepends=True),
                                    f"golden/{name}", "actual")
        pytest.fail("".join(diff), pytrace=False)
