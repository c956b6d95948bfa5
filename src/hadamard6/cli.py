"""Command-line front end: verification suites, group orders, the outer
automorphism, and the GF(4) code facts.

Exit codes: 0 all selected checks pass, 1 a verification clause failed,
2 usage error, 141 (128 + SIGPIPE) stdout closed before the output was
written.  All behavior is flag-driven.  No check samples: --seed is
accepted and echoed in the JSON report, and changes nothing else.

run() is the process entry (the console script and ``python -m``); main()
is the in-process entry, for callers that keep running afterwards, and
never freezes their heap.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import autgroup, brep, gf4, outer
from .perms import Permutation

DEFAULT_SEED = 0
# Each entry looks its function up on the module when called, so a wrapper
# installed on the module later (a tracer, a test stub) is the one that runs.
SUITES = {
    "prop1": lambda: autgroup.verify_prop1(),
    "prop2": lambda: autgroup.verify_prop2(),
    "theorem": lambda: brep.verify_theorem(),
    "submodule": lambda: autgroup.verify_submodule(),
    "outer": lambda: outer.verify_outer(),
    "codes": lambda: gf4.verify_codes(),
}
GROUPS = {
    "X": lambda: autgroup.x_bsgs().order(),
    "X0": lambda: autgroup.x0_bsgs().order(),
    "N": lambda: autgroup.n_subgroup().order,
    "Y": lambda: autgroup.y_bsgs().order(),
    "autstar": lambda: autgroup.compute_aut_star().order,
    "aut": lambda: autgroup.compute_aut_linear().order,
}


def _seed(text: str) -> int:
    """ASCII digits with an optional leading "-"; int() alone would also
    read other Unicode digits, a "+", "_" separators and surrounding space."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hadamard6")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--only", choices=SUITES, help="run a single suite")
    fmt = verify.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report on stdout")
    fmt.add_argument("--text", action="store_true", help="text report (default)")
    verify.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="only echoed in the JSON report")

    outer_p = sub.add_parser("outer", help="query the outer automorphism")
    outer_sub = outer_p.add_subparsers(dest="outer_command", required=True)
    apply_p = outer_sub.add_parser("apply", help="apply to a permutation in cycle notation")
    apply_p.add_argument("cycles", help='e.g. "(1,2)" or "id"')
    outer_sub.add_parser("table", help="dump the full table as JSON")

    order_p = sub.add_parser("order", help="print an exact group order")
    order_p.add_argument("--group", choices=GROUPS, required=True)

    sub.add_parser("hexacode", help="parameters of the GF(4) row-span code as JSON")
    return parser


def _cmd_verify(args) -> int:
    names = [args.only] if args.only else list(SUITES)
    reports = [SUITES[n]() for n in names]
    overall = all(r.passed for r in reports)
    if args.json:
        doc = {
            "seed": args.seed,
            "pass": overall,
            "suites": [r.to_dict() for r in reports],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in reports:
            for line in r.text_lines():
                print(line)
        print(f"overall: {'PASS' if overall else 'FAIL'}")
    return 0 if overall else 1


def _cmd_outer(args) -> int:
    if args.outer_command == "table":
        print(json.dumps(outer.build_outer().to_json(), indent=2))
        return 0
    try:
        g = Permutation.parse(args.cycles, 6)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(str(outer.build_outer().apply(g)))
    return 0


def _cmd_order(args) -> int:
    print(GROUPS[args.group]())
    return 0


def _cmd_hexacode(args) -> int:
    code = gf4.h6_code()
    doc = {
        "length": code.length,
        "dimension": code.dimension,
        "min_distance": code.min_distance(),
        "codeword_count": len(code.words),
        "weight_distribution": {str(k): v for k, v in code.weight_distribution().items()},
    }
    print(json.dumps(doc, indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"verify": _cmd_verify, "outer": _cmd_outer, "order": _cmd_order,
                "hexacode": _cmd_hexacode}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull so the flush at
        # exit cannot fail again, and exit as a shell reports SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def run() -> int:
    """main() on the process's own arguments, then a frozen heap: the
    interpreter's collection at exit skips frozen objects, and the process
    drops every one of them a moment later anyway."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
