"""Traced run of the hadamard6 CLI, instrumented from outside the package.

Run as

    python3 perfbench/tracer.py TRACE_OUT.json verify --json [--only SUITE] ...

with ``src`` on ``PYTHONPATH``.  The script imports the package, replaces
every binding of the functions and methods in ``TRACED`` with a wrapper,
runs ``hadamard6.cli.main`` on the remaining arguments (its report goes to
stdout unchanged), and writes the per-layer metrics and the recorded spans
to TRACE_OUT.json.

Wrappers come in three kinds:

- ``span``: a coarse boundary.  Each call is kept as a span
  (id, parent id, name, start, end) and its time is summed.
- ``timed``: a hot method.  Calls and time are summed; no span is kept.
- ``count``: a hotter method.  Only calls are counted.

``span`` and ``timed`` calls share one stack, so a call's self time is its
duration minus the time of the traced calls directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

perf = time.perf_counter

# (metric prefix, module under hadamard6 or "fractions", attribute, kind, stats)
# stats names the metrics reported for the entry: "calls", "s" (inclusive
# seconds) or "self_s" (seconds minus traced calls inside).
TRACED = (
    ("autgroup.compute_aut_star", "autgroup", "compute_aut_star", "span", ("s",)),
    ("autgroup.x_bsgs", "autgroup", "x_bsgs", "span", ("s",)),
    ("autgroup.n_subgroup", "autgroup", "n_subgroup", "span", ("s",)),
    ("autgroup.compute_aut_linear", "autgroup", "compute_aut_linear", "span", ("s",)),
    ("autgroup.verify_prop1", "autgroup", "verify_prop1", "span", ("s",)),
    ("autgroup.verify_prop2", "autgroup", "verify_prop2", "span", ("s",)),
    ("autgroup.verify_submodule", "autgroup", "verify_submodule", "span", ("s",)),
    ("autgroup.XElement.act", "autgroup", "XElement.act", "count", ("calls",)),
    ("autgroup.XElement.mul", "autgroup", "XElement.__mul__", "count", ("calls",)),
    ("autgroup.XElement.to_perm36", "autgroup", "XElement.to_perm36", "count", ("calls",)),
    ("groups.orbit_stabilizer", "groups", "orbit_stabilizer", "span", ("self_s",)),
    ("groups.bsgs_build", "groups", "bsgs_build", "timed", ("calls", "s")),
    ("groups.BSGS.contains", "groups", "BSGS.contains", "timed", ("calls", "s")),
    ("groups.closure", "groups", "closure", "timed", ("calls", "s")),
    ("groups.is_simple_small", "groups", "is_simple_small", "span", ("s",)),
    ("groups.derived_subgroup", "groups", "derived_subgroup", "span", ("s",)),
    ("groups.center_of", "groups", "center_of", "span", ("s",)),
    ("groups.hom_closure", "groups", "hom_closure", "span", ("s",)),
    ("brep.verify_theorem", "brep", "verify_theorem", "span", ("s",)),
    ("brep.b_rep", "brep", "b_rep", "count", ("calls",)),
    ("brep.verify_intertwining", "brep", "verify_intertwining", "timed", ("calls", "s")),
    ("brep.commutant_dimension", "brep", "commutant_dimension", "span", ("s",)),
    ("outer.verify_outer", "outer", "verify_outer", "span", ("s",)),
    ("outer.build_outer", "outer", "build_outer", "span", ("s",)),
    ("outer.AutoTable.is_multiplicative", "outer", "AutoTable.is_multiplicative", "timed",
     ("calls", "s")),
    ("outer.is_inner", "outer", "is_inner", "span", ("s",)),
    ("outer.compare_up_to_inner", "outer", "compare_up_to_inner", "span", ("s",)),
    ("outer.totals_outer", "outer", "totals_outer", "span", ("s",)),
    ("matrices.ExactMatrix.matmul", "matrices", "ExactMatrix.__matmul__", "timed", ("calls", "s")),
    ("eisenstein.EisensteinRational.new", "eisenstein", "EisensteinRational.__init__", "count",
     ("calls",)),
    ("eisenstein.EisensteinRational.mul", "eisenstein", "EisensteinRational.__mul__", "count",
     ("calls",)),
    ("eisenstein.SplitQuaternion.mul", "eisenstein", "SplitQuaternion.__mul__", "count", ("calls",)),
    ("eisenstein.fraction_new", "fractions", "Fraction.__new__", "count", ("calls",)),
    ("monomial.MonomialMatrix.mul", "monomial", "MonomialMatrix.__mul__", "count", ("calls",)),
    ("monomial.MonomialMatrix.new", "monomial", "MonomialMatrix.__init__", "count", ("calls",)),
    ("perms.Permutation.mul", "perms", "Permutation.__mul__", "count", ("calls",)),
    ("perms.Permutation.inverse", "perms", "Permutation.inverse", "count", ("calls",)),
    ("gf4.verify_codes", "gf4", "verify_codes", "span", ("s",)),
)

# Counts read off the arguments and results of traced calls.
RESULT_COUNTS = (
    "autgroup.orbit_states",
    "autgroup.schreier_tested",
    "autgroup.schreier_sifted",
    "autgroup.schreier_kept",
    "groups.closure.elements",
    "groups.hom_closure.table_size",
)
DERIVED = RESULT_COUNTS + ("autgroup.schreier_kept_ratio", "cli.main.s")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order; the
    benchmark adds ``trace.overhead_s`` from the untraced run."""
    names = [f"{prefix}.{stat}" for prefix, _, _, _, stats in TRACED for stat in stats]
    return names + list(DERIVED)


def unit(name: str) -> str:
    if name.rsplit(".", 1)[-1] in ("s", "self_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def is_exact(name: str) -> bool:
    """Counts and ratios of counts must repeat exactly; times need not."""
    return unit(name) != "s"


class Tracer:
    """Spans and aggregates of one traced run, kept in memory."""

    def __init__(self):
        # frame: [start, time of traced calls inside, id of enclosing span]
        self.stack = [[perf(), 0.0, 0]]
        self.spans: list[tuple] = []
        # prefix -> [calls, inclusive seconds, self seconds]
        self.agg: dict[str, list] = {}
        self.extra = dict.fromkeys(RESULT_COUNTS, 0)

    def counter(self, prefix, fn, takes_kwargs: bool):
        cell = self.agg.setdefault(prefix, [0, 0.0, 0.0])

        # Packing keyword arguments doubles the wrapper's cost, so only the
        # one entry called with keywords (Fraction.__new__) pays for it.
        if takes_kwargs:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args):
                cell[0] += 1
                return fn(*args)

        return functools.wraps(fn)(counted)

    def timer(self, prefix, fn, keep_span: bool, on_result=None):
        cell = self.agg.setdefault(prefix, [0, 0.0, 0.0])
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) + 1 if keep_span else parent[2]
            if keep_span:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [perf(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                start = frame[0]
                duration = end - start
                parent[1] += duration
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[1]
                if keep_span:
                    spans[span_id - 1] = (span_id, parent[2], prefix, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def counted_keep(self, keep):
        """Wrap the Schreier-generator filter handed to orbit_stabilizer: every
        call is a tested generator, a call that runs a membership test is a
        sifted one, and a call that returns True is a kept one."""
        extra = self.extra
        contains_cell = self.agg.setdefault("groups.BSGS.contains", [0, 0.0, 0.0])

        def counted(candidate):
            before = contains_cell[0]
            kept = keep(candidate)
            extra["autgroup.schreier_tested"] += 1
            if contains_cell[0] != before:
                extra["autgroup.schreier_sifted"] += 1
            if kept:
                extra["autgroup.schreier_kept"] += 1
            return kept

        return counted

    def metrics(self) -> dict:
        out = {}
        for prefix, _, _, _, stats in TRACED:
            calls, total, self_s = self.agg.get(prefix, (0, 0.0, 0.0))
            values = {"calls": calls, "s": total, "self_s": self_s}
            for stat in stats:
                out[f"{prefix}.{stat}"] = values[stat]
        out.update(self.extra)
        tested = self.extra["autgroup.schreier_tested"]
        out["autgroup.schreier_kept_ratio"] = (
            self.extra["autgroup.schreier_kept"] / tested if tested else 0.0
        )
        out["cli.main.s"] = self.agg.get("cli.main", (0, 0.0, 0.0))[1]
        return out


def hadamard6_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hadamard6" or name.startswith("hadamard6."))]


def resolve(module: str, attr: str) -> tuple[object, object]:
    """(owner, original function) of one TRACED entry."""
    if module == "fractions":
        return Fraction, vars(Fraction)["__new__"].__func__
    owner = sys.modules[f"hadamard6.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, vars(owner)[name]


# Entry -> (result count it adds to, size of one result).
_RESULT_SIZES = {
    "groups.closure": ("groups.closure.elements", len),
    "groups.hom_closure": ("groups.hom_closure.table_size", len),
    "groups.orbit_stabilizer": ("autgroup.orbit_states", lambda r: r.orbit_size),
}


def install(tracer: Tracer) -> None:
    """Wrap every binding of every TRACED entry: module-level copies made by
    ``from .x import y`` and class-level aliases such as ``__rmul__``."""
    import hadamard6.cli  # noqa: F401  (loads every module the CLI uses)

    modules = hadamard6_modules()
    for prefix, module, attr, kind, _ in TRACED:
        owner, original = resolve(module, attr)
        on_result = None
        if prefix in _RESULT_SIZES:
            key, size = _RESULT_SIZES[prefix]

            def on_result(result, key=key, size=size, extra=tracer.extra):
                extra[key] += size(result)

        if kind == "count":
            wrapper = tracer.counter(prefix, original, takes_kwargs=owner is Fraction)
        else:
            wrapper = tracer.timer(prefix, original, kind == "span", on_result)
        if prefix == "groups.orbit_stabilizer":
            wrapper = _with_counted_keep(tracer, wrapper)

        if owner is Fraction:
            Fraction.__new__ = staticmethod(wrapper)
            continue
        targets = [owner] if isinstance(owner, type) else modules
        replaced = 0
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"no binding of {module}.{attr} found")


def _with_counted_keep(tracer: Tracer, wrapper):
    @functools.wraps(wrapper)
    def orbit_stabilizer(gens, act, seed, keep=None):
        if keep is not None:
            keep = tracer.counted_keep(keep)
        return wrapper(gens, act, seed, keep=keep)

    return orbit_stabilizer


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_OUT.json CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import hadamard6.cli

    run = tracer.timer("cli.main", hadamard6.cli.main, keep_span=True)
    status = run(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"metrics": tracer.metrics(),
                   "spans": [list(s) for s in tracer.spans]}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
