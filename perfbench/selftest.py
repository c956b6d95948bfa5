"""Self-test of the benchmark itself, run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that

1. the gate accepts a real ``verify --only outer --json`` report and rejects
   it with ``pass`` flipped, with a clause dropped, with a ``computed``
   changed and with a wrong seed echoed;
2. the tracer replaces every binding of every traced function, including the
   module-level copies ``brep.compute_aut_star``, ``autgroup.bsgs_build`` and
   ``outer.hom_closure``;
3. a traced run of each workload passes the gate, repeats its exact counts,
   and reports each per-layer metric as nonzero where ``WORKS_ON`` says the
   layer works and as zero where it says the workload bypasses it;
4. the metric names in ``BENCHMARK.json`` are the ones the benchmark prints.

Part 3 runs every workload three times (about three minutes).  Exit code 0
means every check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import gate
import run
import tracer

VA, TH, OU = "verify_all", "theorem", "outer"

# Where each per-layer metric must be nonzero; on every other workload it
# must be zero.  From the layer -> workload map in README.md.
WORKS_ON: dict[str, set] = {}
for workloads, names in (
    ({VA, TH}, (
        "autgroup.compute_aut_star.s", "autgroup.compute_aut_linear.s",
        "autgroup.XElement.act.calls", "autgroup.XElement.mul.calls",
        "autgroup.XElement.to_perm36.calls", "autgroup.orbit_states",
        "autgroup.schreier_tested", "autgroup.schreier_sifted", "autgroup.schreier_kept",
        "autgroup.schreier_kept_ratio", "groups.orbit_stabilizer.self_s",
        "groups.bsgs_build.calls", "groups.bsgs_build.s",
        "groups.BSGS.contains.calls", "groups.BSGS.contains.s",
        "brep.verify_theorem.s", "brep.b_rep.calls", "brep.verify_intertwining.calls",
        "brep.verify_intertwining.s", "brep.commutant_dimension.s",
        "matrices.ExactMatrix.matmul.calls", "matrices.ExactMatrix.matmul.s",
        "eisenstein.EisensteinRational.new.calls", "eisenstein.EisensteinRational.mul.calls",
        "eisenstein.SplitQuaternion.mul.calls", "eisenstein.fraction_new.calls",
        "monomial.MonomialMatrix.mul.calls", "monomial.MonomialMatrix.new.calls",
    )),
    ({VA}, (
        "autgroup.x_bsgs.s", "autgroup.n_subgroup.s", "autgroup.verify_prop1.s",
        "autgroup.verify_prop2.s", "autgroup.verify_submodule.s",
        "groups.closure.calls", "groups.closure.elements", "groups.closure.s",
        "groups.is_simple_small.s", "groups.derived_subgroup.s", "groups.center_of.s",
        "gf4.verify_codes.s",
    )),
    ({VA, OU}, (
        "groups.hom_closure.s", "groups.hom_closure.table_size",
        "outer.verify_outer.s", "outer.build_outer.s",
        "outer.AutoTable.is_multiplicative.calls", "outer.AutoTable.is_multiplicative.s",
        "outer.is_inner.s", "outer.compare_up_to_inner.s", "outer.totals_outer.s",
    )),
    ({VA, TH, OU}, ("perms.Permutation.mul.calls", "perms.Permutation.inverse.calls",
                    "cli.main.s")),
):
    WORKS_ON.update(dict.fromkeys(names, workloads))

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_gate() -> None:
    args, suites, seed = run.verify_args(OU, 0)
    proc = subprocess.run([sys.executable, "-m", "hadamard6.cli", *args], capture_output=True,
                          env=run.child_env(1), cwd=run.ROOT, check=False)
    expect(not gate.check_report(proc.stdout, proc.returncode, suites, seed),
           "gate accepts the real outer report")

    def mutated(change) -> bytes:
        doc = json.loads(proc.stdout)
        change(doc)
        return json.dumps(doc).encode()

    def flip_pass(doc):
        doc["pass"] = False

    def drop_clause(doc):
        doc["suites"][0]["clauses"].pop(3)

    def change_computed(doc):
        doc["suites"][0]["clauses"][2]["computed"] = "(1,2)"

    for what, change in (("flipped pass", flip_pass), ("dropped clause", drop_clause),
                         ("changed computed", change_computed)):
        expect(bool(gate.check_report(mutated(change), 0, suites, seed)),
               f"gate rejects a report with a {what}")
    expect(bool(gate.check_report(proc.stdout, 0, suites, seed + 1)),
           "gate rejects a report that echoes another seed")
    expect(bool(gate.check_report(proc.stdout, 1, suites, seed)),
           "gate rejects a nonzero exit code")


def check_bindings() -> None:
    sys.path.insert(0, str(run.SRC))
    import hadamard6.cli  # noqa: F401

    originals = {id(tracer.resolve(module, attr)[1]): f"{module}.{attr}"
                 for _, module, attr, _, _ in tracer.TRACED}
    tracer.install(tracer.Tracer())
    left = []
    for mod in tracer.hadamard6_modules():
        namespaces = [(mod.__name__, vars(mod))]
        namespaces += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
        for where, namespace in namespaces:
            left += [f"{where}.{k} is {originals[id(v)]}" for k, v in namespace.items()
                     if id(v) in originals]
    expect(not left, "every binding of every traced function is wrapped"
           + "".join(f"\n     unwrapped: {x}" for x in left))
    import hadamard6.autgroup
    import hadamard6.brep
    import hadamard6.groups
    import hadamard6.outer
    for copy, source in ((hadamard6.brep.compute_aut_star, "autgroup.compute_aut_star"),
                         (hadamard6.autgroup.bsgs_build, "groups.bsgs_build"),
                         (hadamard6.outer.hom_closure, "groups.hom_closure")):
        expect(hasattr(copy, "__wrapped__"), f"the module-level copy of {source} is wrapped")


def check_layers() -> None:
    names = tracer.metric_names()
    expect(set(WORKS_ON) == set(names), "WORKS_ON covers every per-layer metric")
    for workload in run.WORKLOADS:
        start = time.perf_counter()
        verdicts, samples = run.run_traced(workload, 7, time.perf_counter() + run.DEADLINE_S)
        for problem in verdicts.problems:
            print(f"     {problem}")
        expect(verdicts.correct, f"{workload}: traced run passes the gate and repeats its counts "
                                 f"({time.perf_counter() - start:.1f} s)")
        wrong = [f"{n} = {samples[n][1][0]}" for n in names
                 if (samples[n][1][0] != 0) != (workload in WORKS_ON[n])]
        expect(not wrong, f"{workload}: per-layer metrics are nonzero exactly where the layer works"
               + "".join(f"\n     unexpected: {x}" for x in wrong))


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect([m["name"] for m in spec["per_layer"]] == tracer.metric_names() + ["trace.overhead_s"],
           "BENCHMARK.json lists the per-layer metrics the traced run prints")
    expect([m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"],
           "BENCHMARK.json lists the end-to-end metrics the untraced run prints")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_gate()
    check_benchmark_json()
    check_layers()
    check_bindings()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
