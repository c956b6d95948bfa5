"""Correctness gate for one ``hadamard6 verify --json`` report.

A run passes only if the process exited with 0, the document says
``pass: true``, echoes the expected seed, lists exactly the expected suites in
order, each suite's clause ids equal the reference below, and every clause
has ``pass: true`` and ``computed == expected``.
"""

from __future__ import annotations

import json

# Clause ids of every suite, as the CLI prints them.
REFERENCE = {
    "prop1": (
        "h6_hadamard", "order_X", "order_X0", "order_N", "order_N_via_blocks",
        "n_normal_in_x", "n_rho1_projection", "n_rho2_projection", "order_Y",
        "y_meet_n", "s6_presentation", "component_determinants", "n3_n4sq_n5sq",
        "n3_n4sq_n5sq_conj",
    ),
    "prop2": (
        "autstar_order", "orbit_size", "orbit_stabilizer", "span_order",
        "stabilizer_equals_span", "tau1_member", "tau2star_member",
        "star_not_member", "commutator_tau2_star", "sylow_fix_h6",
        "sylow_commutator", "aut_order", "aut_perfect", "center",
        "central_quotient_order", "central_quotient_simple", "perm18_tau1",
        "perm18_tau2", "perm18_star", "kernel18",
    ),
    "theorem": (
        "brep_homomorphism", "intertwining", "rhs_involution",
        "beta_unit_squares", "cycle_types", "commutant_dimension",
    ),
    "submodule": (
        "module_size", "zero_closure", "constant_closures",
        "nonconstant_closures", "overall",
    ),
    "outer": (
        "synthemes", "totals", "sigma_transposition", "sigma_six_cycle",
        "table_bijective", "table_multiplicative", "sigma_outer",
        "sigma_squared_inner", "transpositions_to_2_2_2", "totals_outer_outer",
        "conjugator_exists",
    ),
    "codes": ("parameters", "codewords", "punctures", "generator_choice"),
}


def clause_count(suites) -> int:
    return sum(len(REFERENCE[s]) for s in suites)


def check_report(stdout: bytes, returncode: int, suites, seed: int) -> list[str]:
    """Every way the run misses the gate; empty when it passes.  A run that
    fails counts all of its clauses as failed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    problems = []
    if doc.get("pass") is not True:
        problems.append("report does not say pass: true")
    if doc.get("seed") != seed:
        problems.append(f"report echoes seed {doc.get('seed')!r}, expected {seed}")
    got_suites = [s.get("suite") for s in doc.get("suites", ())]
    if got_suites != list(suites):
        return problems + [f"suites {got_suites}, expected {list(suites)}"]
    for suite in doc["suites"]:
        name = suite["suite"]
        if suite.get("pass") is not True:
            problems.append(f"suite {name} does not say pass: true")
        clauses = suite.get("clauses", ())
        ids = [c.get("id") for c in clauses]
        if sorted(map(str, ids)) != sorted(REFERENCE[name]):
            problems.append(f"suite {name} has clause ids {ids}, expected {list(REFERENCE[name])}")
        for c in clauses:
            if c.get("pass") is not True or c.get("computed") != c.get("expected"):
                problems.append(f"{name}.{c.get('id')}: computed {c.get('computed')!r}, "
                                f"expected {c.get('expected')!r}, pass {c.get('pass')!r}")
    return problems
