import random
from itertools import combinations, permutations

import pytest

from hadamard6 import elements, outer
from hadamard6.autgroup import XElement, tau1, tau2prime
from hadamard6.elements import tau2star
from hadamard6.groups import closure
from hadamard6.outer import (
    AutoTable,
    all_synthemes,
    build_outer,
    compare_up_to_inner,
    is_inner,
    sylvester_totals,
    totals_outer,
)
from hadamard6.perms import Permutation


# S6 enumerated independently of the hom_closure that builds the tables
S6 = tuple(Permutation(img) for img in permutations(range(6)))


def p6(text):
    return Permutation.parse(text, 6)


def on_bytes(table):
    # an AutoTable's storage: image bytes of each element and of its image
    return {g.images: v.images for g, v in table.items()}


def as_perms(t):
    return {g: t.apply(g) for g in S6 if g.images in t.table}


def conjugation_table(h):
    hi = h.inverse()
    table = {g: hi * g * h for g in S6}
    return AutoTable(on_bytes(table), (p6("(1,2)"), p6("(2,3,4,5,6)")))


def test_sigma_generator_images():
    sigma = build_outer()
    assert str(sigma.apply(p6("(1,2)"))) == "(1,2)(3,6)(4,5)"
    assert str(sigma.apply(p6("(2,3,4,5,6)"))) == "(2,3,4,5,6)"
    assert sigma.apply(Permutation.identity(6)).is_identity()


def test_sigma_maps_the_first_projection_of_y_to_the_second():
    y = [XElement.from_perm36(g) for g in closure([tau1().perm, tau2prime().perm])]
    assert len(y) == 720
    assert len({g.p.perm for g in y}) == 720
    sigma = build_outer()
    assert all(sigma.apply(g.p.perm) == g.q.perm for g in y)


def test_sigma_on_the_six_cycle():
    sigma = build_outer()
    assert str(sigma.apply(p6("(1,2,3,4,5,6)"))) == "(1,2,6)(3,5)"


def test_sigma_is_a_bijective_table_of_720():
    sigma = build_outer()
    assert len(sigma.table) == 720
    assert set(sigma.table) == {g.images for g in S6}
    assert all(type(g) is bytes and type(v) is bytes for g, v in sigma.table.items())
    assert sigma.is_bijective()


def test_sigma_multiplicative_exhaustively():
    # the 720 x 720 reference for the generator-induction proof
    sigma = build_outer()
    table = as_perms(sigma)
    items = list(table.items())
    for g, tg in items:
        for h, th in items:
            assert table[g * h] == tg * th
    assert sigma.is_multiplicative()


def test_is_multiplicative_rejects_two_swapped_entries():
    sigma = build_outer()
    a, b = [g for g in S6 if g not in sigma.generators and not g.is_identity()][:2]
    table = as_perms(sigma)
    table[a], table[b] = table[b], table[a]
    broken = AutoTable(on_bytes(table), sigma.generators)
    assert broken.is_bijective()
    assert not broken.is_multiplicative()


def test_is_multiplicative_rejects_generators_that_miss_the_domain():
    # <(1,2)> has order 2 and never reaches (1,2,3); swapping two of its right
    # cosets keeps T(g*s) = T(g)*T(s) for every g, so a loop over table
    # entries times generators would accept this non-homomorphism
    s = p6("(1,2)")
    a, b = p6("(1,2,3)"), p6("(1,3,2)")
    table = {g: g for g in S6}
    table[a], table[a * s], table[b], table[b * s] = b, b * s, a, a * s
    t = AutoTable(on_bytes(table), (s,))
    assert t.is_bijective()
    assert all(t.apply(g * s) == t.apply(g) * t.apply(s) for g in S6)
    assert not t.is_multiplicative()


def test_sigma_is_outer():
    assert is_inner(build_outer()) is None


def test_sigma_preserves_class_shapes_as_a_set_map():
    # images of a conjugacy class form a single conjugacy class
    sigma = build_outer()
    by_type = {}
    for g in S6:
        by_type.setdefault(g.cycle_type(), set()).add(g)
    for cls in by_type.values():
        images = {sigma.apply(g) for g in cls}
        shapes = {g.cycle_type() for g in images}
        assert len(shapes) == 1
        assert images == by_type[next(iter(shapes))]


def test_sigma_swaps_transpositions_and_triple_transpositions():
    sigma = build_outer()
    for g in S6:
        if g.cycle_type() == (2, 1, 1, 1, 1):
            assert sigma.apply(g).cycle_type() == (2, 2, 2)
        if g.cycle_type() == (2, 2, 2):
            assert sigma.apply(g).cycle_type() == (2, 1, 1, 1, 1)


def test_sigma_squared_is_inner():
    sigma = build_outer()
    assert is_inner(sigma.then(sigma)) is not None


def test_is_inner_on_actual_conjugations():
    assert is_inner(conjugation_table(Permutation.identity(6))).is_identity()
    h = p6("(1,2)")
    assert is_inner(conjugation_table(h)) == h


def _search_up_to_inner(t1, t2):
    # compare_up_to_inner as a search over t2's domain, the reference for the
    # construction
    for h in as_perms(t2):
        hi = h.inverse()
        if all(t1.apply(s) == hi * t2.apply(s) * h for s in t1.generators):
            if all(t1.apply(g) == hi * t2.apply(g) * h for g in as_perms(t1)):
                return h
    return None


IDENTITY = AutoTable(on_bytes({g: g for g in S6}), ())


def test_construction_equals_the_search_on_a_sample_of_conjugators():
    sigma = build_outer()
    sample = random.Random(27).sample(S6, 40)
    for h in sample:
        c = conjugation_table(h)
        assert compare_up_to_inner(c, IDENTITY) == _search_up_to_inner(c, IDENTITY) == h
        shifted = sigma.then(c)
        assert compare_up_to_inner(shifted, sigma) == _search_up_to_inner(shifted, sigma) == h
        assert compare_up_to_inner(sigma, c) is None
        assert _search_up_to_inner(sigma, c) is None


def test_verify_outer_inner_ness_results():
    sigma = build_outer()
    assert is_inner(sigma) is None
    assert is_inner(sigma.then(sigma)) == Permutation.identity(6)
    assert is_inner(totals_outer()) is None
    assert compare_up_to_inner(sigma, totals_outer()) == p6("(1,4,6,2,5)")
    assert _search_up_to_inner(sigma, totals_outer()) == p6("(1,4,6,2,5)")


@pytest.mark.parametrize("name", ["sigma", "sigma squared", "totals", "identity", "(1,2)",
                                  "(1,3,5)(2,4)", "(1,4,6,2,5)", "(1,2,3,4,5,6)"])
def test_is_inner_is_compare_up_to_inner_against_the_identity(name):
    sigma = build_outer()
    named = {"sigma": sigma, "sigma squared": sigma.then(sigma), "totals": totals_outer(),
             "identity": conjugation_table(Permutation.identity(6))}
    t = named[name] if name in named else conjugation_table(p6(name))
    assert is_inner(t) == compare_up_to_inner(t, AutoTable({g: g for g in t.table}, ()))


def test_is_inner_rejects_a_table_whose_domain_is_not_s6():
    partial = AutoTable(on_bytes({g: g for g in S6[:360]}), ())
    with pytest.raises(ValueError, match="S6"):
        is_inner(partial)
    seven = AutoTable({g.images + b"\x06": g.images + b"\x06" for g in S6}, ())
    with pytest.raises(ValueError, match="S6"):
        is_inner(seven)


def test_compare_up_to_inner_rejects_a_t2_that_is_not_a_bijection_of_s6():
    sigma = build_outer()
    collapsed = AutoTable(on_bytes({g: Permutation.identity(6) for g in S6}), ())
    with pytest.raises(ValueError, match="bijection"):
        compare_up_to_inner(sigma, collapsed)
    partial = AutoTable(on_bytes({g: g for g in S6[:360]}), ())
    with pytest.raises(ValueError, match="bijection"):
        compare_up_to_inner(sigma, partial)
    seven = AutoTable(on_bytes({g: Permutation(g.images + b"\x06") for g in S6}), ())
    with pytest.raises(ValueError, match="bijection"):
        compare_up_to_inner(sigma, seven)


def test_compare_up_to_inner_reads_off_no_h_from_a_t1_that_is_not_injective():
    # sign: every star transposition goes to (1,2), so the five images share
    # two points; merged: (1,3) goes to (1,2) as well as (1,2) does, so the
    # images share only point 1, but the h read off them is not a bijection
    # and fails the check on the entries
    sign = {g: p6("(1,2)") if sum(len(c) - 1 for c in g.cycles()) % 2 else Permutation.identity(6) for g in S6}
    merged = {g: g for g in S6}
    merged[p6("(1,3)")] = p6("(1,2)")
    for table in (sign, merged):
        t = AutoTable(on_bytes(table), (p6("(1,2)"), p6("(2,3,4,5,6)")))
        assert compare_up_to_inner(t, IDENTITY) is None
        assert _search_up_to_inner(t, IDENTITY) is None
        assert is_inner(t) is None


def test_compare_up_to_inner_checks_the_constructed_h_on_every_entry():
    # the stars still give h, but two swapped entries away from them break
    # h t1(g) = t2(g) h there
    h = p6("(1,3,5)(2,4)")
    table = as_perms(conjugation_table(h))
    a, b = p6("(1,2,3,4,5,6)"), p6("(1,6,5,4,3,2)")
    table[a], table[b] = table[b], table[a]
    t = AutoTable(on_bytes(table), (p6("(1,2)"), p6("(2,3,4,5,6)")))
    assert compare_up_to_inner(t, IDENTITY) is None
    assert _search_up_to_inner(t, IDENTITY) is None
    assert is_inner(t) is None


def test_verify_outer_makes_no_permutation_product_or_inverse(monkeypatch):
    counts = {"mul": 0, "inverse": 0}
    product, inverse = Permutation.__mul__, Permutation.inverse

    def counted_mul(a, b):
        counts["mul"] += 1
        return product(a, b)

    def counted_inverse(a):
        counts["inverse"] += 1
        return inverse(a)

    tau1(), tau2star()
    # the uncached builders, so the tables are built under the counters
    monkeypatch.setattr(outer, "build_outer", build_outer.__wrapped__)
    monkeypatch.setattr(outer, "totals_outer", totals_outer.__wrapped__)
    monkeypatch.setattr(Permutation, "__mul__", counted_mul)
    monkeypatch.setattr(Permutation, "inverse", counted_inverse)
    assert outer.verify_outer().passed
    assert counts == {"mul": 0, "inverse": 0}


def test_sigma_is_read_off_the_stabilizer_without_tau2prime(monkeypatch):
    # tau2 * and tau2' have equal projections, so the table is unchanged;
    # only the generators of the stabilizer of h6() build it
    def no_tau2prime():
        raise AssertionError("sigma must be read off tau1 and tau2 *")

    for module in (elements, outer):
        monkeypatch.setattr(module, "tau2prime", no_tau2prime, raising=False)
    assert (tau2star().p.perm, tau2star().q.perm) == (tau2prime().p.perm, tau2prime().q.perm)
    build_outer.cache_clear()
    assert outer.verify_outer().passed


def test_compare_up_to_inner():
    sigma = build_outer()
    assert compare_up_to_inner(sigma, sigma).is_identity()
    assert compare_up_to_inner(sigma, totals_outer()) is not None
    assert compare_up_to_inner(sigma, conjugation_table(Permutation.identity(6))) is None


# --- synthemes and totals ----------------------------------------------------


def test_fifteen_synthemes():
    synthemes = all_synthemes()
    assert len(synthemes) == 15
    # brute-force recount: perfect matchings among all 3-subsets of duads
    duads = list(combinations(range(6), 2))
    count = 0
    for triple in combinations(duads, 3):
        pts = [p for d in triple for p in d]
        if sorted(pts) == list(range(6)):
            count += 1
    assert count == 15


def test_six_totals_covering_every_duad_once():
    totals = sylvester_totals()
    assert len(totals) == 6
    for t in totals:
        covered = [d for s in t for d in s]
        assert len(covered) == 15
        assert len(set(covered)) == 15


def test_totals_action_is_an_outer_automorphism():
    t = totals_outer()
    assert t.apply(Permutation.identity(6)).is_identity()
    assert t.is_bijective()
    assert t.is_multiplicative()
    assert is_inner(t) is None


def test_totals_table_is_the_elementwise_action_on_the_totals():
    totals = sylvester_totals()
    index = {t: i for i, t in enumerate(totals)}
    reference = {
        g: Permutation(tuple(index[outer._transform_total(t, g)] for t in totals))
        for g in S6
    }
    assert totals_outer().table == on_bytes(reference)


def test_totals_table_acts_on_the_generators_only(monkeypatch):
    calls = []
    transform = outer._transform_total
    monkeypatch.setattr(outer, "_transform_total", lambda t, g: calls.append(g) or transform(t, g))
    table = totals_outer.__wrapped__()
    assert len(calls) == 12
    assert set(calls) == set(table.generators)
    assert table.table == totals_outer().table


def test_totals_action_sends_transpositions_to_triple_transpositions():
    t = totals_outer()
    transpositions = [g for g in S6 if g.cycle_type() == (2, 1, 1, 1, 1)]
    assert len(transpositions) == 15
    for g in transpositions:
        assert t.apply(g).cycle_type() == (2, 2, 2)


def test_table_json_shape():
    doc = build_outer().to_json()
    assert set(doc) == {"generator_images", "table", "note"}
    assert doc["generator_images"]["(1,2)"] == "(1,2)(3,6)(4,5)"
    assert len(doc["table"]) == 720
