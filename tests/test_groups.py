import ast
import random
from itertools import permutations as iter_permutations
from operator import mul
from pathlib import Path

import pytest

from hadamard6 import groups, outer, perms
from hadamard6.autgroup import (
    _phase_act,
    compute_aut_linear,
    star,
    tau1,
    tau2,
    tau2prime,
    x0_bsgs,
    x_bsgs,
    x_generators,
)
from hadamard6.groups import (
    ActionConsistencyError,
    BlockSystemError,
    ClosureCapError,
    InconsistentImagesError,
    action_kernel_order,
    BSGS,
    bsgs_build,
    center_of,
    closure,
    commutator,
    conjugate,
    derived_subgroup,
    hom_closure,
    is_simple_small,
    normal_closure,
    orbit_stabilizer,
)
from hadamard6.matrices import H6_PHASES
from hadamard6.perms import _IDENT, Permutation


def brute_force_order(gens):
    return len(closure(gens))


def test_bsgs_cyclic():
    b = bsgs_build([Permutation.parse("(1,2,3)", 3)])
    assert b.order() == 3


def test_bsgs_s6_from_standard_generators():
    gens = [Permutation.parse("(2,3,4,5,6)", 6), Permutation.parse("(1,2)", 6)]
    b = bsgs_build(gens)
    assert b.order() == 720
    assert b.order() == brute_force_order(gens)


def test_bsgs_matches_brute_force_on_random_small_groups():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(3, 7)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        if all(g.is_identity() for g in gens):
            continue
        chain, members = bsgs_build(gens), set(closure(gens))
        assert chain.order() == len(members)
        # every non-member is sifted until some level's transversal misses it
        for images in iter_permutations(range(n)):
            g = Permutation(images)
            assert chain.contains(g) == (g in members)


def test_bsgs_rejects_a_generator_of_another_degree():
    three, four = Permutation.parse("(1,2,3)", 3), Permutation.parse("(1,2,3,4)", 4)
    with pytest.raises(ValueError, match="degree mismatch"):
        BSGS([three, four])
    with pytest.raises(ValueError, match="degree mismatch"):
        BSGS([four], degree=5)
    with pytest.raises(ValueError, match="degree mismatch"):
        BSGS([three]).add(four)


def test_membership():
    b = bsgs_build([Permutation.parse("(1,2,3)", 3)])
    assert not b.contains(Permutation.parse("(1,2)", 3))
    assert b.contains(Permutation.parse("(1,3,2)", 3))
    two = bsgs_build([Permutation.parse("(1,2)", 2)])
    assert two.order() == 2

    gens = [Permutation.parse("(2,3,4,5,6)", 6), Permutation.parse("(1,2)", 6)]
    b6 = bsgs_build(gens)
    rng = random.Random(12)
    g = Permutation.identity(6)
    for _ in range(20):
        g = g * rng.choice(gens)
        assert b6.contains(g)


def test_bsgs_trivial_group():
    b = BSGS([], 5)
    assert b.order() == 1
    assert b.contains(Permutation.identity(5))
    assert not b.contains(Permutation.parse("(1,2)", 5))
    with pytest.raises(ValueError):
        b.contains(Permutation.identity(4))


def test_orbit_stabilizer_on_natural_action():
    gens = [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)]
    result = orbit_stabilizer(gens, lambda p, g: g.images[p], 0)
    assert result.orbit_size == 4
    stab_order = brute_force_order(result.stabilizer_generators)
    assert stab_order == 6
    assert result.orbit_size * stab_order == 24


def test_orbit_stabilizer_checks_action_consistency():
    gens = [Permutation.parse("(1,2,3)", 3)]

    def bogus(p, g):
        return (p + 2) % 3

    with pytest.raises(ActionConsistencyError):
        orbit_stabilizer(gens, bogus, 0)


def test_orbit_stabilizer_never_offers_identity_candidates():
    gens = [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)]
    offered = []

    def keep(candidate):
        offered.append(candidate)
        return True

    result = orbit_stabilizer(gens, lambda p, g: g.images[p], 0, keep=keep)
    assert offered and not any(c.is_identity() for c in offered)
    assert brute_force_order(result.stabilizer_generators) == 6

    # the regular action has a trivial stabilizer: every Schreier generator
    # is the identity, so keep is never called
    offered.clear()
    e = Permutation.identity(4)
    result = orbit_stabilizer(gens, lambda x, g: x * g, e, keep=keep)
    assert result.orbit_size == 24
    assert offered == []


S5 = [Permutation.parse("(1,2,3,4,5)", 5), Permutation.parse("(1,2)", 5)]


def _point_act(p, g):
    return g.images[p]


def test_orbit_stabilizer_cap(monkeypatch):
    seven_cycle = Permutation.parse("(1,2,3,4,5,6,7)", 7)
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 5)
    with pytest.raises(ClosureCapError):
        orbit_stabilizer([seven_cycle], _point_act, 0)


def test_schreier_search_labels_form_a_transversal():
    labels = groups._schreier_search(S5, _point_act, {0: _IDENT[:5]}, label_gens=S5)
    assert sorted(labels) == list(range(5))
    for t, u in labels.items():
        assert _point_act(0, Permutation._raw(u)) == t


def test_schreier_search_calls_on_edge_exactly_on_disagreeing_non_tree_edges():
    edges = []
    labels = groups._schreier_search(S5, _point_act, {0: _IDENT[:5]},
                                     lambda usg, ut: edges.append((usg, ut)), S5)
    # replay the search with Permutation products: the first edge to reach a
    # state is its tree edge
    reached = {0}
    expected = []
    for s, us in labels.items():
        for g in S5:
            t = _point_act(s, g)
            usg = (Permutation._raw(us) * g).images
            if t not in reached:
                reached.add(t)
                assert labels[t] == usg
            elif usg != labels[t]:
                expected.append((usg, labels[t]))
    assert expected and edges == expected


def _replayed_candidates(gens, act, seed):
    """The Schreier generators of orbit_stabilizer's search, replayed with
    Permutation products: labels[s] * g * labels[t]^-1 on every edge that
    does not first reach t, identity ones skipped, in search order."""
    labels = {seed: Permutation.identity(gens[0].degree)}
    reached = [seed]
    candidates = []
    for s in reached:
        for g in gens:
            t = act(s, g)
            if t not in labels:
                labels[t] = labels[s] * g
                reached.append(t)
                continue
            c = labels[s] * g * labels[t].inverse()
            if not c.is_identity():
                candidates.append(c)
    return candidates, len(labels)


def _walked_phase_case():
    # a phase state a short walk away from h6(), under <tau1, tau2 *>, the
    # stabilizer of h6(), so the orbit is small but not a single state
    rng = random.Random(17)
    x = [g.to_perm36() for g in x_generators()]
    seed = tuple(h for row in H6_PHASES for h in row)
    for _ in range(6):
        seed = _phase_act(seed, rng.choice(x))
    return [tau1().to_perm36(), (tau2() * star()).to_perm36()], _phase_act, seed


@pytest.mark.parametrize("case", ["s5_points", "phase_walk"])
def test_orbit_stabilizer_offers_the_replayed_schreier_generators(case):
    if case == "s5_points":
        gens, act, seed = S5, _point_act, 0
    else:
        gens, act, seed = _walked_phase_case()
    offered = []

    def keep(candidate):
        offered.append(candidate)
        return len(offered) % 3 == 1

    result = orbit_stabilizer(gens, act, seed, keep=keep)
    expected, orbit_size = _replayed_candidates(gens, act, seed)
    assert result.orbit_size == orbit_size > 1
    assert expected and offered == expected
    assert result.stabilizer_generators == offered[::3]
    assert all(type(g) is Permutation and g.degree == gens[0].degree
               for g in result.stabilizer_generators)


class _TwoPassBSGS(BSGS):
    """Schreier-Sims as two passes, with Permutation products: rebuild
    transversal i, then add every non-identity Schreier generator of level i."""

    def _schreier_sims(self, i):
        b = self.base[i]
        T = {b: _IDENT[:self.degree]}
        reached = [b]
        gens = list(self._level_gens[i])
        for p in reached:
            for g in gens:
                q = g.images[p]
                if q not in T:
                    T[q] = (Permutation._raw(T[p]) * g).images
                    reached.append(q)
        self._transversals[i] = T
        for p in list(T):
            for g in gens:
                sg = Permutation._raw(T[p]) * g * Permutation._raw(T[g.images[p]]).inverse()
                if not sg.is_identity():
                    self.add(sg, i)


A7 = [Permutation.parse("(1,2,3)", 7), Permutation.parse("(3,4,5,6,7)", 7)]


def _x_perms():
    return [g.to_perm36() for g in x_generators()]


def _assert_valid_chain(chain):
    """Level i's generators fix base[:i], transversal i maps base[i] to each
    of its points, and those points are closed under the level's generators."""
    e = _IDENT[:chain.degree]
    for i, (b, gens, T) in enumerate(zip(chain.base, chain._level_gens, chain._transversals)):
        assert gens and all(g.images[chain.base[j]] == chain.base[j] for g in gens for j in range(i))
        assert T[b] == e
        assert all(u[b] == p for p, u in T.items())
        assert all(g.images[p] in T for g in gens for p in T)


@pytest.mark.parametrize("kind", [BSGS, _TwoPassBSGS], ids=["incremental", "two_pass"])
def test_schreier_sims_decides_membership_in_a7(kind):
    chain = kind(A7)
    _assert_valid_chain(chain)
    assert chain.order() == 2520
    for images in iter_permutations(range(7)):
        g = Permutation(images)
        assert chain.contains(g) == (sum(len(c) - 1 for c in g.cycles()) % 2 == 0)


@pytest.mark.parametrize("kind", [BSGS, _TwoPassBSGS], ids=["incremental", "two_pass"])
def test_schreier_sims_decides_membership_in_x(kind):
    gens = _x_perms()
    chain = kind(gens)
    _assert_valid_chain(chain)
    assert chain.order() == 85_030_560
    # every non-identity element of X moves at least one whole block of three
    # points (a row or column index with its three phases), so no
    # transposition lies in X, nor does a member times a transposition
    rng = random.Random(29)
    for _ in range(25):
        g = Permutation.identity(36)
        for _ in range(rng.randrange(1, 40)):
            g = g * rng.choice(gens)
        assert chain.contains(g)
        p, q = rng.sample(range(36), 2)
        t = Permutation(tuple(q if i == p else p if i == q else i for i in range(36)))
        assert not chain.contains(g * t)


def test_building_x_sifts_each_schreier_generator_once(monkeypatch):
    calls = []
    strip = BSGS._strip

    def counted_strip(self, g, start):
        calls.append(start)
        return strip(self, g, start)

    monkeypatch.setattr(BSGS, "_strip", counted_strip)
    chain = BSGS(_x_perms())
    pairs = sum(len(T) * len(gens) for T, gens in zip(chain._transversals, chain._level_gens))
    # the three generators, plus one sift for each (point, generator) pair
    # that is not a tree edge of its level's search
    assert len(calls) <= pairs == 413


def test_x_chain_extends_the_x0_chain():
    x, x0 = x_bsgs(), x0_bsgs()
    fresh_x, fresh_x0 = BSGS(_x_perms()), BSGS(_x_perms()[:2])
    for chain, fresh in ((x, fresh_x), (x0, fresh_x0)):
        assert chain.base == fresh.base
        assert chain.strong_generators() == fresh.strong_generators()
        assert chain._level_gens == fresh._level_gens
        assert [list(T.items()) for T in chain._transversals] == \
            [list(T.items()) for T in fresh._transversals]
    assert x.order() == 85_030_560 and x0.order() == 42_515_280
    assert x.base is not x0.base
    for mine, theirs in ((x._level_gens, x0._level_gens), (x._transversals, x0._transversals)):
        assert mine is not theirs
        assert all(a is not b for a, b in zip(mine, theirs))


def test_bsgs_on_x_makes_no_permutation_product_or_inverse(monkeypatch):
    counts = {"mul": 0, "inverse": 0}
    mul, inverse = Permutation.__mul__, Permutation.inverse

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    def counted_inverse(a):
        counts["inverse"] += 1
        return inverse(a)

    gens = [g.perm for g in x_generators()]
    member = gens[0] * gens[1] * gens[2]
    monkeypatch.setattr(Permutation, "__mul__", counted_mul)
    monkeypatch.setattr(Permutation, "inverse", counted_inverse)
    chain = BSGS(gens)
    assert chain.order() == 85_030_560
    assert counts == {"mul": 0, "inverse": 0}
    assert chain.contains(member)
    assert counts == {"mul": 0, "inverse": 0}


def test_the_only_queues_are_the_shared_search_and_the_normal_closure_worklist():
    package = Path(groups.__file__).resolve().parent
    owners = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners += [
                    f"{path.name}:{fn.name}" for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "popleft"
                ]
    assert sorted(owners) == ["groups.py:_schreier_search", "groups.py:normal_closure"]


def _reference_sift(chain, g):
    for j, b in enumerate(chain.base):
        p = g.images[b]
        T = chain._transversals[j]
        if p not in T:
            return g
        g = g * Permutation._raw(T[p]).inverse()
    return g


def test_sift_follows_a_rebuilt_transversal():
    c = Permutation.parse("(1,2,3,4,5,6)", 6)
    t = Permutation.parse("(1,5)(2,4)", 6)
    s6 = closure([c, Permutation.parse("(1,2)", 6)])
    chain = bsgs_build([c])
    for g in s6:
        chain._strip(g, 0)  # sift through the cyclic chain before it grows
    # extend level 0 by a reflection: the cyclic chain's transversal already
    # holds all six points, so its entries are kept as they were, and only
    # the pairs (point, t) are tried, which add t's Schreier generators to a
    # new level
    before = list(chain._transversals[0].items())
    chain._level_gens[0].append(t)
    chain._schreier_sims(0)
    assert list(chain._transversals[0].items()) == before
    dihedral = set(closure([c, t]))
    assert chain.order() == len(dihedral) == 12
    for g in s6:
        assert chain.contains(g) == (g in dihedral)
        assert chain._strip(g, 0)[0] == _reference_sift(chain, g)


def test_derived_subgroup_of_s3():
    gens = [Permutation.parse("(1,2,3)", 3), Permutation.parse("(1,2)", 3)]
    d = derived_subgroup(gens)
    assert d.order() == 3
    # normality, sampled
    for g in closure(gens):
        for h in d.strong_generators():
            assert d.contains(conjugate(h, g))


def test_normal_closure_in_s4():
    s4 = [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)]
    for seed, order in (("(1,2)(3,4)", 4), ("(1,2,3)", 12), ("(1,2)", 24)):
        assert normal_closure(s4, [Permutation.parse(seed, 4)]).order() == order


def test_normal_closure_grows_one_chain(monkeypatch):
    calls = []
    monkeypatch.setattr(groups, "bsgs_build", lambda *a: calls.append(a) or bsgs_build(*a))
    s4 = [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)]
    chain = normal_closure(s4, [Permutation.parse("(1,2,3)", 4)])
    assert len(chain.strong_generators()) > 1 and chain.order() == 12
    assert calls == []


def test_bsgs_add_reports_whether_the_chain_grew():
    chain = BSGS([], 4)
    c = Permutation.parse("(1,2,3)", 4)
    assert not chain.add(Permutation.identity(4))
    assert chain.add(c) and chain.order() == 3
    assert not chain.add(c.inverse())
    assert chain.order() == 3
    assert chain.add(Permutation.parse("(1,2)(3,4)", 4))
    assert chain.order() == 12
    a4 = set(closure([c, Permutation.parse("(1,2)(3,4)", 4)]))
    for g in closure([Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)]):
        assert chain.contains(g) == (g in a4)


def test_center_of_dihedral():
    gens = [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,3)", 4)]
    z = center_of(gens)
    assert len(z) == 2
    assert Permutation.parse("(1,3)(2,4)", 4) in z


def test_center_of_s3_is_trivial():
    gens = [Permutation.parse("(1,2,3)", 3), Permutation.parse("(1,2)", 3)]
    assert center_of(gens) == [Permutation.identity(3)]


def test_is_simple_small():
    a5 = [Permutation.parse("(1,2,3,4,5)", 5), Permutation.parse("(1,2,3)", 5)]
    assert len(closure(a5)) == 60
    assert is_simple_small(a5)
    s4 = [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)]
    assert not is_simple_small(s4)
    c3 = [Permutation.parse("(1,2,3)", 3)]
    assert is_simple_small(c3)
    a6 = [Permutation.parse("(1,2,3,4,5)", 6), Permutation.parse("(4,5,6)", 6)]
    a4 = [Permutation.parse("(1,2,3)", 4), Permutation.parse("(2,3,4)", 4)]
    assert [len(closure(a6)), len(closure(a4))] == [360, 12]
    assert is_simple_small(a6)
    assert not is_simple_small(a4)


def test_conjugacy_classes_on_image_bytes_match_the_product_reference():
    s4 = [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)]
    quotient = [g.p.perm for g in compute_aut_linear().generators]
    for gens, sizes in ((s4, [1, 3, 6, 6, 8]), (quotient, [1, 40, 40, 45, 72, 72, 90])):
        classes = groups._conjugacy_classes(gens)
        assert sorted(map(len, classes)) == sizes
        elements = closure(gens)
        assert next(iter(classes[0])) == elements[0].images
        for cls in classes:
            rep = Permutation._raw(next(iter(cls)))
            assert set(map(Permutation._raw, cls)) == {conjugate(rep, g) for g in elements}
            assert all(type(a) is bytes and len(a) == gens[0].degree for a in cls)


def test_commutator_convention():
    a = Permutation.parse("(1,2)", 3)
    b = Permutation.parse("(2,3)", 3)
    assert commutator(a, b) == a.inverse() * b.inverse() * a * b
    assert conjugate(a, b) == b.inverse() * a * b


def test_action_kernel_order():
    # C3 x C3 acting on 6 points, blocks {1,2,3} and {4,5,6}
    g1 = Permutation.parse("(1,2,3)", 6)
    g2 = Permutation.parse("(4,5,6)", 6)
    b = bsgs_build([g1, g2])
    assert b.order() == 9
    # both generators act trivially on the two blocks
    assert action_kernel_order(b, lambda p: 0 if p < 3 else 1) == 9
    # faithful action: singleton blocks
    assert action_kernel_order(b, lambda p: p) == 1


def test_action_kernel_rejects_broken_blocks():
    b = bsgs_build([Permutation.parse("(1,2,3)", 3)])
    with pytest.raises(BlockSystemError):
        action_kernel_order(b, lambda p: 0 if p < 2 else 1)


def test_hom_closure_identity_map():
    gens = [Permutation.parse("(1,2)", 6), Permutation.parse("(2,3,4,5,6)", 6)]
    table = hom_closure([(g, g) for g in gens])
    assert len(table) == 720
    for g in list(table)[:50]:
        assert table[g] == g
    assert set(table) == {g.images for g in closure(gens)}


def test_hom_closure_c2_example():
    src = Permutation.parse("(1,2)", 6)
    dst = Permutation.parse("(1,2)(3,6)(4,5)", 6)
    table = hom_closure([(src, dst)])
    assert len(table) == 2
    assert table[src.images] == dst.images


def test_hom_closure_rejects_non_homomorphism():
    src = Permutation.parse("(1,2)", 3)     # order 2
    dst = Permutation.parse("(1,2,3)", 3)   # order 3
    with pytest.raises(InconsistentImagesError):
        hom_closure([(src, dst)])


def test_hom_closure_rejects_two_images_for_one_generator():
    a = Permutation.parse("(1,2,3)", 3)
    with pytest.raises(InconsistentImagesError):
        hom_closure([(a, a), (a, Permutation.identity(3))])


def test_hom_closure_rejects_images_of_mixed_degree():
    a, b = Permutation.parse("(1,2,3)", 3), Permutation.parse("(1,2)", 3)
    with pytest.raises(ValueError, match="degree mismatch"):
        hom_closure([(a, a), (b, Permutation.parse("(1,2)", 4))])


def test_hom_closure_rejects_non_homomorphism_on_a_large_domain():
    # S7 has 5040 elements; the breadth-first search alone must catch this
    seven_cycle = Permutation.parse("(1,2,3,4,5,6,7)", 7)
    src = Permutation.parse("(1,2)", 7)
    assert len(hom_closure([(seven_cycle, seven_cycle), (src, src)])) == 5040
    with pytest.raises(InconsistentImagesError):
        hom_closure([(seven_cycle, seven_cycle), (src, Permutation.parse("(1,3)", 7))])


def test_closure_cap(monkeypatch):
    gens = [Permutation.parse("(1,2)", 6), Permutation.parse("(2,3,4,5,6)", 6)]
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 720)
    assert len(closure(gens)) == 720
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 100)
    with pytest.raises(ClosureCapError):
        closure(gens)


def test_hom_closure_cap(monkeypatch):
    gens = [Permutation.parse("(1,2)", 6), Permutation.parse("(2,3,4,5,6)", 6)]
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 720)
    assert len(hom_closure([(g, g) for g in gens])) == 720
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 100)
    with pytest.raises(ClosureCapError):
        hom_closure([(g, g) for g in gens])


def _product_closure(gens):
    # closure as it was written on Permutation products
    e = gens[0] * gens[0].inverse()
    return list(groups._schreier_search(gens, mul, {e: None}))


def _product_hom_closure(pairs):
    # hom_closure as it was written on Permutation products in the domain
    gens, images = zip(*pairs)
    e_dom = gens[0] * gens[0].inverse()

    def on_edge(hi, prev):
        raise InconsistentImagesError("generator images are not a homomorphism")

    table = groups._schreier_search(gens, mul, {e_dom: _IDENT[:images[0].degree]}, on_edge, images)
    return {g.images: img for g, img in table.items()}


def _enumeration_cases():
    sigma = [(g.p.perm, g.q.perm) for g in (tau1(), tau2prime())]
    totals = outer.totals_outer()
    quotient = [g.p.perm for g in compute_aut_linear().generators]
    stabilizer = [tau1().to_perm36(), (tau2() * star()).to_perm36()]
    return {
        "sigma": (sigma, 720),
        "totals": ([(s, totals.apply(s)) for s in totals.generators], 720),
        "quotient": ([(g, g) for g in quotient], 360),
        "stabilizer": ([(g, g) for g in stabilizer], 2160),
    }


@pytest.mark.parametrize("name", ["sigma", "totals", "quotient", "stabilizer"])
def test_image_byte_enumeration_matches_the_product_reference(name):
    pairs, order = _enumeration_cases()[name]
    gens = [g for g, _ in pairs]
    elements = closure(gens)
    assert len(elements) == order
    assert elements == _product_closure(gens)
    table = hom_closure(pairs)
    assert list(table.items()) == list(_product_hom_closure(pairs).items())
    assert all(type(g) is bytes and type(v) is bytes for g, v in table.items())


def test_closure_and_hom_closure_make_no_product_per_edge(monkeypatch):
    counts = {"mul": 0, "inverse": 0}
    product, inverse = Permutation.__mul__, Permutation.inverse

    def counted_mul(a, b):
        counts["mul"] += 1
        return product(a, b)

    def counted_inverse(a):
        counts["inverse"] += 1
        return inverse(a)

    gens = [Permutation.parse("(1,2)", 6), Permutation.parse("(2,3,4,5,6)", 6)]
    monkeypatch.setattr(Permutation, "__mul__", counted_mul)
    monkeypatch.setattr(Permutation, "inverse", counted_inverse)
    assert len(closure(gens)) == len(hom_closure([(g, g) for g in gens])) == 720
    assert counts == {"mul": 0, "inverse": 0}


def test_hom_closure_creates_no_permutation(monkeypatch):
    # every Permutation is made by __init__ or by perms._new; the table stays
    # in image bytes, generators' and images' alike
    pairs = [(g, g) for g in (Permutation.parse("(1,2)", 6), Permutation.parse("(2,3,4,5,6)", 6))]
    made = []
    new, init = perms._new, Permutation.__init__
    monkeypatch.setattr(perms, "_new", lambda cls: made.append(cls) or new(cls))
    monkeypatch.setattr(Permutation, "__init__", lambda self, images: made.append(images) or init(self, images))
    assert Permutation.identity(3) is not None and len(made) == 1
    made.clear()
    assert len(hom_closure(pairs)) == 720
    assert made == []


def test_hom_closure_rejects_a_domain_of_mixed_degree():
    a, b = Permutation.parse("(1,2,3)", 3), Permutation.parse("(1,2)", 4)
    with pytest.raises(ValueError, match="degree mismatch"):
        hom_closure([(a, a), (b, a)])
    with pytest.raises(ValueError, match="degree mismatch"):
        closure([a, b])


def test_bsgs_strong_generators_all_members():
    gens = [Permutation.parse("(2,3,4,5,6)", 6), Permutation.parse("(1,2)", 6)]
    b = bsgs_build(gens)
    full = set(closure(gens))
    for g in b.strong_generators():
        assert g in full


def test_bsgs_transversal_product_is_order():
    for images in [(1, 0, 2, 3), (1, 2, 3, 0)]:
        g = Permutation(images)
        b = bsgs_build([g])
        prod = 1
        for T in b._transversals:
            prod *= len(T)
        assert prod == b.order()


def test_closure_deterministic_order():
    gens = [Permutation.parse("(1,2,3)", 3), Permutation.parse("(1,2)", 3)]
    assert closure(gens) == closure(gens)
    assert closure(gens)[0].is_identity()
    assert len(closure(gens)) == len(list(iter_permutations(range(3))))


def test_bsgs_is_deterministic():
    gens = [Permutation.parse("(2,3,4,5,6)", 6), Permutation.parse("(1,2)", 6)]
    a, b = bsgs_build(gens), bsgs_build(gens)
    assert a.base == b.base
    assert list(map(len, a._transversals)) == list(map(len, b._transversals))
    assert a.strong_generators() == b.strong_generators()
