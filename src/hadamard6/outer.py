"""An explicit outer automorphism of the symmetric group on six points, built
from the two projections of the stabilizer of H, plus the classical
synthemes-and-totals construction as an independent oracle.

Both automorphisms are 720-entry tables completed by hom_closure from two
generator images: sigma sends the first projection of each element of the
stabilizer <tau1, tau2 *> to its second, so its images are read off tau1 and
tau2 *; the totals action is read off the action of (1,2) and (2,3,4,5,6) on
the six totals.  That closure is the only enumeration of S6 here, and a table keeps
the closure's image bytes, element to image: only apply and to_json wrap an
entry as a Permutation, one at a time.  Bijectivity is checked over every
entry; multiplicativity is proved by generator induction: the table must
equal the closure of its own generator images.  Inner-ness is decided by
construction: the only possible conjugator h is read off the images of the
five star transpositions (1,k), then checked on every entry.
"""

from __future__ import annotations

from functools import cache

from .elements import tau1, tau2star
from .groups import InconsistentImagesError, hom_closure
from .perms import _IDENT, Permutation
from .report import Report, check


class AutoTable:
    """A map from the full symmetric group to itself, stored elementwise as
    {image bytes of g: image bytes of its image}; generators are Permutations."""

    __slots__ = ("table", "generators")

    def __init__(self, table: dict, generators: tuple):
        self.table = table
        self.generators = generators

    def apply(self, g: Permutation) -> Permutation:
        return Permutation._raw(self.table[g.images])

    def is_bijective(self) -> bool:
        return len(set(self.table.values())) == len(self.table) == 720

    def is_multiplicative(self) -> bool:
        """True iff the generators generate the table's domain and the table
        is a homomorphism on it.

        Equality with the closure of the generator images proves that the
        generators reach exactly the table's domain and that
        T(g*s) = T(g)*T(s) for every element g and generator s; induction on
        word length gives T(g*h) = T(g)*T(h) for all g, h.
        """
        try:
            return hom_closure([(s, self.apply(s)) for s in self.generators]) == self.table
        except InconsistentImagesError:
            return False

    def then(self, other: "AutoTable") -> "AutoTable":
        return AutoTable({g: other.table[v] for g, v in self.table.items()}, self.generators)

    def to_json(self) -> dict:
        named = ((str(Permutation._raw(g)), str(Permutation._raw(v))) for g, v in self.table.items())
        pairs = sorted(named, key=lambda p: (len(p[0]), p[0]))
        return {
            "generator_images": {str(g): str(self.apply(g)) for g in self.generators},
            "table": [list(p) for p in pairs],
            "note": "generator images define the map; all other entries are closure-derived",
        }


def _closure_table(pairs) -> AutoTable:
    """The map with the given generator images, completed by hom_closure,
    which rejects images that do not define a homomorphism."""
    table = AutoTable(hom_closure(pairs), tuple(g for g, _ in pairs))
    if not table.is_bijective():
        raise AssertionError("closure produced a non-bijective table")
    return table


@cache
def build_outer() -> AutoTable:
    """sigma: the first projection of each element of the stabilizer of H
    to its second, from the projections of its generators tau1 and tau2 *
    and completed by closure, which rejects images that define no map."""
    return _closure_table([(g.p.perm, g.q.perm) for g in (tau1(), tau2star())])


_STARS = tuple(Permutation.parse(f"(1,{k})", 6).images for k in range(2, 7))


def _conjugator(star_images, pairs) -> Permutation | None:
    """h with h a = b h for every pair (a, b) of image bytes, if any.  Such an
    h sends each (1,k) to (1^h, k^h), so it is read off the given images of
    the five (1,k), not searched for: 1^h is their one common point and k^h
    the other point of the image of (1,k).  None unless those images are
    such transpositions and h passes every pair."""
    moved = [[i for i, x in enumerate(v) if i != x] for v in star_images]
    common = set(range(6)).intersection(*moved)
    if any(len(m) != 2 for m in moved) or len(common) != 1:
        return None
    p = common.pop()
    h = bytes([p] + [x + y - p for x, y in moved])
    ht = h + _IDENT[6:]
    if all(h.translate(a + _IDENT[6:]) == b.translate(ht) for a, b in pairs):
        return Permutation(h)
    return None


def is_inner(t: AutoTable) -> Permutation | None:
    """The conjugating element if the table is conjugation by one, else None;
    t's domain must be all of S6 (ValueError otherwise).  This is
    compare_up_to_inner against the identity, whose inverse and star
    preimages are known, so h is read off t's own images of the (1,k) and
    accepted only if h t(g) = g h on every entry."""
    if len(t.table) != 720 or any(len(g) != 6 for g in t.table):
        raise ValueError("t's domain is not all of S6")
    return _conjugator([t.table[s] for s in _STARS], zip(t.table.values(), t.table))


def compare_up_to_inner(t1: AutoTable, t2: AutoTable) -> Permutation | None:
    """h with t1(g) = h^-1 t2(g) h for all g, if any; t2 must be a bijection
    of S6 (ValueError otherwise).  Such an h makes t1 o t2^-1 conjugation by
    h, so it is read off t1's images of the t2-preimages of the (1,k) and
    accepted only if h t1(g) = t2(g) h on every entry, checked on image
    bytes."""
    inv = {v: g for g, v in t2.table.items()}
    if not t2.is_bijective() or any(len(v) != 6 for v in inv):
        raise ValueError("t2 is not a bijection of S6")
    return _conjugator([t1.table[inv[s]] for s in _STARS],
                       zip(t1.table.values(), map(t2.table.__getitem__, t1.table)))


@cache
def all_synthemes() -> tuple:
    """The 15 perfect matchings of the six points, canonically ordered."""

    def matchings(points: tuple) -> list:
        if not points:
            return [()]
        a, rest = points[0], points[1:]
        return [((a, b),) + m for b in rest for m in matchings(tuple(p for p in rest if p != b))]

    return tuple(sorted(matchings(tuple(range(6)))))


@cache
def sylvester_totals() -> tuple[tuple, ...]:
    """All partitions of the 15 duads into 5 disjoint synthemes, each a sorted
    tuple of synthemes; there are 6.  Only synthemes disjoint from those
    already chosen are added, so any 5 cover the 15 duads exactly once."""
    synthemes = all_synthemes()
    totals: list[tuple] = []

    def extend(start: int, chosen: tuple, used: frozenset):
        if len(chosen) == 5:
            totals.append(chosen)
            return
        for i in range(start, len(synthemes)):
            s = synthemes[i]
            if used.isdisjoint(s):
                extend(i + 1, chosen + (s,), used | frozenset(s))

    extend(0, (), frozenset())
    return tuple(sorted(totals))


def _transform_total(total: tuple, g: Permutation) -> tuple:
    img = g.images
    return tuple(sorted(tuple(sorted(tuple(sorted((img[a], img[b]))) for a, b in s)) for s in total))


@cache
def totals_outer() -> AutoTable:
    """The action of the symmetric group on the six totals, as a table
    derived from the images of (1,2) and (2,3,4,5,6).  g -> (its action on
    the totals) is a right action, hence a homomorphism, so the closure of
    the two images is the action on every element."""
    totals = sylvester_totals()
    index = {t: i for i, t in enumerate(totals)}
    gens = (Permutation.parse("(1,2)", 6), Permutation.parse("(2,3,4,5,6)", 6))
    return _closure_table([
        (g, Permutation(tuple(index[_transform_total(t, g)] for t in totals)))
        for g in gens
    ])


def verify_outer():
    sigma = build_outer()
    clauses = [
        check("synthemes", "there are 15 synthemes", 15, len(all_synthemes())),
        check("totals", "the synthemes form totals in exactly 6 ways", 6, len(sylvester_totals())),
        check("sigma_transposition", "sigma maps (1,2) to a triple transposition",
              "(1,2)(3,6)(4,5)", str(sigma.apply(Permutation.parse("(1,2)", 6)))),
        check("sigma_six_cycle", "sigma maps the 6-cycle to the stated element",
              "(1,2,6)(3,5)", str(sigma.apply(Permutation.parse("(1,2,3,4,5,6)", 6)))),
        check("table_bijective", "sigma is a bijection on all 720 elements", True, sigma.is_bijective()),
        check("table_multiplicative", "sigma is multiplicative on all 720 x 720 products",
              True, sigma.is_multiplicative()),
        check("sigma_outer", "no conjugation realises sigma", None, is_inner(sigma)),
        check("sigma_squared_inner", "sigma composed with itself is inner",
              True, is_inner(sigma.then(sigma)) is not None),
        check("transpositions_to_2_2_2", "the totals action sends every transposition to shape 2+2+2",
              True, all(
                  totals_outer().apply(Permutation.parse(f"({i},{j})", 6)).cycle_type() == (2, 2, 2)
                  for i in range(1, 7) for j in range(i + 1, 7)
              )),
        check("totals_outer_outer", "the totals action is also outer", None, is_inner(totals_outer())),
        check("conjugator_exists", "sigma and the totals action differ by an inner map",
              True, compare_up_to_inner(sigma, totals_outer()) is not None),
    ]
    return Report("outer", clauses)
