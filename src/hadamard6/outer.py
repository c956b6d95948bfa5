"""An explicit outer automorphism of the symmetric group on six points, built
from the two projections of the permutation-pair subgroup, plus the classical
synthemes-and-totals construction as an independent oracle.

Both automorphisms are materialised as full 720-entry tables derived from
two generator images by hom_closure: sigma from its stated images, the totals
action from the action of (1,2) and (2,3,4,5,6) on the six totals.
Bijectivity and inner-ness are checked over every entry; multiplicativity is
proved by generator induction: the table must equal the closure of its own
generator images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .groups import InconsistentImagesError, hom_closure
from .perms import Permutation


@cache
def all_s6() -> tuple[Permutation, ...]:
    return tuple(Permutation(img) for img in permutations(range(6)))


@dataclass(eq=False)
class AutoTable:
    """A map from the full symmetric group to itself, stored elementwise."""

    table: dict
    generators: tuple

    def apply(self, g: Permutation) -> Permutation:
        return self.table[g]

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
            return hom_closure([(s, self.table[s]) for s in self.generators]) == self.table
        except InconsistentImagesError:
            return False

    def then(self, other: "AutoTable") -> "AutoTable":
        return AutoTable({g: other.table[v] for g, v in self.table.items()}, self.generators)

    def to_json(self) -> dict:
        pairs = sorted(((str(g), str(v)) for g, v in self.table.items()),
                       key=lambda p: (len(p[0]), p[0]))
        return {
            "generator_images": {str(g): str(self.table[g]) for g in self.generators},
            "table": [list(p) for p in pairs],
            "note": "generator images define the map; all other entries are closure-derived",
        }


_SIGMA_GENERATOR_IMAGES = (
    ("(2,3,4,5,6)", "(2,3,4,5,6)"),
    ("(1,2)", "(1,2)(3,6)(4,5)"),
)


def _closure_table(pairs) -> AutoTable:
    """The map with the given generator images, completed by hom_closure,
    which rejects images that do not define a homomorphism."""
    table = AutoTable(hom_closure(pairs), tuple(g for g, _ in pairs))
    if not table.is_bijective():
        raise AssertionError("closure produced a non-bijective table")
    return table


@cache
def build_outer() -> AutoTable:
    """sigma, determined by its generator images and completed by closure."""
    return _closure_table([
        (Permutation.parse(src, 6), Permutation.parse(dst, 6))
        for src, dst in _SIGMA_GENERATOR_IMAGES
    ])


@cache
def _identity_table() -> AutoTable:
    return AutoTable({g: g for g in all_s6()}, ())


def is_inner(t: AutoTable) -> Permutation | None:
    """The conjugating element if the table is conjugation by one, else None."""
    return compare_up_to_inner(t, _identity_table())


def compare_up_to_inner(t1: AutoTable, t2: AutoTable) -> Permutation | None:
    """h with t1(g) = h^-1 t2(g) h for all g, if any."""
    for h in all_s6():
        hi = h.inverse()
        if all(t1.apply(s) == hi * t2.apply(s) * h for s in t1.generators):
            if all(t1.apply(g) == hi * t2.apply(g) * h for g in t1.table):
                return h
    return None


@dataclass(frozen=True)
class SynthematicTotal:
    """Five synthemes (perfect matchings on six points, 0-based duads)
    covering each of the 15 duads exactly once."""

    synthemes: tuple

    def __post_init__(self):
        if len(self.synthemes) != 5:
            raise ValueError("a total consists of exactly 5 synthemes")
        covered: list = []
        for s in self.synthemes:
            if len(s) != 3:
                raise ValueError("a syntheme consists of 3 duads")
            pts = [p for d in s for p in d]
            if sorted(pts) != list(range(6)):
                raise ValueError("syntheme duads are not disjoint")
            covered.extend(s)
        if len(set(covered)) != 15:
            raise ValueError("synthemes do not cover the 15 duads exactly once")


@cache
def all_synthemes() -> tuple:
    """The 15 perfect matchings of the six points, canonically ordered."""

    def matchings(points: tuple) -> list:
        if not points:
            return [()]
        a, rest = points[0], points[1:]
        out = []
        for b in rest:
            remaining = tuple(p for p in rest if p != b)
            for m in matchings(remaining):
                out.append(((a, b),) + m)
        return out

    return tuple(sorted(matchings(tuple(range(6)))))


@cache
def sylvester_totals() -> tuple[SynthematicTotal, ...]:
    """All partitions of the 15 duads into 5 disjoint synthemes; there are 6."""
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
    return tuple(SynthematicTotal(t) for t in sorted(totals))


def _transform_total(total: SynthematicTotal, g: Permutation) -> tuple:
    img = g.images
    out = []
    for s in total.synthemes:
        duads = tuple(sorted(tuple(sorted((img[a], img[b]))) for a, b in s))
        out.append(duads)
    return tuple(sorted(out))


@cache
def totals_outer() -> AutoTable:
    """The action of the symmetric group on the six totals, as a table
    derived from the images of (1,2) and (2,3,4,5,6).  g -> (its action on
    the totals) is a right action, hence a homomorphism, so the closure of
    the two images is the action on every element."""
    totals = sylvester_totals()
    index = {t.synthemes: i for i, t in enumerate(totals)}
    gens = (Permutation.parse("(1,2)", 6), Permutation.parse("(2,3,4,5,6)", 6))
    return _closure_table([
        (g, Permutation(tuple(index[_transform_total(t, g)] for t in totals)))
        for g in gens
    ])


def verify_outer():
    from .report import Report, check

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
                  totals_outer().apply(g).cycle_type() == (2, 2, 2)
                  for g in all_s6() if g.cycle_type() == (2, 1, 1, 1, 1)
              )),
        check("totals_outer_outer", "the totals action is also outer", None, is_inner(totals_outer())),
        check("conjugator_exists", "sigma and the totals action differ by an inner map",
              True, compare_up_to_inner(sigma, totals_outer()) is not None),
    ]
    return Report("outer", clauses)
