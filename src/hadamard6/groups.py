"""Permutation-group machinery: deterministic Schreier-Sims (base and strong
generating set), orbit-stabilizer with Schreier generators over arbitrary
hashable states, normal closures and derived subgroups, centers, simplicity
for small groups, kernels of block actions, and generator-image closure for
building homomorphisms.

Every orbit search is one breadth-first search, _schreier_search, over a
Schreier graph: closure, hom_closure, orbit_stabilizer, the Schreier-Sims
transversals and the conjugacy classes of is_simple_small each call it once.

Everything is deterministic: base points are taken greedily as the smallest
point moved by a generator that fixes the base so far, the search is FIFO
breadth-first with generators in the order given, and no randomisation is used
anywhere.

Generic helpers (closure, commutator, hom_closure) work for any immutable
group elements supporting ``*``, ``.inverse()`` and hashing; orbit_stabilizer
takes Permutation generators and keeps its transversal as image bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import mul

from .perms import _IDENT, Permutation


class BlockSystemError(ValueError):
    """The generators do not preserve the fibers of the quotient map."""


class ActionConsistencyError(ValueError):
    """act(act(s, g), h) != act(s, g*h) on a generator pair."""


class InconsistentImagesError(ValueError):
    """Generator images do not extend to a homomorphism."""


class ClosureCapError(ValueError):
    """Enumeration exceeded its element cap."""


# Largest orbit _schreier_search will enumerate, and so the cap of closure,
# hom_closure and (since it shares the search; it had no cap before)
# orbit_stabilizer.  is_simple_small (on prop2's order-360 quotient), the
# orbit search in autgroup.compute_aut_star and the closures it runs, and
# both S6 tables in outer go through them.
_ENUMERATION_CAP = 10**6
_UNSEEN = object()


def _schreier_search(gens, act, labels: dict, on_edge=None, label_gens=None,
                     compose=mul) -> dict:
    """Breadth-first search of the orbit of the states in labels (a dict
    state -> label, filled in place and returned) under act, with generators
    in the order given.

    A state first reached from s by gens[k] gets the label
    compose(labels[s], label_gens[k]), by default labels[s] * label_gens[k];
    without label_gens it gets labels[s].  On any other edge s -> t whose two
    labels disagree, on_edge(compose(labels[s], label_gens[k]), labels[t]) is
    called.  Raises ClosureCapError when the orbit exceeds _ENUMERATION_CAP.
    """
    steps = list(zip(gens, label_gens or gens))
    queue = deque(labels)
    while queue:
        s = queue.popleft()
        ls = labels[s]
        for g, lg in steps:
            t = act(s, g)
            lt = labels.get(t, _UNSEEN)
            lsg = ls if label_gens is None else compose(ls, lg)
            if lt is _UNSEEN:
                if len(labels) >= _ENUMERATION_CAP:
                    raise ClosureCapError(f"orbit exceeded cap {_ENUMERATION_CAP}")
                labels[t] = lsg
                queue.append(t)
            elif on_edge is not None and lsg != lt:
                on_edge(lsg, lt)
    return labels


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


def conjugate(a, b):
    """a^b = b^-1 a b."""
    return b.inverse() * a * b


def closure(gens) -> list:
    """All elements of <gens> in the order _schreier_search reaches them from
    the identity under right multiplication, identity first.

    Deterministic given generator order.  Raises ClosureCapError past
    _ENUMERATION_CAP.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    e = gens[0] * gens[0].inverse()
    return list(_schreier_search(gens, mul, {e: None}))


def _point_act(p: int, g: Permutation) -> int:
    return g.images[p]


class BSGS:
    """Base and strong generating set built by deterministic Schreier-Sims.

    Strong generators are kept per level: level i generates the pointwise
    stabilizer of base[:i], and the product of the fundamental orbit sizes is
    the group order.  Schreier generators that sift to the identity are
    discarded; the others extend the chain (classical deterministic variant,
    no randomisation).
    """

    def __init__(self, generators, degree: int | None = None):
        gens = []
        for g in generators:
            if degree is None:
                degree = g.degree
            elif g.degree != degree:
                raise ValueError("degree mismatch among generators")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        if degree is None:
            raise ValueError("need at least one generator or an explicit degree")
        self.degree = degree

        self.base: list[int] = []
        for g in gens:
            if all(g.apply(p) == p for p in self.base):
                self.base.append(g.min_moved())

        self._level_gens: list[list[Permutation]] = [
            [g for g in gens if all(g.apply(p) == p for p in self.base[:i])]
            for i in range(len(self.base))
        ]
        self._transversals: list[dict[int, Permutation] | None] = [None] * len(self.base)
        if not self.base:
            return
        for i in reversed(range(len(self.base))):
            self._schreier_sims(i)

    def _strip(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        for j in range(start, len(self.base)):
            p = g.apply(self.base[j])
            T = self._transversals[j]
            if p not in T:
                return g, j
            g = g * T[p].inverse()
        return g, len(self.base)

    def _schreier_sims(self, i: int) -> None:
        # Precondition: levels > i are complete.  Postcondition: levels >= i are.
        # One search builds transversal i and adds each non-identity Schreier
        # generator u_p * g * u_{p^g}^-1 as its edge is found; add touches
        # only levels > i.
        T = self._transversals[i] = {self.base[i]: Permutation.identity(self.degree)}
        gens = list(self._level_gens[i])

        def on_edge(upg, uq):
            self.add(upg * uq.inverse(), i)

        _schreier_search(gens, _point_act, T, on_edge, gens)

    def add(self, g: Permutation, i: int = -1) -> bool:
        """Extend the chain by g, which must fix base[:i+1]; False if g is
        already a member.  Precondition: levels > i are complete, and they
        are again on return."""
        h, j = self._strip(g, i + 1)
        if h.is_identity():
            return False
        if j == len(self.base):
            self.base.append(h.min_moved())
            self._level_gens.append([])
            self._transversals.append(None)
        for k in range(i + 1, j + 1):
            self._level_gens[k].append(h)
        for k in range(j, i, -1):
            self._schreier_sims(k)
        return True

    def order(self) -> int:
        n = 1
        for T in self._transversals:
            n *= len(T)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        residue, _ = self._strip(g, 0)
        return residue.is_identity()

    __contains__ = contains

    def strong_generators(self) -> list[Permutation]:
        seen = []
        for lvl in self._level_gens:
            for g in lvl:
                if g not in seen:
                    seen.append(g)
        return seen

    def transversal_sizes(self) -> tuple[int, ...]:
        return tuple(len(T) for T in self._transversals)


def bsgs_build(gens, degree: int | None = None) -> BSGS:
    return BSGS(gens, degree)


@dataclass
class OrbitStabilizer:
    orbit_size: int
    stabilizer_generators: list = field(default_factory=list)


def orbit_stabilizer(gens, act, seed, keep=None) -> OrbitStabilizer:
    """Orbit of seed under the permutation group <gens> acting on hashable
    states, with Schreier generators u_s * g * u_{s.g}^-1 for the stabilizer,
    found by _schreier_search with the transversal u as labels.  A label is
    the image bytes of u, so extending it by g is one bytes.translate and a
    candidate is one maketrans and one translate; only a candidate offered
    to keep becomes a Permutation.

    Identity candidates (u_s * g == u_{s.g}) are skipped before keep sees
    them.  keep(candidate) decides which Schreier generators to retain; the
    default drops duplicates.  Any generator it rejects must already lie in
    the group generated by the retained ones (the default and the exact
    membership tests used by callers guarantee this), so the kept set
    generates the full stabilizer.  The action is spot-checked for
    consistency on generator pairs before the search starts.  Like every
    user of the shared search, it raises ClosureCapError when the orbit
    exceeds _ENUMERATION_CAP.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        sg = act(seed, g)
        for h in gens:
            if act(sg, h) != act(seed, g * h):
                raise ActionConsistencyError("action is not a right action on generators")

    if keep is None:
        seen = set()

        def keep(candidate):
            if candidate in seen:
                return False
            seen.add(candidate)
            return True

    n = gens[0].degree
    e = _IDENT[:n]
    tables = [g.images + _IDENT[n:] for g in gens]
    kept = []

    def on_edge(usg, ut):
        candidate = Permutation._raw(usg.translate(e.maketrans(ut, e)))
        if keep(candidate):
            kept.append(candidate)

    reps = _schreier_search(gens, act, {seed: e}, on_edge, tables, bytes.translate)
    return OrbitStabilizer(orbit_size=len(reps), stabilizer_generators=kept)


def normal_closure(gens, xs) -> BSGS:
    """Chain of the normal closure of xs in <gens>: each element taken from
    the queue (seeded with xs) that is not yet in the subgroup found so far
    extends its chain, and its conjugates by the generators join the queue."""
    gens = list(gens)
    queue = deque(xs)
    chain = BSGS([], gens[0].degree)
    while queue:
        c = queue.popleft()
        if chain.add(c):
            queue.extend(conjugate(c, g) for g in gens)
    return chain


def derived_subgroup(gens) -> BSGS:
    """Chain of the derived subgroup: the normal closure of the commutators
    of pairs of generators."""
    gens = list(gens)
    return normal_closure(gens, (
        commutator(gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ))


def center_of(gens) -> list[Permutation]:
    """All central elements; requires full enumeration (order <= _ENUMERATION_CAP)."""
    gens = list(gens)
    elements = closure(gens)
    return [g for g in elements if all(g * s == s * g for s in gens)]


def is_simple_small(gens) -> bool:
    """Simplicity test for a permutation group small enough to enumerate
    (order <= _ENUMERATION_CAP): the normal closure of every nontrivial
    conjugacy class representative must have the order of the whole group."""
    gens = list(gens)
    elements = closure(gens)
    n = len(elements)
    if n == 1:
        return False
    seen = set()
    for el in elements:
        if el in seen or el.is_identity():
            seen.add(el)
            continue
        # conjugacy class of el: its orbit under conjugation by the generators
        seen.update(_schreier_search(gens, conjugate, {el: None}))
        if normal_closure(gens, [el]).order() != n:
            return False
    return True


def action_kernel_order(bsgs: BSGS, block_map) -> int:
    """Order of the kernel of the induced action on the blocks of block_map.

    block_map sends each point to a block label; the label of p^g must depend
    only on the label of p, checked on all strong generators.
    """
    degree = bsgs.degree
    labels = sorted({block_map(p) for p in range(degree)})
    index = {lab: i for i, lab in enumerate(labels)}
    gens = bsgs.strong_generators()
    induced = []
    for g in gens:
        images: dict[int, int] = {}
        for p in range(degree):
            src = index[block_map(p)]
            dst = index[block_map(g.apply(p))]
            if images.setdefault(src, dst) != dst:
                raise BlockSystemError("block system is not preserved")
        induced.append(Permutation(tuple(images[i] for i in range(len(labels)))))
    image_order = bsgs_build(induced).order() if induced else 1
    total = bsgs.order()
    if total % image_order:
        raise BlockSystemError("image order does not divide group order")
    return total // image_order


def hom_closure(pairs) -> dict:
    """Extend generator pairs (g, image) to the full domain group by
    _schreier_search over the Cayley graph, with images as labels; returns
    the table {g: image of g}.

    Raises InconsistentImagesError when two words for the same element get
    different images (the data is not a homomorphism), and ClosureCapError
    when the domain exceeds _ENUMERATION_CAP.  Every element is taken from
    the queue and tried against every generator, so a finished table satisfies
    table[g * s] == table[g] * image(s) for every element g and generator s;
    by induction on word length the table is multiplicative.  Its one caller
    is outer, which closes both S6 automorphism tables from generator images;
    brep proves its representation multiplicative on encodings instead.
    """
    pairs = [(g, im) for g, im in pairs]
    if not pairs:
        raise ValueError("need at least one generator pair")
    gens, images = zip(*pairs)
    e_dom = gens[0] * gens[0].inverse()
    e_img = images[0] * images[0].inverse()

    def on_edge(hi, prev):
        raise InconsistentImagesError("generator images are not a homomorphism")

    return _schreier_search(gens, mul, {e_dom: e_img}, on_edge, images)
