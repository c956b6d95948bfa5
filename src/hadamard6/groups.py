"""Permutation-group machinery: incremental Schreier-Sims (base and strong
generating set), orbit-stabilizer with Schreier generators over arbitrary
hashable states, normal closures and derived subgroups, centers, simplicity
for small groups, kernels of block actions, and generator-image closure for
building homomorphisms.

Every orbit search is one breadth-first search, _schreier_search, over a
Schreier graph: closure, hom_closure, orbit_stabilizer, the Schreier-Sims
transversals and the conjugacy classes of is_simple_small each call it once.

Everything is deterministic: a chain grows one generator at a time through
BSGS.add, each new base point is the smallest point moved by the sifted
residue that extends the chain, the search is FIFO breadth-first with
generators in the order given, and no randomisation is used anywhere.

Only commutator (with conjugate) takes any immutable group elements
supporting ``*``, ``.inverse()`` and hashing.  Elsewhere the elements are
Permutations, a search labels its states with image bytes (closure and
hom_closure their domain too, and hom_closure's table stays in them), and
a * b^-1 on image bytes is computed in one place, _div.
"""

from __future__ import annotations

from collections import deque, namedtuple

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
# hom_closure and orbit_stabilizer.  is_simple_small (on prop2's order-360
# quotient), both S6 tables in outer and the 2-state orbits of autgroup go
# through them.
_ENUMERATION_CAP = 10**6
_UNSEEN = object()


def _schreier_search(gens, act, labels: dict, on_edge=None, label_gens=None, known=0) -> dict:
    """Breadth-first search of the orbit of the states in labels (a dict
    state -> label, filled in place and returned) under act, with generators
    in the order given.  The states already in labels skip gens[:known].

    With label_gens, Permutations of the labels' degree, a label is image
    bytes: a state first reached from s by gens[k] gets the image bytes of
    labels[s] * label_gens[k], one translate through label_gens[k]'s 256-byte
    table; without label_gens it gets labels[s].  On any other edge s -> t
    whose two labels disagree, on_edge(that product, labels[t]) is called.
    Raises ClosureCapError when the orbit exceeds _ENUMERATION_CAP.
    """
    tables = [h.images + _IDENT[len(h.images):] for h in label_gens or ()]
    steps = list(zip(gens, tables or gens))
    new_steps, old = steps[known:], len(labels)
    queue = deque(labels)
    while queue:
        s = queue.popleft()
        ls = labels[s]
        old -= 1
        for g, tg in new_steps if old >= 0 else steps:
            t = act(s, g)
            lt = labels.get(t, _UNSEEN)
            lsg = ls if label_gens is None else ls.translate(tg)
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
    """All elements of <gens>, Permutations of one degree, in the order
    _image_search reaches them from the identity under right multiplication,
    identity first.  It labels the domain with image bytes.

    Deterministic given generator order.  Raises ClosureCapError past
    _ENUMERATION_CAP.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    return [Permutation._raw(s) for s in _image_search(gens, None)]


def _image_search(gens, label, on_edge=None, label_gens=None) -> dict:
    """_schreier_search from the identity, labelled label, under right
    multiplication by the Permutations gens (ValueError unless of one
    degree), on image bytes: a product is one translate through a table."""
    d = gens[0].degree
    if any(g.degree != d for g in gens):
        raise ValueError("degree mismatch among generators")
    tables = [g.images + _IDENT[d:] for g in gens]
    return _schreier_search(tables, bytes.translate, {_IDENT[:d]: label}, on_edge, label_gens)


def _point_act(p: int, g: Permutation) -> int:
    return g.images[p]


def _div(a: bytes, b: bytes) -> bytes:
    """a * b^-1 on image bytes of one degree, through b^-1's 256-byte table."""
    e = _IDENT[:len(b)]
    return a.translate(e.maketrans(b, e))


def _schreier_transversal(gens, act, labels, keep, known=0) -> tuple[dict, list]:
    """Transversal {s: image bytes of u_s} grown from labels under the
    Permutations gens, by _schreier_search, and the Schreier generators kept:
    each non-identity u_s * g * u_{s.g}^-1 goes to keep as a Permutation, in
    search order, and is kept when keep returns True."""
    kept = []

    def on_edge(usg, ut):
        candidate = Permutation._raw(_div(usg, ut))
        if keep(candidate):
            kept.append(candidate)

    return _schreier_search(gens, act, labels, on_edge, gens, known), kept


class BSGS:
    """Base and strong generating set built by incremental Schreier-Sims.

    The chain starts empty and grows by add, one generator at a time.  Level
    i's strong generators generate the pointwise stabilizer of base[:i], and
    transversal i maps each point of the orbit of base[i] to the image bytes
    of its transversal element; the product of the orbit sizes is the group
    order.  A level is extended, never rebuilt: when a generator joins it,
    old points meet only that generator and new points meet all, so each
    (point, generator) pair is sifted once (Holt, Eick and O'Brien 2005,
    sec. 4.4).  That is sound since old transversal entries, so their
    Schreier generators, never change, and deeper levels only grow: one that
    sifted to the identity stays a member.  The others extend the chain.
    """

    def __init__(self, generators, degree: int | None = None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("need at least one generator or an explicit degree")
            degree = generators[0].degree
        self.degree = degree
        self.base: list[int] = []
        self._level_gens: list[list[Permutation]] = []
        self._transversals: list[dict[int, bytes]] = []
        for g in generators:
            self.add(g)

    def _strip(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        img = g.images
        for j in range(start, len(self.base)):
            u = self._transversals[j].get(img[self.base[j]])
            if u is None:
                return Permutation._raw(img), j
            img = _div(img, u)
        return Permutation._raw(img), len(self.base)

    def _schreier_sims(self, i: int) -> None:
        # Precondition: levels > i are complete, and level i is but for its last
        # generator; then all are.  The search extends transversal i, adding each
        # new pair's non-identity Schreier generator; add touches only levels > i.
        gens = self._level_gens[i]
        _schreier_transversal(gens, _point_act, self._transversals[i],
                              lambda c: self.add(c, i), len(gens) - 1)

    def add(self, g: Permutation, i: int = -1) -> bool:
        """Extend the chain by g, which must fix base[:i+1]; False if g is
        already a member.  Precondition: levels > i are complete, and they
        are again on return."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch among generators")
        h, j = self._strip(g, i + 1)
        if h.is_identity():
            return False
        if j == len(self.base):
            self.base.append(h.min_moved())
            self._level_gens.append([])
            self._transversals.append({self.base[-1]: _IDENT[:self.degree]})
        for k in range(i + 1, j + 1):
            self._level_gens[k].append(h)
        for k in range(j, i, -1):
            self._schreier_sims(k)
        return True

    def copy(self) -> "BSGS":
        """The same chain, sharing no list or dict with this one."""
        chain = BSGS([], self.degree)
        chain.base, chain._level_gens = self.base[:], [lvl[:] for lvl in self._level_gens]
        chain._transversals = [T.copy() for T in self._transversals]
        return chain

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


def bsgs_build(gens, degree: int | None = None) -> BSGS:
    return BSGS(gens, degree)


OrbitStabilizer = namedtuple("OrbitStabilizer", "orbit_size stabilizer_generators")


def orbit_stabilizer(gens, act, seed, keep=None) -> OrbitStabilizer:
    """Orbit of seed under the permutation group <gens> acting on hashable
    states, with Schreier generators u_s * g * u_{s.g}^-1 for the stabilizer,
    from _schreier_transversal, the search Schreier-Sims also runs: the
    transversal is image bytes, and only a candidate offered to keep becomes
    a Permutation.

    Identity candidates (u_s * g == u_{s.g}) are skipped before keep sees
    them.  keep(candidate) decides which Schreier generators to retain; the
    default, which every caller in the package uses, drops duplicates.  A
    custom keep may wrap or count candidates, but any generator it rejects
    must already lie in the group generated by the retained ones, so the
    kept set generates the full stabilizer.  The action is spot-checked for
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

    reps, kept = _schreier_transversal(gens, act, {seed: _IDENT[:gens[0].degree]}, keep)
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


def _conjugacy_classes(gens) -> list[dict]:
    """Conjugacy classes of <gens> in closure's order, identity's first: orbits
    under conjugation by gens, keyed by image bytes; g^-1 a g is two translates."""
    elements = closure(gens)
    e = _IDENT[:gens[0].degree]
    pad = _IDENT[len(e):]
    conj = [(_div(e, g.images), g.images + pad) for g in gens]
    classes, seen = [], set()
    for el in elements:
        if el.images not in seen:
            classes.append(_schreier_search(
                conj, lambda a, g: g[0].translate(a + pad).translate(g[1]), {el.images: None}))
            seen.update(classes[-1])
    return classes


def is_simple_small(gens) -> bool:
    """Simplicity test for a permutation group small enough to enumerate
    (order <= _ENUMERATION_CAP): the normal closure of every nontrivial
    conjugacy class representative must have the order of the whole group."""
    gens = list(gens)
    classes = _conjugacy_classes(gens)
    n = sum(map(len, classes))
    return n > 1 and all(normal_closure(gens, [Permutation._raw(next(iter(cls)))]).order() == n
                         for cls in classes[1:])


def action_kernel_order(bsgs: BSGS, block_map) -> int:
    """Order of the kernel of the induced action on the blocks of block_map.

    block_map sends each point to a block label; the label of p^g must depend
    only on the label of p, checked on all strong generators.
    """
    labels = [block_map(p) for p in range(bsgs.degree)]
    index = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    blocks = [index[lab] for lab in labels]
    induced = []
    for g in bsgs.strong_generators():
        images = dict(zip(blocks, (blocks[q] for q in g.images)))
        if any(images[b] != blocks[q] for b, q in zip(blocks, g.images)):
            raise BlockSystemError("block system is not preserved")
        induced.append(Permutation(tuple(images[i] for i in range(len(index)))))
    image_order = bsgs_build(induced).order() if induced else 1
    total = bsgs.order()
    if total % image_order:
        raise BlockSystemError("image order does not divide group order")
    return total // image_order


def hom_closure(pairs) -> dict:
    """Extend generator pairs (g, image) to the full domain group by
    _image_search over the Cayley graph; returns the table {g: image of g},
    both sides as image bytes.  The generators, and the images, are
    Permutations of one degree each (ValueError otherwise); the search labels
    the domain with image bytes, and each element with its image's.

    Raises InconsistentImagesError when two words for the same element get
    different images (the data is not a homomorphism), and ClosureCapError
    when the domain exceeds _ENUMERATION_CAP.  Every element is taken from
    the queue and tried against every generator, so a finished table satisfies
    table[g * s] == table[g] * image(s) for every element g and generator s;
    by induction on word length the table is multiplicative.  outer closes
    both S6 automorphism tables with it.
    """
    pairs = [(g, im) for g, im in pairs]
    if not pairs:
        raise ValueError("need at least one generator pair")
    gens, images = zip(*pairs)
    n = images[0].degree
    if any(im.degree != n for im in images):
        raise ValueError("degree mismatch among images")

    def on_edge(hi, prev):
        raise InconsistentImagesError("generator images are not a homomorphism")

    return _image_search(gens, _IDENT[:n], on_edge, images)
