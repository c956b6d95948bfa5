import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard6.perms import Permutation

perm6 = st.permutations(range(6)).map(Permutation)
perm9 = st.permutations(range(9)).map(Permutation)
perm_pairs = st.integers(2, 40).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


def test_parse_five_cycle():
    g = Permutation.parse("(2,3,4,5,6)", 6)
    assert g.images[0] == 0
    assert g.images[1] == 2
    assert g.images[5] == 1


def test_parse_identity():
    assert Permutation.parse("id", 6).is_identity()


def test_parse_triple_transposition():
    g = Permutation.parse("(1,2)(3,6)(4,5)", 6)
    assert g.cycle_type() == (2, 2, 2)
    assert g * g == Permutation.identity(6)


def test_parse_errors():
    with pytest.raises(ValueError):
        Permutation.parse("(1,2", 6)
    with pytest.raises(ValueError):
        Permutation.parse("(1,7)", 6)
    with pytest.raises(ValueError):
        Permutation.parse("(1,2)(2,3)", 6)
    with pytest.raises(ValueError):
        Permutation.parse("nonsense", 6)
    # Arabic-Indic digits one and two: int() would read them as 1 and 2
    with pytest.raises(ValueError):
        Permutation.parse("(\u0661,\u0662)", 6)
    # an ideographic space, between cycles as inside one: \s under re.ASCII
    # takes ASCII whitespace only
    for text in ("(1,2)\u3000(3,4)", "(1,\u30002)", "\u3000(1,2)"):
        with pytest.raises(ValueError):
            Permutation.parse(text, 6)


def test_right_action_product():
    # the product convention is pinned by this identity of permutation pairs
    a = Permutation.parse("(2,3,4,5,6)", 6)
    b = Permutation.parse("(1,2)", 6)
    assert str(a * b) == "(1,2,3,4,5,6)"
    bq = Permutation.parse("(1,2)(3,6)(4,5)", 6)
    assert str(a * bq) == "(1,2,6)(3,5)"


def test_transposition_squares_to_identity():
    t = Permutation.parse("(1,2)", 6)
    assert (t * t).is_identity()


@given(perm9)
def test_inverse(g):
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


def test_inverse_examples():
    assert str(Permutation.parse("(1,2,3)", 3).inverse()) == "(1,3,2)"
    assert Permutation.identity(4).inverse().is_identity()
    t = Permutation.parse("(1,2)", 2)
    assert t.inverse() == t


@given(perm9)
def test_parse_print_round_trip(g):
    assert Permutation.parse(str(g), 9) == g


def test_cycle_type_examples():
    assert Permutation.parse("(1,2)", 6).cycle_type() == (2, 1, 1, 1, 1)
    assert Permutation.parse("(1,2)(3,6)(4,5)", 6).cycle_type() == (2, 2, 2)
    assert Permutation.parse("(1,2,6)(3,5)", 6).cycle_type() == (3, 2, 1)


@given(perm9, perm9)
def test_cycle_type_is_conjugation_invariant(g, h):
    assert (h.inverse() * g * h).cycle_type() == g.cycle_type()


def test_power():
    c = Permutation.parse("(1,2,3,4,5,6)", 6)
    assert (c**6).is_identity()
    assert c**-1 == c.inverse()
    assert c**2 == c * c


@pytest.mark.parametrize("g", [Permutation(()), Permutation((0,)),
                               Permutation.parse("(1,2,3)(4,6)", 6)])
def test_power_matches_repeated_products(g):
    e = Permutation.identity(g.degree)
    for k in range(-7, 8):
        expected = e
        for _ in range(abs(k)):
            expected = expected * (g if k > 0 else g.inverse())
        assert g**k == expected


def test_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.parse("(1,2)", 2) * Permutation.parse("(1,2)", 3)
    for m, n in ((0, 1), (1, 0), (1, 2), (2, 1)):
        with pytest.raises(ValueError):
            Permutation.identity(m) * Permutation.identity(n)


def test_products_on_zero_and_one_points():
    for n in (0, 1):
        e = Permutation(range(n))
        assert (e * e).images == bytes(range(n))


@given(perm_pairs)
def test_product_matches_the_reference(pair):
    a, b = pair
    product = Permutation(a) * Permutation(b)
    assert type(product.images) is bytes
    assert product.images == bytes(b[x] for x in a)


def reference_inverse(images):
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return bytes(inv)


@given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(n))))
def test_inverse_matches_the_reference(a):
    inverse = Permutation(a).inverse()
    assert type(inverse.images) is bytes
    assert inverse.images == reference_inverse(a)


def test_degree_256_product_and_inverse():
    rng = random.Random(256)
    a, b = rng.sample(range(256), 256), rng.sample(range(256), 256)
    pa, pb = Permutation(a), Permutation(b)
    assert (pa * pb).images == bytes(b[x] for x in a)
    assert pa.inverse().images == reference_inverse(a)
    assert (pa * pa.inverse()).is_identity()
    assert not pa.is_identity() and Permutation.identity(256).is_identity()


@pytest.mark.parametrize("images", [[0, 0], [1, 2], [0, -1], range(257)])
def test_constructor_rejects_non_permutations(images):
    with pytest.raises(ValueError):
        Permutation(images)


@pytest.mark.parametrize("n", [-1, 257, 300])
def test_identity_rejects_a_degree_out_of_range(n):
    # a slice of the 256-byte identity table would quietly give another degree
    with pytest.raises(ValueError):
        Permutation.identity(n)
    with pytest.raises(ValueError):
        Permutation.parse("id", n)


def test_constructor_rejects_an_int():
    with pytest.raises(TypeError):
        Permutation(1)  # not read as bytes(1), the identity on one point


def test_every_operation_yields_bytes_images():
    # a tuple reaching Permutation._raw would compare unequal to the same
    # permutation stored as bytes, without any error
    g = Permutation.parse("(1,2,3)(4,5)", 6)
    h = Permutation([1, 0, 2, 3, 4, 5])
    for p in (Permutation.identity(6), Permutation.parse("id", 6), g, h,
              g * h, g.inverse(), g**-2):
        assert type(p.images) is bytes


@given(perm6, perm6)
def test_not_equal_is_the_negation_of_equal(a, b):
    assert (a != b) is (not (a == b))
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("other", [5, None, bytes([1, 0, 2])], ids=["int", "None", "bytes"])
def test_comparison_with_a_non_permutation(other):
    g = Permutation([1, 0, 2])
    assert not g == other and g != other
    assert not other == g and other != g


def test_constructed_permutations_have_slots_only():
    g = Permutation.parse("(1,2,3)", 4)
    for p in (Permutation._raw(bytes([1, 0, 2, 3])), g * g, g.inverse()):
        assert not hasattr(p, "__dict__")
        assert type(p.images) is bytes
