from itertools import product

import pytest

from hadamard6 import gf4
from hadamard6.gf4 import GF4, GF4_ALL, GF4_ONE, GF4_X, GF4_X2, GF4_ZERO, LinearCode, h6_code, verify_codes


def test_field_axioms_exhaustively():
    for a, b, c in product(GF4_ALL, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
    for a in GF4_ALL:
        assert a + GF4_ZERO == a
        assert a * GF4_ONE == a


def test_multiplicative_group_of_order_three():
    assert GF4_X * GF4_X == GF4_X2          # x^2 = x + 1
    assert GF4_X * GF4_X * GF4_X == GF4_ONE
    assert GF4_X + GF4_ONE == GF4_X2


def test_characteristic_two():
    for a in GF4_ALL:
        assert a + a == GF4_ZERO


def test_gf4_value_range():
    with pytest.raises(ValueError):
        GF4(4)


def test_hexacode_parameters():
    code = h6_code()
    assert code.dimension == 3
    assert code.min_distance() == 4
    assert code.parameters() == (6, 3, 4)
    assert sum(1 for _ in code.codewords()) == 64


def test_hexacode_weight_distribution():
    # frozen from exhaustive enumeration; sums to 4^3
    assert h6_code().weight_distribution() == {0: 1, 4: 45, 6: 18}


def test_every_puncture_is_5_3_3():
    code = h6_code()
    for coord in range(1, 7):
        assert code.puncture(coord).parameters() == (5, 3, 3)


def test_puncture_bounds():
    with pytest.raises(ValueError):
        h6_code().puncture(0)
    with pytest.raises(ValueError):
        h6_code().puncture(7)


def test_puncture_shortens():
    assert h6_code().puncture(3).length == 5


def test_alternate_generator_identification_is_equivalent():
    assert h6_code(alternate_generator=True).parameters() == h6_code().parameters()
    assert h6_code(alternate_generator=True).weight_distribution() == h6_code().weight_distribution()


def test_zero_column_puncture_preserves_distance():
    rows = [
        (GF4_ZERO, GF4_ONE, GF4_ONE, GF4_X),
        (GF4_ZERO, GF4_ZERO, GF4_X, GF4_X2),
    ]
    code = LinearCode(4, rows)
    assert code.puncture(1).min_distance() == code.min_distance()


def test_repetition_code_distance():
    code = LinearCode(6, [(GF4_ONE,) * 6])
    assert code.min_distance() == 6


def test_zero_code_has_no_distance():
    code = LinearCode(4, [(GF4_ZERO,) * 4])
    assert code.dimension == 0
    with pytest.raises(ValueError):
        code.min_distance()


def _reference_codewords(code):
    """The span enumerated with GF4 arithmetic over product(GF4_ALL, repeat=k)."""
    words = []
    for coeffs in product(GF4_ALL, repeat=code.dimension):
        word = (GF4_ZERO,) * code.length
        for c, row in zip(coeffs, code.basis):
            word = tuple(w + c * v for w, v in zip(word, row))
        words.append(word)
    return words


def _codes_of_verify_codes():
    code = h6_code()
    return {"h6": code, "alternate": h6_code(alternate_generator=True),
            **{f"puncture{c}": code.puncture(c) for c in range(1, 7)}}


@pytest.mark.parametrize("name", ["h6", "alternate"] + [f"puncture{c}" for c in range(1, 7)])
def test_codewords_match_the_gf4_reference_and_are_enumerated_once(name, monkeypatch):
    calls = []
    span = gf4._span
    monkeypatch.setattr(gf4, "_span", lambda basis: calls.append(basis) or span(basis))
    cached = _codes_of_verify_codes()[name]
    code = LinearCode(cached.length, cached.basis)  # fresh, so nothing is enumerated yet
    reference = _reference_codewords(code)
    weights = {}
    for w in reference:
        weight = sum(1 for v in w if v)
        weights[weight] = weights.get(weight, 0) + 1
    assert list(code.codewords()) == reference
    assert len(set(reference)) == 4**code.dimension
    assert code.weight_distribution() == dict(sorted(weights.items()))
    assert code.min_distance() == min(k for k in weights if k)
    assert code.parameters() == (code.length, 3, 4 if code.length == 6 else 3)
    assert list(code.codewords()) == reference
    assert len(calls) == 1


def test_verify_codes_enumerates_each_code_once(monkeypatch):
    calls = []
    span = gf4._span
    monkeypatch.setattr(gf4, "_span", lambda basis: calls.append(basis) or span(basis))
    h6_code.cache_clear()
    try:
        assert verify_codes().passed
    finally:
        h6_code.cache_clear()
    # the code, its six punctures and the alternate code
    assert len(calls) == 8
