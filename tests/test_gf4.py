from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hadamard6.gf4 import _MUL, LinearCode, h6_code, verify_codes

# the codes of 0, 1, x and x2
ZERO, ONE, X, X2 = range(4)


def test_field_axioms_exhaustively():
    for a, b, c in product(range(4), repeat=3):
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert _MUL[_MUL[a][b]][c] == _MUL[a][_MUL[b][c]]
        assert _MUL[a][b ^ c] == _MUL[a][b] ^ _MUL[a][c]
        assert a ^ b == b ^ a
        assert _MUL[a][b] == _MUL[b][a]
    for a in range(4):
        assert a ^ ZERO == a
        assert _MUL[a][ONE] == a


def test_multiplicative_group_of_order_three():
    assert _MUL[X][X] == X2          # x^2 = x + 1
    assert _MUL[_MUL[X][X]][X] == ONE
    assert X ^ ONE == X2


def test_characteristic_two():
    for a in range(4):
        assert a ^ a == ZERO


def test_gf4_value_range():
    with pytest.raises(ValueError):
        LinearCode(4, [(ONE, X, X2)])
    for bad in (4, -1):
        with pytest.raises(ValueError):
            LinearCode(3, [(ONE, bad, X)])


def test_hexacode_parameters():
    code = h6_code()
    assert code.dimension == 3
    assert code.min_distance() == 4
    assert code.parameters() == (6, 3, 4)
    assert len(code.words) == 64


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
        (ZERO, ONE, ONE, X),
        (ZERO, ZERO, X, X2),
    ]
    code = LinearCode(4, rows)
    assert code.puncture(1).min_distance() == code.min_distance()


def test_repetition_code_distance():
    code = LinearCode(6, [(ONE,) * 6])
    assert code.min_distance() == 6


def test_zero_code_has_no_distance():
    code = LinearCode(4, [(ZERO,) * 4])
    assert code.dimension == 0
    with pytest.raises(ValueError):
        code.min_distance()


def _reference_words(length, rows):
    """Every combination sum c_j * row_j over {0..3}^k, built coordinate by
    coordinate with the field tables, one entry per coefficient vector."""
    words = []
    for coeffs in product(range(4), repeat=len(rows)):
        word = [ZERO] * length
        for c, row in zip(coeffs, rows):
            word = [w ^ _MUL[c][v] for w, v in zip(word, row)]
        words.append(tuple(word))
    return words


def _decoded(code):
    return {tuple(w >> 2 * i & 3 for i in range(code.length)) for w in code.words}


def _assert_matches_reference(code, rows):
    reference = set(_reference_words(code.length, rows))
    assert _decoded(code) == reference
    assert len(code.words) == len(reference) == 4**code.dimension
    weights = Counter(sum(1 for v in w if v) for w in reference)
    assert code.weight_distribution() == dict(sorted(weights.items()))


@st.composite
def _code_rows(draw):
    """A length 1..6 and 0..4 rows: random rows, with zero rows and repeats
    of them mixed in."""
    length = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * length), max_size=4))
    extra = st.sampled_from(rows + [(ZERO,) * length])
    rows += draw(st.lists(extra, max_size=4 - len(rows)))
    return length, draw(st.permutations(rows))


@given(_code_rows())
@example((6, [(1, 2, 0, 0, 3, 0), (0, 0, 1, 0, 0, 2), (1, 2, 0, 0, 3, 0), (0, 0, 0, 2, 1, 0)]))
@example((4, [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3)]))  # the whole space
def test_words_match_the_coefficient_enumeration(length_rows):
    length, rows = length_rows
    _assert_matches_reference(LinearCode(length, rows), rows)


def _codes_of_verify_codes():
    code = h6_code()
    return {"h6": code, "alternate": h6_code(alternate_generator=True),
            **{f"puncture{c}": code.puncture(c) for c in range(1, 7)}}


def _counting_init(monkeypatch):
    calls = []
    init = LinearCode.__init__
    monkeypatch.setattr(LinearCode, "__init__",
                        lambda self, length, rows: calls.append(rows) or init(self, length, rows))
    return calls


@pytest.mark.parametrize("name", ["h6", "alternate"] + [f"puncture{c}" for c in range(1, 7)])
def test_codewords_match_the_gf4_reference_and_are_enumerated_once(name, monkeypatch):
    cached = _codes_of_verify_codes()[name]
    calls = _counting_init(monkeypatch)
    code = LinearCode(cached.length, cached.rows)
    _assert_matches_reference(code, cached.rows)
    assert code.parameters() == (code.length, 3, 4 if code.length == 6 else 3)
    # the reads above use the stored words and build no other code
    assert len(calls) == 1


def test_verify_codes_enumerates_each_code_once(monkeypatch):
    calls = _counting_init(monkeypatch)
    h6_code.cache_clear()
    try:
        assert verify_codes().passed
    finally:
        h6_code.cache_clear()
    # the code, its six punctures and the alternate code
    assert len(calls) == 8
