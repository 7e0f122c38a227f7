"""Free word arithmetic: frozen examples first, then randomised laws.

Derived expectations are checked against independent oracles implemented
inline rather than against the library's own code paths.
"""

from __future__ import annotations

import random

import pytest

from braidcert.words import (
    EndoMap,
    FreeWord,
    GrammarError,
    format_word,
    parse_word,
)


def random_word(rng: random.Random, n: int, max_len: int) -> FreeWord:
    length = rng.randrange(max_len + 1)
    letters = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(length)]
    return FreeWord.reduce(n, letters)


def random_endo(rng: random.Random, n: int, max_len: int = 4) -> EndoMap:
    return EndoMap(n, tuple(random_word(rng, n, max_len) for _ in range(n)))


# frozen examples


def test_reduce_cancels_adjacent_inverse_pairs():
    w = FreeWord.reduce(2, (1, 2, -2, -1, 1))
    assert w.letters == (1,)


def test_reduce_of_sandwich_is_identity():
    assert FreeWord.reduce(3, (1, 2, 3, -3, -2, -1)).is_identity


def test_unreduced_constructor_rejected():
    with pytest.raises(ValueError):
        FreeWord(2, (1, -1))


def test_multiply_cancels_at_seam():
    a = FreeWord(2, (1, 2))
    b = FreeWord(2, (-2, -1, 2))
    assert (a * b).letters == (2,)


def test_inverse_reverses_and_negates():
    w = FreeWord(3, (1, -2, 3))
    assert w.inverse().letters == (-3, 2, -1)


def test_power_matches_repeated_product():
    w = FreeWord(2, (1, 2))
    assert w ** 3 == w * w * w
    assert w ** -2 == (w * w).inverse()
    assert (w ** 0).is_identity


def test_apply_substitutes_generator_images():
    # phi: x1 -> x1 x2, x2 -> x2
    phi = EndoMap(2, (FreeWord(2, (1, 2)), FreeWord(2, (2,))))
    w = FreeWord(2, (1, -2))
    assert phi(w).letters == (1,)  # x1 x2 x2^-1


# grammar


def test_parse_word_round_trip():
    w = parse_word("x1 x2^-1 x1", 2)
    assert w.letters == (1, -2, 1)
    assert format_word(w) == "x1 x2^-1 x1"


def test_parse_word_empty_is_identity():
    assert parse_word("", 3).is_identity
    assert parse_word("   ", 3).is_identity


def test_parse_word_reduces():
    assert parse_word("x1 x1^-1", 2).is_identity


def test_parse_word_rejects_bad_token_with_position():
    with pytest.raises(GrammarError) as exc:
        parse_word("x1 y2", 2)
    assert exc.value.position == 3


def test_parse_word_rejects_out_of_range_generator():
    with pytest.raises(GrammarError):
        parse_word("x3", 2)


# randomised laws


def test_multiply_associative_and_unital():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        a, b, c = (random_word(rng, n, 8) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        e = FreeWord.identity(n)
        assert a * e == a and e * a == a


def test_inverse_is_involutive_and_cancels():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 5)
        w = random_word(rng, n, 8)
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).is_identity


def test_apply_respects_composition_and_products():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 4)
        phi, psi = random_endo(rng, n), random_endo(rng, n)
        w, v = random_word(rng, n, 6), random_word(rng, n, 6)
        assert phi.compose(psi)(w) == phi(psi(w))
        assert phi(w * v) == phi(w) * phi(v)

