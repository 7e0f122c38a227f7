"""Free word arithmetic: frozen examples first, then randomised laws.

Derived expectations are checked against independent oracles implemented
inline rather than against the library's own code paths.
"""

from __future__ import annotations

import random

import pytest

from braidcert.braids import BraidWord, artin_action
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


def identity_map(n: int) -> EndoMap:
    """The identity endomorphism of F_n: each generator is its own image."""
    return EndoMap(n, tuple(FreeWord.generator(n, i) for i in range(1, n + 1)))


# frozen examples


def test_reduce_cancels_adjacent_inverse_pairs():
    w = FreeWord.reduce(2, (1, 2, -2, -1, 1))
    assert w.letters == (1,)


def test_reduce_of_sandwich_is_identity():
    assert FreeWord.reduce(3, (1, 2, 3, -3, -2, -1)).is_identity


def test_unreduced_constructor_rejected():
    with pytest.raises(ValueError):
        FreeWord(2, (1, -1))


@pytest.mark.parametrize("letters", [(5,), (5, -5), (0, 0), (1, 3, -3)])
def test_reduce_checks_every_letter_before_cancelling(letters):
    with pytest.raises(ValueError, match="out of range for rank 2"):
        FreeWord.reduce(2, letters)


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


def test_format_word_matches_the_token_oracle_at_every_rank():
    rng = random.Random(14)
    for n in (1, 2, 9, 10, 11, 25, 120):
        w = random_word(rng, n, 60)
        expected = " ".join(f"x{l}" if l > 0 else f"x{-l}^-1" for l in w.letters)
        assert format_word(w) == str(w) == expected
        assert parse_word(expected, n) == w


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



def raw_substitution(f: EndoMap, w: FreeWord) -> FreeWord:
    """f(w) by concatenating the images of the letters, reduced once at the end."""
    letters: list[int] = []
    for letter in w.letters:
        image = f.images[abs(letter) - 1]
        letters.extend((image if letter > 0 else image.inverse()).letters)
    return FreeWord.reduce(f.n, letters)


def test_substitution_matches_reducing_the_raw_concatenation():
    # braid automorphisms on words that cancel deeply across the seams: the
    # images of inverse images, and w f(w)^-1
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 6)
        length = rng.randint(1, 7)
        beta = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)))
        f, f_inv = artin_action(beta), artin_action(beta.inverse())
        w = random_word(rng, n, 8)
        pulled = f_inv(w)
        assert f(pulled) == raw_substitution(f, pulled) == w
        for u in (w, w * f(w).inverse(), f(w).inverse() * w, pulled * w):
            assert f(u) == raw_substitution(f, u)
