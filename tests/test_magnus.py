"""Expansion axioms: normalisation, multiplicativity, inverse correctness.

The inverse oracle re-multiplies claimed inverses directly; homomorphism
checks compare against products computed letter by letter in a different
association order.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from braidcert import magnus
from braidcert.magnus import MagnusExpansion, series_inverse
from braidcert.tensors import HomTensor, TruncatedTensor
from braidcert.words import FreeWord

F = Fraction


def random_word(rng: random.Random, n: int, max_len: int) -> FreeWord:
    length = rng.randrange(max_len + 1)
    return FreeWord.reduce(
        n, [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(length)]
    )


def random_tail(rng: random.Random, n: int, cap: int) -> TruncatedTensor:
    from itertools import product

    terms = {}
    for m in range(2, cap + 1):
        for idx in product(range(1, n + 1), repeat=m):
            if rng.random() < 0.3:
                terms[idx] = F(rng.randint(-3, 3), rng.randint(1, 2))
    return TruncatedTensor(n, cap, terms)


def random_custom(rng: random.Random, n: int, cap: int) -> MagnusExpansion:
    return MagnusExpansion.custom(n, cap, [random_tail(rng, n, cap) for _ in range(n)])


# frozen examples


def test_standard_generator_values():
    theta = MagnusExpansion.standard(2, 3)
    v = theta.value(FreeWord.generator(2, 1))
    assert v == TruncatedTensor(2, 3, {(): 1, (1,): 1})


def test_standard_inverse_is_alternating_geometric_series():
    theta = MagnusExpansion.standard(2, 3)
    w = theta.value(FreeWord.generator(2, 1, -1))
    assert w == TruncatedTensor(2, 3, {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1})


def test_custom_inverse_frozen_value():
    # theta(x1) = 1 + X1 + X2 (x) X2 at cap 2:
    # inverse = 1 - X1 + X1 (x) X1 - X2 (x) X2
    tail = TruncatedTensor(2, 2, {(2, 2): 1})
    theta = MagnusExpansion.custom(2, 2, [tail, TruncatedTensor.zero(2, 2)])
    w = theta.value(FreeWord.generator(2, 1, -1))
    assert w == TruncatedTensor(2, 2, {(): 1, (1,): -1, (1, 1): 1, (2, 2): -1})


def test_commutator_leading_term_is_bracket():
    # theta([x1, x2]) = 1 + (X1 X2 - X2 X1) + higher, for the standard expansion
    theta = MagnusExpansion.standard(2, 2)
    w = FreeWord.reduce(2, (1, 2, -1, -2))
    v = theta.value(w)
    assert v.component(0) == TruncatedTensor.one(2, 2).component(0)
    assert v.component(1).is_zero()
    assert v.component(2) == TruncatedTensor(2, 2, {(1, 2): 1, (2, 1): -1})


def test_rejects_tail_with_low_degree_terms():
    bad = TruncatedTensor(2, 2, {(1,): 1})
    with pytest.raises(ValueError):
        MagnusExpansion.custom(2, 2, [bad, TruncatedTensor.zero(2, 2)])


def test_rejects_cap_below_two():
    with pytest.raises(ValueError):
        MagnusExpansion.standard(2, 1)


def test_tails_are_the_degree_two_parts_of_the_generator_values():
    rng = random.Random(25)
    assert MagnusExpansion.standard(3, 3).tails == HomTensor.zero(3, 2)
    for cap in (2, 3, 4):
        theta = random_custom(rng, 3, cap)
        columns = [theta.value(FreeWord.generator(3, j)).component(2) for j in (1, 2, 3)]
        assert theta.tails == HomTensor.from_columns(3, 2, columns)


def test_inverses_are_built_on_the_first_inverse_letter(monkeypatch):
    calls = []
    inverse = magnus.series_inverse
    monkeypatch.setattr(magnus, "series_inverse", lambda v: calls.append(v) or inverse(v))
    theta = MagnusExpansion.standard(3, 3)
    theta.value(FreeWord.reduce(3, (1, 2, 3, 1)))
    assert calls == []
    assert theta.value(FreeWord.reduce(3, (1, -2))) == theta.value(
        FreeWord.generator(3, 1)) * inverse(theta.gen_values[1])
    theta.value(FreeWord.reduce(3, (-3, -1)))
    assert calls == list(theta.gen_values)


def test_series_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_inverse(TruncatedTensor(2, 2, {(): 2}))


# randomised laws


def test_value_is_a_homomorphism():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 3)
        cap = rng.randint(2, 4)
        theta = (
            MagnusExpansion.standard(n, cap)
            if rng.random() < 0.5
            else random_custom(rng, n, cap)
        )
        a, b = random_word(rng, n, 8), random_word(rng, n, 8)
        assert theta.value(a * b) == theta.value(a) * theta.value(b)


def test_value_of_inverse_is_inverse_value():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(1, 3)
        cap = rng.randint(2, 4)
        theta = random_custom(rng, n, cap)
        w = random_word(rng, n, 8)
        one = TruncatedTensor.one(n, cap)
        assert theta.value(w) * theta.value(w.inverse()) == one
        assert theta.value(w.inverse()) * theta.value(w) == one


def test_normalisation_holds_for_all_words():
    # degree 0 part is 1 and degree 1 part is the abelianisation, for any expansion
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        theta = random_custom(rng, n, 3)
        w = random_word(rng, n, 10)
        v = theta.value(w)
        assert v.component(0) == TruncatedTensor.one(n, 3).component(0)
        exps = {(i,): 0 for i in range(1, n + 1)}
        for l in w.letters:
            exps[(abs(l),)] += 1 if l > 0 else -1
        assert v.component(1) == TruncatedTensor(n, 3, exps)


def test_value_does_not_depend_on_spelling():
    # freely equal spellings reduce to the same word, hence the same value
    rng = random.Random(24)
    theta = MagnusExpansion.standard(3, 3)
    for _ in range(40):
        w = random_word(rng, 3, 6)
        padded = list(w.letters)
        for _ in range(3):
            pos = rng.randrange(len(padded) + 1)
            l = rng.choice([1, -1]) * rng.randint(1, 3)
            padded[pos:pos] = [l, -l]
        assert FreeWord.reduce(3, padded) == w
        assert theta.value(FreeWord.reduce(3, padded)) == theta.value(w)
