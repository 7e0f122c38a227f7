"""Cocycle values and cochain calculus.

Frozen values pin the crossed homomorphism on elementary and band
generators; structural laws (cocycle identity, vanishing coboundaries,
Leibniz, associativity of cup) are checked pointwise on seeded random
tuples.  Nothing here assumes purity unless stated: elements are arbitrary
braids, so the twisted action is genuinely exercised.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import braidcert
import braidcert.cli as cli
from braidcert import braids, certify, magnus
from braidcert.braids import BraidWord, artin_action, full_twist, permutation, pure_gen_braid
from braidcert.chains import parse_cycle
from braidcert.cochains import (
    BlockEmbedding,
    Cochain,
    block_layout,
    coboundary,
    coeff_action,
    composite_cochain,
    hbar_cochain,
    hp_cochain,
    projection_pullback,
    tau1,
    tau1_cochain,
)
from braidcert.magnus import MagnusExpansion
from braidcert.suites import run_suite
from braidcert.tensors import (
    ExteriorElement,
    HomTensor,
    TruncatedTensor,
    alt_project,
    compose_maps,
)
from braidcert.words import EndoMap, FreeWord
from restriction_oracle import cup, hbar_partition_cochain, unit_cochain
from test_words import identity_map

F = Fraction


def random_braid_element(rng: random.Random, n: int, max_len: int) -> BraidWord:
    length = rng.randrange(max_len + 1)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(n, letters)


def random_pure_element(rng: random.Random, n: int, max_gens: int = 4) -> BraidWord:
    beta = BraidWord.identity(n)
    for _ in range(rng.randrange(max_gens + 1)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        beta = beta * pure_gen_braid(n, i, j) ** rng.choice([-1, 1])
    return beta


def random_degree_two_tails(rng: random.Random, n: int, cap: int = 2) -> list[TruncatedTensor]:
    tails = []
    for _ in range(n):
        terms = {
            idx: F(rng.randint(-2, 2), rng.randint(1, 2))
            for idx in iter_product(range(1, n + 1), repeat=2)
            if rng.random() < 0.4
        }
        tails.append(TruncatedTensor(n, cap, terms))
    return tails


def random_custom(rng: random.Random, n: int, cap: int = 2) -> MagnusExpansion:
    return MagnusExpansion(n, cap, random_degree_two_tails(rng, n, cap))


def bracket_column(n: int, i: int, j: int) -> TruncatedTensor:
    return TruncatedTensor(n, 2, {(i, j): 1, (j, i): -1})


# frozen values


def test_tau1_on_elementary_generators():
    # the value on s_i is supported on column i, equal to X_i X_{i+1} - X_{i+1} X_i
    for n in range(2, 7):
        theta = MagnusExpansion.standard(n, 2)
        for i in range(1, n):
            got = tau1(theta, BraidWord.gen(n, i))
            cols = [TruncatedTensor.zero(n, 2) for _ in range(n)]
            cols[i - 1] = bracket_column(n, i, i + 1)
            assert got == HomTensor.from_columns(n, 2, tuple(cols))


def test_tau1_on_band_generators():
    # the value on A_{i,j} is the bracket X_i X_j - X_j X_i on column i and
    # its negative on column j
    for n in range(2, 7):
        theta = MagnusExpansion.standard(n, 2)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                got = tau1(theta, pure_gen_braid(n, i, j))
                cols = [TruncatedTensor.zero(n, 2) for _ in range(n)]
                cols[i - 1] = bracket_column(n, i, j)
                cols[j - 1] = -bracket_column(n, i, j)
                assert got == HomTensor.from_columns(n, 2, tuple(cols))


def test_tau1_vanishes_on_identity():
    theta = MagnusExpansion.standard(3, 2)
    assert tau1(theta, BraidWord.identity(3)).is_zero()


def test_hbar1_of_first_band_generator_is_full_weight():
    theta = MagnusExpansion.standard(2, 2)
    g = pure_gen_braid(2, 1, 2)
    got = hbar_cochain(theta, 1)(g)
    assert got == TruncatedTensor(2, 1, {(1,): 1, (2,): 1})


def test_hbar1_of_elementary_generator():
    # leading-index contraction leaves only the X_{i+1} term
    theta = MagnusExpansion.standard(3, 2)
    got = hbar_cochain(theta, 1)(BraidWord.gen(3, 1))
    assert got == TruncatedTensor(3, 1, {(2,): 1})


def test_cochain_degree_guard():
    theta = MagnusExpansion.standard(2, 2)
    u = hp_cochain(theta, 2)
    with pytest.raises(ValueError):
        u(BraidWord.identity(2))


# the crossed homomorphism law and coboundaries


def test_tau1_crossed_homomorphism_identity():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 5)
        theta = MagnusExpansion.standard(n, 2)
        g = random_braid_element(rng, n, 6)
        h = random_braid_element(rng, n, 6)
        lhs = tau1(theta, g * h)
        rhs = tau1(theta, g) + coeff_action(g, tau1(theta, h))
        assert lhs == rhs


def test_coboundary_of_tau1_vanishes():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(2, 5)
        theta = random_custom(rng, n) if rng.random() < 0.3 else MagnusExpansion.standard(n, 2)
        delta = coboundary(tau1_cochain(theta))
        g, h = (random_braid_element(rng, n, 6) for _ in range(2))
        assert delta(g, h).is_zero()


def test_coboundary_of_hp_vanishes():
    rng = random.Random(43)
    for _ in range(12):
        n = rng.randint(2, 4)
        p = rng.randint(1, 3)
        theta = MagnusExpansion.standard(n, 2)
        delta = coboundary(hp_cochain(theta, p))
        gs = tuple(random_braid_element(rng, n, 5) for _ in range(p + 1))
        assert delta(*gs).is_zero()


def test_coboundary_squares_to_zero():
    # delta o delta = 0 for an arbitrary 1-cochain, not just cocycles
    rng = random.Random(44)
    theta = MagnusExpansion.standard(3, 2)
    u = Cochain(
        1, 3,
        lambda: TruncatedTensor.zero(3, 1),
        lambda g: hbar_cochain(theta, 1)(g) + TruncatedTensor(3, 1, {(1,): 1}),
    )
    dd = coboundary(coboundary(u))
    for _ in range(15):
        gs = tuple(random_braid_element(rng, 3, 5) for _ in range(3))
        assert dd(*gs).is_zero()


def test_normalisation_kills_degenerate_tuples():
    rng = random.Random(45)
    theta = MagnusExpansion.standard(3, 2)
    e = BraidWord.identity(3)
    for p in (1, 2, 3):
        u = hp_cochain(theta, p)
        for slot in range(p):
            gs = [random_braid_element(rng, 3, 4) for _ in range(p)]
            gs[slot] = e
            assert u(*gs).is_zero()


# cup product calculus


def shifted_hbar1(theta: MagnusExpansion, i: int) -> Cochain:
    """The exterior hbar_1 plus the constant X_i: a 1-cochain that is not a cocycle."""
    n = theta.n
    h = hbar_cochain(theta, 1, exterior=True)
    shift = ExteriorElement.basis(n, (i,))
    return Cochain(1, n, lambda: ExteriorElement.zero(n, 1), lambda g: h(g) + shift)


def test_cup_is_associative_pointwise():
    # rank 5, so that the degree-4 values have room to be nonzero
    rng = random.Random(46)
    theta = MagnusExpansion.standard(5, 2)
    u = hbar_cochain(theta, 1, exterior=True)
    v = hbar_cochain(theta, 1, exterior=True)
    w = hbar_cochain(theta, 2, exterior=True)
    left = cup(cup(u, v), w)
    right = cup(u, cup(v, w))
    nonzero = 0
    for _ in range(10):
        gs = tuple(random_braid_element(rng, 5, 8) for _ in range(4))
        value = left(*gs)
        assert value == right(*gs)
        nonzero += not value.is_zero()
    assert nonzero


def test_cup_satisfies_leibniz():
    # neither factor is a cocycle, so both terms on the right are seen
    rng = random.Random(47)
    theta = MagnusExpansion.standard(3, 2)
    u, v = shifted_hbar1(theta, 1), shifted_hbar1(theta, 2)
    lhs = coboundary(cup(u, v))
    first, second = cup(coboundary(u), v), cup(u, coboundary(v))
    # the sign convention: delta(u cup v) = delta(u) cup v - u cup delta(v)
    # for u of degree 1; the middle term needs the graded sign
    seen = [0, 0]
    for _ in range(10):
        gs = tuple(random_braid_element(rng, 3, 4) for _ in range(3))
        a, b = first(*gs), second(*gs)
        assert lhs(*gs) == a - b
        seen[0] += not a.is_zero()
        seen[1] += not b.is_zero()
    assert all(seen)


def test_cup_refuses_tensor_values():
    rng = random.Random(147)
    theta = MagnusExpansion.standard(3, 2)
    u = cup(hbar_cochain(theta, 1), hbar_cochain(theta, 1))
    gs = tuple(random_braid_element(rng, 3, 5) for _ in range(2))
    with pytest.raises(TypeError, match="TruncatedTensor and TruncatedTensor"):
        u(*gs)


def test_unit_cochain_is_neutral_for_cup():
    rng = random.Random(48)
    theta = MagnusExpansion.standard(3, 2)
    u = hbar_cochain(theta, 2, exterior=True)
    left = cup(unit_cochain(3), u)
    right = cup(u, unit_cochain(3))
    for _ in range(10):
        gs = tuple(random_braid_element(rng, 3, 5) for _ in range(2))
        assert left(*gs) == u(*gs) == right(*gs)


def test_hbar_partition_is_iterated_exterior_cup():
    rng = random.Random(49)
    theta = MagnusExpansion.standard(4, 2)
    direct = hbar_partition_cochain(theta, (2, 1))
    manual = cup(hbar_cochain(theta, 2, exterior=True), hbar_cochain(theta, 1, exterior=True))
    assert direct.degree == 3
    for _ in range(6):
        gs = tuple(random_braid_element(rng, 4, 4) for _ in range(3))
        assert direct(*gs) == manual(*gs)


def test_hbar_partition_ignores_zero_parts():
    theta = MagnusExpansion.standard(3, 2)
    a = hbar_partition_cochain(theta, (2, 0, 0))
    b = hbar_cochain(theta, 2, exterior=True)
    rng = random.Random(50)
    for _ in range(6):
        gs = tuple(random_braid_element(rng, 3, 4) for _ in range(2))
        assert a(*gs) == b(*gs)


# matrix actions against the composed-element oracle


def random_non_pure_element(rng: random.Random, n: int, max_len: int) -> BraidWord:
    while True:
        g = random_braid_element(rng, n, max_len)
        if permutation(g) != tuple(range(1, n + 1)):
            return g


def product_of(gs) -> BraidWord:
    return reduce(lambda a, b: a * b, gs)


def oracle_tau1(theta: MagnusExpansion, g: BraidWord) -> HomTensor:
    """tau1 by its defining formula  theta_2(x_j) - g.theta_2(g^-1 x_j)  on the
    images under g^-1, which grow exponentially with the braid's length."""
    n = theta.n
    inverse = g.inverse().aut
    cols = []
    for j in range(1, n + 1):
        base = theta.value(FreeWord.generator(n, j)).component(2)
        pulled = theta.value(inverse.images[j - 1]).component(2)
        cols.append(base - pulled.act(g.perm))
    return HomTensor.from_columns(n, 2, tuple(cols))


def oracle_hp(theta: MagnusExpansion, gs) -> HomTensor:
    """h_p by acting with the composed prefix elements themselves."""
    values = [tau1(theta, gs[0])]
    for k in range(1, len(gs)):
        values.append(coeff_action(product_of(gs[:k]), tau1(theta, gs[k])))
    return compose_maps(values)


def oracle_hbar(theta: MagnusExpansion, gs, exterior: bool = False):
    value = oracle_hp(theta, gs).contract()
    return alt_project(value, len(gs)) if exterior else value


def oracle_exterior_cup(theta: MagnusExpansion, a: int, gs) -> ExteriorElement:
    right = coeff_action(product_of(gs[:a]), oracle_hbar(theta, gs[a:], exterior=True))
    return oracle_hbar(theta, gs[:a], exterior=True).wedge(right)


def assert_matches_oracle(theta: MagnusExpansion, gs) -> None:
    for p in (2, 3):
        assert hp_cochain(theta, p)(*gs[:p]) == oracle_hp(theta, gs[:p])
        assert hbar_cochain(theta, p)(*gs[:p]) == oracle_hbar(theta, gs[:p])
        assert hbar_cochain(theta, p, exterior=True)(*gs[:p]) == oracle_hbar(
            theta, gs[:p], exterior=True
        )
    for a, b in ((1, 2), (2, 1), (3, 1)):
        u = hbar_cochain(theta, a, exterior=True)
        v = hbar_cochain(theta, b, exterior=True)
        assert cup(u, v)(*gs[:a + b]) == oracle_exterior_cup(theta, a, gs[:a + b])


def test_matrix_actions_match_composed_elements():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(3, 5)
        theta = random_custom(rng, n) if rng.random() < 0.3 else MagnusExpansion.standard(n, 2)
        gs = tuple(random_non_pure_element(rng, n, 4) for _ in range(4))
        assert_matches_oracle(theta, gs)


def test_identity_prefix_of_non_pure_elements_matches_oracle():
    # g g^-1 h acts trivially although g does not: the action is skipped
    rng = random.Random(54)
    for n in (3, 4, 5):
        theta = MagnusExpansion.standard(n, 2)
        g = random_non_pure_element(rng, n, 4)
        h = random_pure_element(rng, n, 2)
        k = random_non_pure_element(rng, n, 4)
        assert not g.acts_trivially()
        assert product_of((g, g.inverse(), h)).acts_trivially()
        assert_matches_oracle(theta, (g, g.inverse(), h, k))


# the letter sum against the word-path oracle


def test_tau1_matches_word_path_oracle():
    rng = random.Random(56)
    for k in range(48):
        n = rng.randint(2, 6)
        theta = random_custom(rng, n) if k % 2 else MagnusExpansion.standard(n, 2)
        g = random_non_pure_element(rng, n, 12)
        assert tau1(theta, g) == oracle_tau1(theta, g)


def test_tau1_on_alternating_powers_matches_word_path_oracle():
    rng = random.Random(57)
    for theta in (MagnusExpansion.standard(3, 2), random_custom(rng, 3)):
        for k in range(7):
            g = BraidWord(3, (1, -2) * k)
            assert tau1(theta, g) == oracle_tau1(theta, g)


def test_tau1_of_identity_matches_word_path_oracle():
    rng = random.Random(58)
    for theta in (MagnusExpansion.standard(4, 2), random_custom(rng, 4)):
        e = BraidWord.identity(4)
        assert tau1(theta, e) == oracle_tau1(theta, e) == HomTensor.zero(4, 2)


def test_tau1_is_a_function_of_the_braid_not_the_word():
    rng = random.Random(59)
    for _ in range(10):
        n = rng.randint(3, 5)
        tails = random_degree_two_tails(rng, n)
        beta = random_non_pure_element(rng, n, 8).letters
        i = rng.randint(1, n - 2)
        relator = (i, i + 1, i, -(i + 1), -i, -(i + 1))
        at = rng.randint(0, len(beta))
        spellings = (beta, beta[:at] + relator + beta[at:])
        elems = [BraidWord(n, w) for w in spellings]
        assert elems[0] == elems[1]
        for theta in (MagnusExpansion.standard(n, 2), MagnusExpansion(n, 2, tails)):
            first, second = (tau1(theta, g) for g in elems)
            assert first == second


def test_tau1_evaluates_no_word_value_of_theta(monkeypatch):
    # tau1 reads only theta.tails: no word value, no series inverse
    rng = random.Random(61)
    g = BraidWord(3, (1, -2) * 5)
    expansions = (MagnusExpansion.standard(3, 2), random_custom(rng, 3, cap=3))
    expected = [oracle_tau1(theta, g) for theta in expansions]
    seen = []
    monkeypatch.setattr(MagnusExpansion, "value", lambda self, word: seen.append(word))
    monkeypatch.setattr(magnus, "series_inverse", lambda v: seen.append(v))
    for theta, value in zip(expansions, expected):
        assert tau1(theta, g) == value
        tau1(theta, BraidWord(3, (-2, 1, 1, -2, -2)))
    assert seen == []


def oracle_letter_tau1(theta: MagnusExpansion, letter: int) -> HomTensor:
    """tau1(s_letter) by the defining formula in tensor arithmetic, column by
    column, on the images under the inverse letter."""
    n = theta.n
    inv = artin_action(BraidWord(n, (-letter,)))
    swap = permutation(BraidWord(n, (letter,)))
    cols = []
    for j in range(1, n + 1):
        base = theta.value(FreeWord.generator(n, j)).component(2)
        pulled = theta.value(inv.images[j - 1]).component(2)
        cols.append(base - pulled.act(swap))
    return HomTensor.from_columns(n, 2, tuple(cols))


def test_letter_tables_match_the_tensor_oracle():
    # tau1 of each single letter, inverse letters included, is its table
    rng = random.Random(60)
    for n in range(2, 7):
        expansions = (
            MagnusExpansion.standard(n, 2),
            MagnusExpansion.standard(n, 3),
            random_custom(rng, n),
            random_custom(rng, n, cap=3),
        )
        for theta in expansions:
            for letter in (l for i in range(1, n) for l in (i, -i)):
                assert tau1(theta, BraidWord(n, (letter,))) == oracle_letter_tau1(theta, letter)


def test_tau1_matches_word_path_oracle_at_cap_three():
    rng = random.Random(62)
    for k in range(24):
        n = rng.randint(2, 5)
        theta = random_custom(rng, n, cap=3) if k % 2 else MagnusExpansion.standard(n, 3)
        g = random_non_pure_element(rng, n, 8)
        assert tau1(theta, g) == oracle_tau1(theta, g)


def oracle_letter_sum(theta: MagnusExpansion, g: BraidWord) -> HomTensor:
    """tau1 as the plain letter sum: every letter's own table, an inverse
    letter's included, relabelled by the permutation of the letters before it."""
    n = theta.n
    total = HomTensor.zero(n, 2)
    perm = list(range(1, n + 1))
    for letter in g.letters:
        total = total + oracle_letter_tau1(theta, letter).conjugate(tuple(perm))
        i = abs(letter)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return total


def random_theta(rng: random.Random, n: int, k: int) -> MagnusExpansion:
    """Standard or seeded custom, at cap 2 or 3, by the low bits of k."""
    cap = 2 + (k // 2) % 2
    return random_custom(rng, n, cap=cap) if k % 2 else MagnusExpansion.standard(n, cap)


def test_inverse_letter_table_is_minus_the_swapped_generator_table():
    # tau1(s_i^-1) = -s_i . tau1(s_i): the identity that lets tau1 count
    # only the positive generators
    rng = random.Random(63)
    for n in range(2, 7):
        for k in range(4):
            theta = random_theta(rng, n, k)
            for i in range(1, n):
                swap = permutation(BraidWord.gen(n, i))
                inverse = oracle_letter_tau1(theta, -i)
                assert inverse == -oracle_letter_tau1(theta, i).conjugate(swap)


def test_tau1_on_band_products_matches_both_oracles():
    # the conjugating letters of each A(i,j)^+-1 cancel in the counts
    rng = random.Random(64)
    for k in range(24):
        n = rng.randint(2, 6)
        theta = random_theta(rng, n, k)
        g = BraidWord.identity(n)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n - 1)
            g = g * pure_gen_braid(n, i, rng.randint(i + 1, n)) ** rng.choice([-1, 1])
        if k % 3 == 0:  # a non-pure prefix moves every count
            g = random_non_pure_element(rng, n, 3) * g
        assert tau1(theta, g) == oracle_tau1(theta, g) == oracle_letter_sum(theta, g)


def test_tau1_through_free_cancellations_matches_both_oracles():
    rng = random.Random(65)
    for k in range(24):
        n = rng.randint(2, 6)
        theta = random_theta(rng, n, k)
        left, right = (random_braid_element(rng, n, 5).letters for _ in range(2))
        i = rng.randint(1, n - 1)
        g = BraidWord(n, left + ((i, -i) if k % 3 else (-i, i)) + right)
        value = tau1(theta, g)
        assert value == oracle_tau1(theta, g) == oracle_letter_sum(theta, g)
        assert value == tau1(theta, BraidWord(n, left + right))


MAGNUS_CALL_COUNT = """
import collections, sys
from braidcert import magnus
from braidcert.cli import main

calls = collections.Counter()
value, inverse = magnus.MagnusExpansion.value, magnus.series_inverse

def counting_value(self, word):
    calls["value"] += 1
    return value(self, word)

def counting_inverse(v):
    calls["series_inverse"] += 1
    return inverse(v)

magnus.MagnusExpansion.value = counting_value
magnus.series_inverse = counting_inverse
main(["check", "--suite", "expansion-independence", "--seed", "0"])
print(calls["value"], calls["series_inverse"], file=sys.stderr)
"""


def test_expansion_independence_evaluates_no_magnus_value():
    # a fresh process, so that the counts see the suite alone
    src = str(Path(braidcert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", MAGNUS_CALL_COUNT], capture_output=True, text=True, env=env, check=True
    )
    assert run.stderr.split() == ["0", "0"]


def test_tau1_rank_guard_comes_before_any_letter_value(monkeypatch):
    # both spellings are non-pure, so tau1 would read the tails if it got that far
    def unreachable(theta):
        raise AssertionError("theta.tails was read")

    theta3, theta4 = MagnusExpansion.standard(3, 2), MagnusExpansion.standard(4, 2)
    monkeypatch.setattr(MagnusExpansion, "tails", property(unreachable), raising=False)
    for theta, g in ((theta4, BraidWord(3, (1, -2))), (theta3, BraidWord(4, (1, 2)))):
        with pytest.raises(ValueError, match="element rank does not match expansion rank"):
            tau1(theta, g)


def test_tau1_rank_guard_holds_for_the_letters_of_a_cached_value():
    # a 4-strand word spelled like a 3-strand word already evaluated must
    # still be refused: nothing learnt from the letters may skip the guard
    theta3 = MagnusExpansion.standard(3, 2)
    tau1(theta3, BraidWord(3, (1, 2)))
    with pytest.raises(ValueError, match="element rank does not match expansion rank"):
        tau1(theta3, BraidWord(4, (1, 2)))


def test_tau1_keeps_nothing_per_word():
    rng = random.Random(67)
    theta = random_custom(rng, 4)
    words = set()
    while len(words) < 5000:
        words.add(tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(12)))
    elements = [BraidWord(4, w) for w in sorted(words)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for g in elements:
            tau1(theta, g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20


# expansions may differ, the cocycle may not (on pure braids)


def test_tau1_is_expansion_independent_on_pure_braids():
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(2, 4)
        std = MagnusExpansion.standard(n, 2)
        custom = random_custom(rng, n)
        g = random_pure_element(rng, n)
        assert tau1(custom, g) == tau1(std, g)


def random_tails(rng: random.Random, n: int, cap: int) -> list[TruncatedTensor]:
    """Fraction tails with terms of every degree from 2 to cap."""
    return [
        TruncatedTensor(n, cap, {
            idx: F(rng.randint(-3, 3), rng.randint(1, 3))
            for m in range(2, cap + 1)
            for idx in iter_product(range(1, n + 1), repeat=m)
            if rng.random() < 0.3
        })
        for _ in range(n)
    ]


def test_tau1_changes_with_the_expansion_by_the_tail_coboundary():
    # tau1_theta(g) - tau1_std(g) = T - g.T, T the map X_j -> theta_2(x_j),
    # on the defining formula, for pure and non-pure g
    rng = random.Random(66)
    moved = 0
    for k in range(32):
        n, cap = rng.randint(2, 5), 2 + k % 2
        theta = MagnusExpansion(n, cap, random_tails(rng, n, cap))
        std = MagnusExpansion.standard(n, cap)
        tails = HomTensor.from_columns(n, 2, [
            theta.value(FreeWord.generator(n, j)).component(2) for j in range(1, n + 1)
        ])
        g = random_pure_element(rng, n, 3) if k % 4 < 2 else random_non_pure_element(rng, n, 8)
        change = tails - tails.conjugate(g.perm)
        assert oracle_tau1(theta, g) - oracle_tau1(std, g) == change
        assert tau1(theta, g) == oracle_tau1(theta, g)
        moved += not change.is_zero()
    assert moved >= 12  # most non-pure g move the tails


def test_tau1_does_depend_on_expansion_off_pure_braids():
    # a witness that the previous test is not vacuous
    n = 2
    std = MagnusExpansion.standard(n, 2)
    custom = MagnusExpansion(
        n, 2, [TruncatedTensor(n, 2, {(1, 1): 1}), TruncatedTensor.zero(n, 2)]
    )
    g = BraidWord.gen(2, 1)
    assert tau1(custom, g) != tau1(std, g)


# product groups and block operations


def layout_2_2():
    return block_layout((2, 2), 4)


def random_product_element(rng: random.Random, layout) -> BraidWord:
    """A random pure braid per block, their letters shuffled into one ambient word."""
    words = [
        list(e.apply(random_pure_element(rng, e.size)).letters)
        for e in layout
        if e.size > 1
    ]
    letters = []
    while any(words):
        letters.append(rng.choice([w for w in words if w]).pop(0))
    return BraidWord(layout[0].ambient, tuple(letters))


def projection(k: int, layout):
    """The projection to block k, read off the pullback of the tautological 1-cochain."""
    n = layout[0].ambient
    return projection_pullback(Cochain(1, n, lambda: None, lambda g: g), k, layout)


def test_product_element_acts_through_embedded_product():
    # the projections of a block-product element multiply back to it
    rng = random.Random(52)
    for layout in (layout_2_2(), block_layout((1, 3, 2), 6)):
        projs = [projection(k, layout) for k in range(len(layout))]
        for _ in range(10):
            g = random_product_element(rng, layout)
            pieces = [proj(g) for proj in projs]
            assert reduce(lambda a, b: a * b, pieces) == g
            assert reduce(lambda a, b: a * b, reversed(pieces)) == g  # blocks commute


def test_projection_is_a_homomorphism():
    rng = random.Random(55)
    for layout in (layout_2_2(), block_layout((1, 3, 2), 6)):
        for k in range(len(layout)):
            proj = projection(k, layout)
            for _ in range(6):
                g = random_product_element(rng, layout)
                h = random_product_element(rng, layout)
                assert proj(g * h) == proj(g) * proj(h)


def test_projection_rejects_a_letter_crossing_blocks():
    layout = layout_2_2()
    proj = projection(0, layout)
    for letters in ((2,), (1, -2), (3, 2)):
        with pytest.raises(ValueError):
            proj(BraidWord(4, letters))
    with pytest.raises(ValueError):
        projection(1, block_layout((1, 3, 2), 6))(BraidWord.gen(6, 1))


def test_block_restrict_is_additive_over_projections():
    # restricting hp to a product of blocks splits as a sum over the blocks
    rng = random.Random(53)
    theta = MagnusExpansion.standard(4, 2)
    layout = layout_2_2()
    for p in (1, 2):
        total = hp_cochain(theta, p)
        parts = [
            projection_pullback(hp_cochain(theta, p), k, layout) for k in range(2)
        ]
        for _ in range(6):
            es = tuple(random_product_element(rng, layout) for _ in range(p))
            assert total(*es) == parts[0](*es) + parts[1](*es)


def test_mixed_block_composites_vanish_identically():
    # nesting factors pulled back from different blocks kills every term
    rng = random.Random(54)
    theta = MagnusExpansion.standard(4, 2)
    layout = layout_2_2()
    t = tau1_cochain(theta)
    mixed = composite_cochain(
        [projection_pullback(t, 0, layout), projection_pullback(t, 1, layout)]
    )
    for _ in range(10):
        es = tuple(random_product_element(rng, layout) for _ in range(2))
        assert mixed(*es).is_zero()


def test_group_element_equality_ignores_spelling():
    a = BraidWord(3, (1, 2, 1))
    b = BraidWord(3, (2, 1, 2))
    assert a == b and hash(a) == hash(b)


def test_full_twist_acts_trivially_on_homology():
    for n in (2, 3, 4):
        g = full_twist(n, n)
        assert g.acts_trivially() and not g.is_identity


# the braid word is the element: equality against the eager automorphism path


def respelled(rng: random.Random, beta: BraidWord) -> BraidWord:
    """The same element of B_n, with a relator inserted at a random position."""
    n, letters = beta.n, beta.letters
    i = rng.randint(1, n - 1)
    relators = [(i, -i), (-i, i)]
    if n >= 3:
        k = rng.randint(1, n - 2)
        relators.append((k, k + 1, k, -(k + 1), -k, -(k + 1)))
    if n >= 4:
        k = rng.randint(1, n - 3)
        j = rng.randint(k + 2, n - 1)
        relators.append((k, j, -k, -j))
    at = rng.randint(0, len(letters))
    return BraidWord(n, letters[:at] + rng.choice(relators) + letters[at:])


def test_element_equality_matches_the_eager_automorphism_path():
    # respellings through every relator kind, random pairs and mixed ranks
    rng = random.Random(60)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        a = random_braid_element(rng, n, 5)
        b = rng.choice([
            respelled(rng, a),
            respelled(rng, respelled(rng, a.inverse())).inverse(),
            random_braid_element(rng, n, 5),
            random_braid_element(rng, rng.randint(2, 7), 5),
        ])
        equal = artin_action(a).images == artin_action(b).images
        assert (a == b) == equal
        if equal:
            assert hash(a) == hash(b)
        outcomes.add((equal, a.n == b.n))
        identity = identity_map(a.n)
        assert a.inverse().aut.compose(artin_action(a)) == identity
        assert artin_action(a).compose(a.inverse().aut) == identity
        if a.n == b.n:
            assert (a * b).aut == artin_action(a).compose(artin_action(b))
        else:
            with pytest.raises(ValueError, match="strand count mismatch"):
                a * b
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_commutes_with_matches_composed_automorphisms_on_bands_and_twists():
    pairs = 0
    for n in range(3, 8):
        elems = [pure_gen_braid(n, i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        elems += [full_twist(n, k) for k in range(2, n + 1)]
        maps = [g.aut for g in elems]
        for g, f in zip(elems, maps):
            for h, k in zip(elems, maps):
                assert g.commutes_with(h) == (f.compose(k) == k.compose(f))
                pairs += 1
    assert pairs == 1431


def test_is_identity_matches_the_identity_automorphism():
    rng = random.Random(63)
    seen = set()
    for _ in range(200):
        n = rng.randint(2, 7)
        w = random_braid_element(rng, n, 6)
        g = rng.choice([w, respelled(rng, w * w.inverse()), respelled(rng, BraidWord.identity(n))])
        expected = g.aut == identity_map(n)
        assert g.is_identity == expected
        seen.add(expected)
    assert seen == {True, False}


def test_only_xi_builds_automorphisms(monkeypatch, capsys):
    built: list = []
    original = braids.artin_action

    def recording(beta):
        built.append(beta)
        return original(beta)

    for module in [m for name, m in sys.modules.items() if name.startswith("braidcert")]:
        if getattr(module, "artin_action", None) is original:
            monkeypatch.setattr(module, "artin_action", recording)
    compose = EndoMap.compose
    monkeypatch.setattr(EndoMap, "compose", lambda f, g: built.append(g) or compose(f, g))
    rng = random.Random(61)
    g = BraidWord(4, tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(30)))
    tau1(MagnusExpansion.standard(4, 2), g)
    for suite in ("lemmas", "cocycle", "primitivity", "expansion-independence"):
        assert run_suite(suite).passed
        assert built == [], suite
    certify._commuting_tuples.cache_clear()
    certify._block_traces.cache_clear()
    assert certify.certificate(8, 4).passed
    assert parse_cycle("cross:{3:torus:A(1,2)|twist(3)}{2:torus:A(1,2)}", 5)
    for argv in (
        ["braid-eq", "--n", "3", "s1 s2 s1", "s2 s1 s2"],
        ["pair", "--n", "4", "--p", "2", "torus:A(1,2)|A(3,4)"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert built == []
    assert cli.main(["xi", "--n", "3", "s1 s2"]) == 0
    assert built


