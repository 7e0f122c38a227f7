"""Bar chains, torus cycles, shuffles, and the pairing with cochains.

The load-bearing consistency facts: the shuffle of torus cycles is the
torus cycle of the combined family, and the pairing turns coboundaries
into zero on cycles and cocycles into zero on boundaries.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from braidcert import chains as chains_module
from braidcert.braids import BraidWord, full_twist, pure_gen_braid
from braidcert.chains import (
    BarChain,
    _shuffles,
    embed_chain,
    is_degenerate,
    pair,
    parse_cycle,
    shuffle,
    torus_cycle,
)
from braidcert.cochains import (
    BlockEmbedding,
    Cochain,
    hbar_cochain,
    hp_cochain,
    tau1_cochain,
    coboundary,
)
from braidcert.magnus import MagnusExpansion
from braidcert.tensors import TruncatedTensor
from braidcert.words import GrammarError

F = Fraction


def band(n: int, i: int, j: int) -> BraidWord:
    return pure_gen_braid(n, i, j)


def twist(n: int, k: int) -> BraidWord:
    return full_twist(n, k)


def random_pure(rng: random.Random, n: int, max_gens: int = 3) -> BraidWord:
    beta = BraidWord.identity(n)
    for _ in range(rng.randrange(max_gens + 1)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        beta = beta * pure_gen_braid(n, i, j) ** rng.choice([-1, 1])
    return beta


# chain basics


def test_boundary_of_a_pair():
    g, h = band(3, 1, 2), band(3, 1, 3)
    z = BarChain(2, {(g, h): F(1)})
    got = z.boundary()
    want = BarChain(1, {(h,): F(1), (g * h,): F(-1), (g,): F(1)})
    assert got == want


def test_degenerate_tuples_are_dropped():
    g = band(3, 1, 2)
    e = BraidWord.identity(3)
    assert BarChain(2, {(g, e): F(1)}).is_zero()
    assert BarChain(2, {(g, g.inverse()): F(1)}).boundary() == BarChain(
        1, {(g,): F(1), (g.inverse(),): F(1)}
    )  # the merged middle term g g^-1 = identity drops out


def test_chain_coefficients_are_exact_and_int_when_integral():
    g = band(3, 1, 2)
    z = BarChain(1, {(g,): F(4, 2)})
    assert type(z.terms[(g,)]) is int and z.terms[(g,)] == 2
    assert type(BarChain(1, {(g,): F(1, 2)}).terms[(g,)]) is Fraction
    assert all(type(c) is int for c in torus_cycle([g, band(3, 1, 2) * g]).terms.values())
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            BarChain(1, {(g,): bad})
        with pytest.raises(TypeError):
            bad * z


def test_boundary_squares_to_zero():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(2, 4)
        p = rng.randint(2, 3)
        terms = {
            tuple(random_pure(rng, n) for _ in range(p)): F(rng.randint(-2, 2))
            for _ in range(3)
        }
        z = BarChain(p, terms)
        assert z.boundary().boundary().is_zero()


# torus cycles


def test_torus_of_two_elements():
    a, b = band(3, 1, 2), twist(3, 3)
    z = torus_cycle([a, b])
    assert z == BarChain(2, {(a, b): F(1), (b, a): F(-1)})
    assert z.is_cycle()


def test_torus_rejects_noncommuting_elements():
    with pytest.raises(ValueError):
        torus_cycle([band(3, 1, 2), band(3, 1, 3)])


def test_torus_with_repeated_element_vanishes():
    a = band(3, 1, 2)
    assert torus_cycle([a, a]).is_zero()


def test_torus_of_three_has_six_signed_terms():
    a, b, c = band(4, 1, 2), twist(4, 3), twist(4, 4)
    z = torus_cycle([a, b, c])
    assert len(z.terms) == 6
    assert z.terms[(a, b, c)] == 1
    assert z.terms[(b, a, c)] == -1
    assert z.is_cycle()


# shuffles


def oracle_shuffles(p: int, q: int):
    """The interleavings of 0..p-1 with p..p+q-1, each with its inversion count,
    built recursively one leading entry at a time."""
    def go(a: int, b: int):
        if a == p and b == q:
            yield (), 0
            return
        if a < p:
            for rest, inv in go(a + 1, b):
                yield (a,) + rest, inv
        if b < q:
            for rest, inv in go(a, b + 1):
                # p + b jumps ahead of the p - a remaining left entries
                yield (p + b,) + rest, inv + (p - a)
    yield from go(0, 0)


def test_shuffles_match_recursive_oracle():
    for p in range(5):
        for q in range(5):
            want = {order: -1 if inv % 2 else 1 for order, inv in oracle_shuffles(p, q)}
            got = list(_shuffles(p, q))
            assert len(got) == len(want)
            assert dict(got) == want


def test_shuffle_with_unit_is_neutral():
    a = band(3, 1, 2)
    z = torus_cycle([a])
    unit = BarChain(0, {(): 1})
    assert shuffle(unit, z) == z
    assert shuffle(z, unit) == z


def test_shuffle_of_tori_is_torus_of_union():
    a, b, c = band(4, 1, 2), twist(4, 3), twist(4, 4)
    assert shuffle(torus_cycle([a]), torus_cycle([b])) == torus_cycle([a, b])
    assert shuffle(torus_cycle([a, b]), torus_cycle([c])) == torus_cycle([a, b, c])
    assert shuffle(torus_cycle([a]), torus_cycle([b, c])) == torus_cycle([a, b, c])


def random_commuting_set(rng: random.Random, n: int) -> list[BraidWord]:
    """Pairwise commuting elements on n >= 2 strands.

    The strands are cut into consecutive blocks; each block of two or more
    strands offers a band power, the block's full twist (central in the
    block) and their inverses.  Some draws add a repeat or the identity.
    """
    pool = []
    offset = 0
    while n - offset >= 2:
        size = rng.randint(2, n - offset)
        i = rng.randint(1, size - 1)
        j = rng.randint(i + 1, size)
        for beta in (pure_gen_braid(size, i, j) ** rng.choice([1, 2]), full_twist(size, size)):
            g = BlockEmbedding(offset, size, n).apply(beta)
            pool += [g, g.inverse()]
        offset += size
    pool = list(dict.fromkeys(pool))  # on two strands the band may be the twist
    elems = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
    extra = rng.choice(["none", "none", "none", "none", "repeat", "identity"])
    if extra == "repeat":
        elems.append(rng.choice(elems))
    elif extra == "identity":
        elems.append(BraidWord.identity(n))
    rng.shuffle(elems)
    return elems


def test_tori_and_their_shuffles_are_cycles_on_random_commuting_sets():
    rng = random.Random(64)
    for _ in range(60):
        elems = random_commuting_set(rng, rng.randint(2, 6))
        z = torus_cycle(elems)
        assert z.is_cycle()
        k = rng.randint(0, len(elems))
        product = shuffle(torus_cycle(elems[:k]), torus_cycle(elems[k:]))
        assert product.is_cycle()
        assert product == z


def test_degenerate_torus_is_zero_without_enumerating_orderings(monkeypatch):
    # a repeat cancels against its transposed twin and the identity is dropped,
    # as the shuffle reference computes term by term
    a, b = band(4, 1, 2), twist(4, 3)
    one = BraidWord.identity(4)
    expected = [shuffle(torus_cycle([a]), torus_cycle([a, b])),
                shuffle(torus_cycle([one]), torus_cycle([b]))]
    monkeypatch.setattr(chains_module, "permutations", None)
    got = [torus_cycle([a, a, b]), torus_cycle([one, b])]
    assert got == expected == [BarChain(3), BarChain(2)]


def test_zero_rule_matches_the_enumerated_torus_on_random_commuting_sets(monkeypatch):
    # without the rule torus_cycle sums every ordering, and the sum is zero
    # exactly on the sets that the rule calls degenerate
    rng = random.Random(67)
    sets = [random_commuting_set(rng, rng.randint(2, 6)) for _ in range(60)]
    rule = [is_degenerate(elems) for elems in sets]
    monkeypatch.setattr(chains_module, "is_degenerate", lambda elems: False)
    assert rule == [torus_cycle(elems).is_zero() for elems in sets]
    assert 5 <= sum(rule) < len(rule)


def test_shuffle_is_associative():
    a, b, c = band(4, 1, 2), twist(4, 3), twist(4, 4)
    z1, z2, z3 = (torus_cycle([g]) for g in (a, b, c))
    assert shuffle(shuffle(z1, z2), z3) == shuffle(z1, shuffle(z2, z3))


def test_shuffle_rejects_noncommuting_supports():
    with pytest.raises(ValueError):
        shuffle(torus_cycle([band(3, 1, 2)]), torus_cycle([band(3, 1, 3)]))


def test_commutes_with_agrees_with_products_on_random_pairs():
    rng = random.Random(66)
    seen = set()
    for _ in range(30):
        n = rng.randint(3, 6)
        elems = random_commuting_set(rng, n)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(4))
        pool = elems + [g.inverse() for g in elems] + [
            BraidWord.identity(n),
            band(n, 1, 2),
            band(n, 1, 3),
            random_pure(rng, n),
            BraidWord(n, letters),
        ]
        for i, a in enumerate(pool):
            for b in pool[i:]:
                got = a.commutes_with(b)
                assert got == (a * b == b * a)
                assert b.commutes_with(a) == got
                seen.add(got)
    assert seen == {True, False}
    with pytest.raises(ValueError):
        band(3, 1, 2).commutes_with(band(4, 1, 2))


# embeddings


def test_embed_chain_maps_elements():
    z = torus_cycle([band(2, 1, 2)])
    got = embed_chain(z, BlockEmbedding(1, 2, 4))
    assert got == torus_cycle([band(4, 2, 3)])


# pairing


def test_pairing_of_hbar1_with_band_torus():
    theta = MagnusExpansion.standard(2, 2)
    z = torus_cycle([band(2, 1, 2)])
    got = pair(hbar_cochain(theta, 1), z)
    assert got == TruncatedTensor(2, 1, {(1,): 1, (2,): 1})


def test_pairing_kills_coboundaries_on_cycles():
    rng = random.Random(62)
    theta = MagnusExpansion.standard(4, 2)
    # an arbitrary 1-cochain with the right value type, not a cocycle
    def value(g):
        t = TruncatedTensor(4, 2, hbar_cochain(theta, 1)(g).terms)  # lifted to cap 2
        return t * t + hbar_cochain(theta, 2)(g, g)

    v = Cochain(1, 4, lambda: TruncatedTensor.zero(4, 2), value)
    a, b, c = band(4, 1, 2), twist(4, 3), twist(4, 4)
    for za in ([a, b], [a, c], [b, c]):
        assert pair(coboundary(v), torus_cycle(za)).is_zero()


def test_pairing_kills_cocycles_on_boundaries():
    rng = random.Random(63)
    theta = MagnusExpansion.standard(3, 2)
    u = hbar_cochain(theta, 1)
    for _ in range(10):
        w = BarChain(2, {
            (random_pure(rng, 3), random_pure(rng, 3)): F(rng.randint(-2, 2))
            for _ in range(2)
        })
        assert pair(u, w.boundary()).is_zero()


def test_pairing_refuses_nontrivial_action():
    theta = MagnusExpansion.standard(2, 2)
    z = BarChain(1, {(BraidWord.gen(2, 1),): F(1)})
    with pytest.raises(ValueError):
        pair(hbar_cochain(theta, 1), z)


def test_pairing_degree_guard():
    theta = MagnusExpansion.standard(2, 2)
    with pytest.raises(ValueError):
        pair(hbar_cochain(theta, 2), torus_cycle([band(2, 1, 2)]))


# grammar


def test_parse_torus_single():
    assert parse_cycle("torus:A(1,2)", 2) == (band(2, 1, 2),)


def test_parse_torus_two_factors():
    assert parse_cycle("torus: A(1,2) | twist(3)", 3) == (band(3, 1, 2), twist(3, 3))


def test_parse_cross_of_tori():
    elems = parse_cycle("cross:{2:torus:A(1,2)}{2:torus:A(1,2)}", 4)
    assert elems == (band(4, 1, 2), band(4, 3, 4))


def test_parse_three_level_cross_is_torus_of_union():
    text = "cross:{5:cross:{3:cross:{3:torus:A(1,3)|twist(3)}}{2:torus:A(1,2)}}{2:torus:A(1,2)^-1}"
    union = [band(7, 1, 3), twist(7, 3), band(7, 4, 5), band(7, 6, 7).inverse()]
    elems = parse_cycle(text, 7)
    assert elems == tuple(union)
    assert len(torus_cycle(elems).terms) == 24
    # nested in the later blocks, so each offset accumulates over two levels
    text = ("cross:{2:torus:A(1,2)}"
            "{6:cross:{2:torus:A(1,2)}{4:cross:{2:torus:twist(2)}{2:torus:A(1,2)}}}")
    elems = parse_cycle(text, 8)
    assert elems == (band(8, 1, 2), band(8, 3, 4), band(8, 5, 6), band(8, 7, 8))
    # the shuffle of the embedded block tori is the reference
    block = torus_cycle([band(2, 1, 2)])
    a, b, c, d = (embed_chain(block, BlockEmbedding(k, 2, 8)) for k in (0, 2, 4, 6))
    assert torus_cycle(elems) == shuffle(shuffle(shuffle(a, b), c), d)


@pytest.mark.parametrize("text, union", [
    # a torus of the identity
    ("cross:{2:torus:}{2:torus:A(1,2)}", [BraidWord.identity(4), pure_gen_braid(4, 3, 4)]),
    # one element twice, spelled two ways, beside a torus of the identity
    ("cross:{3:torus:A(1,2)|s1 s1}{1:torus:}",
     [pure_gen_braid(4, 1, 2), BraidWord(4, (1, 1)), BraidWord.identity(4)]),
    ("cross:{2:torus:A(1,2)|A(1,2)}{2:torus:A(1,2)}",
     [pure_gen_braid(4, 1, 2)] * 2 + [pure_gen_braid(4, 3, 4)]),
])
def test_parse_cross_with_degenerate_torus_is_torus_of_union(text, union):
    elems = parse_cycle(text, 4)
    assert elems == tuple(union)
    assert is_degenerate(elems)
    assert torus_cycle(elems) == BarChain(len(union))


def test_parse_cross_nested_sizes_must_fit():
    with pytest.raises(GrammarError):
        parse_cycle("cross:{3:torus:twist(3)}{2:torus:A(1,2)}", 4)


@pytest.mark.parametrize("size", ["0", "-1"])
def test_parse_cross_block_size_below_one_is_grammar_error(size):
    with pytest.raises(GrammarError) as exc:
        parse_cycle(f"cross:{{{size}:torus:}}", 3)
    assert exc.value.position == len("cross:{")
    assert str(exc.value) == f"bad block size '{size}' (at position 7)"


@pytest.mark.parametrize("size", ["+3", "3_0", "\u0663", "\uff13"])
def test_parse_cross_block_size_must_be_ascii_decimal(size):
    with pytest.raises(GrammarError) as exc:
        parse_cycle(f"cross:{{{size}:torus:}}", 3)
    assert exc.value.position == len("cross:{")
    assert str(exc.value) == f"bad block size {size!r} (at position 7)"


@pytest.mark.parametrize("text", ["cross:{ 2 :torus:A(1,2)}", "cross:{\t2\n:torus:A(1,2)}"])
def test_parse_cross_block_size_may_be_padded_with_whitespace(text):
    assert parse_cycle(text, 3) == parse_cycle("cross:{2:torus:A(1,2)}", 3)


def test_parse_cycle_bad_prefix():
    with pytest.raises(GrammarError):
        parse_cycle("loop:A(1,2)", 2)


def test_parse_torus_noncommuting_is_grammar_error():
    with pytest.raises(GrammarError):
        parse_cycle("torus:A(1,2)|A(1,3)", 3)


def test_parse_cycle_reports_inner_braid_position():
    with pytest.raises(GrammarError) as exc:
        parse_cycle("torus:A(1,2)|zzz", 3)
    assert exc.value.position == len("torus:A(1,2)|")
