"""Braid action conventions and pure braid machinery.

The action on F_n and the Dynnikov coordinates are pinned on generators by
frozen values; everything else is cross-checked between independent code
paths (permutations against exponent sums of the free group images,
embeddings against free group embeddings).
"""

from __future__ import annotations

import random
import time

import pytest

from braidcert.braids import (
    BraidWord,
    _letter_action,
    artin_action,
    dynnikov,
    format_braid,
    full_twist,
    parse_braid,
    permutation,
    pure_gen_braid,
)
from braidcert.cochains import BlockEmbedding
from braidcert.words import EndoMap, FreeWord, GrammarError


def random_braid(rng: random.Random, n: int, max_len: int) -> BraidWord:
    length = rng.randrange(max_len + 1)
    return BraidWord(
        n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    )


# frozen action values


def test_action_of_elementary_generator():
    phi = artin_action(BraidWord(2, (1,)))
    assert phi.images[0] == FreeWord(2, (2,))
    assert phi.images[1] == FreeWord(2, (-2, 1, 2))


def test_action_of_inverse_generator():
    phi = artin_action(BraidWord(2, (-1,)))
    assert phi.images[0] == FreeWord(2, (1, 2, -1))
    assert phi.images[1] == FreeWord(2, (1,))


def test_action_fixes_far_generators():
    phi = artin_action(BraidWord(4, (1,)))
    assert phi.images[2] == FreeWord.generator(4, 3)
    assert phi.images[3] == FreeWord.generator(4, 4)


def test_dynnikov_coordinates_of_single_letters():
    # s_i moves the pairs i and i + 1 of (0, 1, ..., 0, 1); s_i^-1 mirrors the a's
    frozen = {
        (2, (1,)): (1, 0, 0, 2),
        (2, (-1,)): (-1, 0, 0, 2),
        (2, (1, 1)): (1, -1, 0, 3),
        (3, (2,)): (0, 1, 1, 0, 0, 2),
        (3, (-2,)): (0, 1, -1, 0, 0, 2),
        (3, (1, -2)): (1, 0, -2, 0, 0, 3),
        (4, (3,)): (0, 1, 0, 1, 1, 0, 0, 2),
    }
    for (n, letters), vector in frozen.items():
        assert dynnikov(BraidWord(n, letters)) == vector
    assert dynnikov(BraidWord.identity(3)) == (0, 1, 0, 1, 0, 1)


def test_action_preserves_product_of_generators():
    # the product x_1 ... x_n is fixed by every braid
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 5)
        beta = random_braid(rng, n, 10)
        w = FreeWord(n, tuple(range(1, n + 1)))
        assert artin_action(beta)(w) == w


# relations


def test_braid_relation():
    for n in range(3, 7):
        for i in range(1, n - 1):
            lhs = BraidWord(n, (i, i + 1, i))
            rhs = BraidWord(n, (i + 1, i, i + 1))
            assert lhs == rhs


def test_far_commutation():
    for n in range(4, 7):
        for i in range(1, n):
            for j in range(i + 2, n):
                ab = BraidWord(n, (i, j))
                ba = BraidWord(n, (j, i))
                assert ab == ba


def test_generator_cancels_its_inverse():
    assert BraidWord(3, (1, -1)) == BraidWord.identity(3)
    assert BraidWord(3, (1,)) != BraidWord.identity(3)


def test_braid_word_compares_and_hashes_as_a_braid():
    assert BraidWord(3, (1, -1)) == BraidWord.identity(3)
    a, b = BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))
    assert a == b and hash(a) == hash(b) and a.letters != b.letters
    assert len({a, b}) == 1
    assert BraidWord(3, ()) != BraidWord(4, ())
    assert BraidWord(3, (1,)) != (1,)


def test_action_is_a_homomorphism():
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(2, 5)
        a, b = random_braid(rng, n, 6), random_braid(rng, n, 6)
        assert artin_action(a * b) == artin_action(a).compose(artin_action(b))


# permutations


def exponent_sum_matrix(endo: EndoMap) -> tuple[tuple[int, ...], ...]:
    """The matrix on H = Z^n with column j the exponent sums of the image of x_j."""
    n = endo.n
    cols = []
    for w in endo.images:
        col = [0] * n
        for letter in w.letters:
            col[abs(letter) - 1] += 1 if letter > 0 else -1
        cols.append(col)
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


def permutation_matrix(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(perm)
    return tuple(tuple(1 if perm[c] == r + 1 else 0 for c in range(n)) for r in range(n))


def test_permutation_matches_induced_matrix():
    # the relabelling X_i -> X_{perm[i-1]} is the action on homology: entry
    # swaps against abelianised substitution, for the map and its inverse
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(2, 6)
        beta = random_braid(rng, n, 8)
        perm = permutation(beta)
        inverse = tuple(sorted(range(1, n + 1), key=lambda i: perm[i - 1]))
        assert exponent_sum_matrix(artin_action(beta)) == permutation_matrix(perm)
        assert exponent_sum_matrix(artin_action(beta.inverse())) == permutation_matrix(inverse)
        assert inverse == permutation(beta.inverse())


def test_permutation_of_single_generator_is_transposition():
    assert permutation(BraidWord(3, (1,))) == (2, 1, 3)
    assert permutation(BraidWord(3, (-2,))) == (1, 3, 2)


def test_purity_is_stable_under_conjugation():
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randint(2, 5)
        pure = pure_gen_braid(n, 1, rng.randint(2, n))
        beta = random_braid(rng, n, 6)
        assert permutation(beta * pure * beta.inverse()) == tuple(range(1, n + 1))


# distinguished pure braids


def test_band_generator_adjacent_case():
    assert pure_gen_braid(4, 2, 3).letters == (2, 2)


def test_band_generator_spelling():
    assert pure_gen_braid(4, 1, 3).letters == (2, 1, 1, -2)
    assert pure_gen_braid(4, 1, 4).letters == (3, 2, 1, 1, -2, -3)


def test_band_generators_are_pure():
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert permutation(pure_gen_braid(n, i, j)) == tuple(range(1, n + 1))


def test_full_twist_is_pure_and_central_on_its_block():
    for n in range(2, 6):
        for k in range(2, n + 1):
            tw = full_twist(n, k)
            assert permutation(tw) == tuple(range(1, n + 1))
            for i in range(1, k):
                s = BraidWord.gen(n, i)
                assert tw * s == s * tw


def test_full_twist_of_two_strands_is_band_generator():
    assert full_twist(3, 2) == pure_gen_braid(3, 1, 2)


def test_disjoint_and_nested_band_generators_commute():
    a, b = pure_gen_braid(4, 1, 2), pure_gen_braid(4, 3, 4)
    assert a * b == b * a
    outer, inner = pure_gen_braid(4, 1, 4), pure_gen_braid(4, 2, 3)
    assert outer * inner == inner * outer


def test_linked_band_generators_do_not_commute():
    a, b = pure_gen_braid(3, 1, 2), pure_gen_braid(3, 1, 3)
    assert a * b != b * a


# embeddings


def embed_endo(phi: EndoMap, offset: int, ambient: int) -> EndoMap:
    """Oracle: extend phi by the identity outside the generator block at offset."""
    images = [FreeWord.generator(ambient, i) for i in range(1, ambient + 1)]
    for i, w in enumerate(phi.images):
        shifted = tuple(l + offset if l > 0 else l - offset for l in w.letters)
        images[offset + i] = FreeWord(ambient, shifted)
    return EndoMap(ambient, tuple(images))


def test_embed_matches_free_group_embedding():
    rng = random.Random(35)
    for _ in range(30):
        m = rng.randint(2, 4)
        ambient = m + rng.randint(0, 2)
        offset = rng.randint(0, ambient - m)
        beta = random_braid(rng, m, 6)
        lhs = BlockEmbedding(offset, m, ambient).apply(beta).aut
        rhs = embed_endo(artin_action(beta), offset, ambient)
        assert lhs == rhs


# grammar


def test_parse_elementary_tokens():
    assert parse_braid("s1 s2^-1", 3).letters == (1, -2)
    assert parse_braid("", 3).letters == ()


def test_parse_band_and_twist_tokens():
    assert parse_braid("A(1,3)", 4).letters == (2, 1, 1, -2)
    assert parse_braid("twist(3)", 4).letters == (1, 2) * 3
    assert parse_braid("A(1,2)^-1", 3).letters == (-1, -1)


def test_parse_inverse_of_composite_token():
    beta = parse_braid("twist(3)^-1", 3)
    assert parse_braid("twist(3)", 3) * beta == BraidWord.identity(3)


def test_parse_rejects_bad_tokens_with_position():
    with pytest.raises(GrammarError) as exc:
        parse_braid("s1 q7", 3)
    assert exc.value.position == 3
    with pytest.raises(GrammarError):
        parse_braid("s3", 3)  # only two generators on three strands
    with pytest.raises(GrammarError):
        parse_braid("A(2,2)", 3)
    with pytest.raises(GrammarError):
        parse_braid("twist(5)", 3)


def test_format_round_trips():
    rng = random.Random(36)
    for _ in range(20):
        beta = random_braid(rng, 4, 8)
        assert parse_braid(format_braid(beta), 4).letters == beta.letters


def random_tokens(rng: random.Random, n: int, count: int) -> list[str]:
    """count tokens of every kind of the braid grammar, each maybe inverted."""
    tokens = []
    for _ in range(count):
        i = rng.randint(1, n - 1)
        token = rng.choice([f"s{i}", f"A({i},{rng.randint(i + 1, n)})", f"twist({i + 1})"])
        tokens.append(token + rng.choice(["", "^-1"]))
    return tokens


def test_parse_matches_the_piecewise_product():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 12)
        tokens = random_tokens(rng, n, rng.randint(0, 12))
        product = BraidWord.identity(n)
        for token in tokens:
            product = product * parse_braid(token, n)
        assert parse_braid(" ".join(tokens), n).letters == product.letters


def test_parse_is_linear_in_the_token_count():
    # a product per token re-checks the whole word each time: 4,000 tokens
    # took 376 ms that way, and 20,000 would take ~25 times as long
    tokens = random_tokens(random.Random(38), 5, 20_000)
    start = time.perf_counter()
    beta = parse_braid("\n".join(tokens), 5)
    assert time.perf_counter() - start < 1
    assert len(beta.letters) == sum(len(parse_braid(token, 5).letters) for token in tokens)


def test_format_matches_the_token_oracle_at_every_rank():
    rng = random.Random(39)
    for n in (2, 3, 9, 10, 11, 25, 120):
        beta = random_braid(rng, n, 40)
        expected = " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in beta.letters)
        assert format_braid(beta) == str(beta) == expected


# the inverse automorphism is the action of the inverse word


def test_letter_maps_compose_with_inverse_letter_maps_to_the_identity():
    for n in range(2, 9):
        for i in range(1, n):
            f, g = _letter_action(n, i), _letter_action(n, -i)
            assert f.compose(g) == g.compose(f) == EndoMap.identity(n)


def assert_mutually_inverse(beta: BraidWord) -> None:
    f, g = artin_action(beta), artin_action(beta.inverse())
    assert f.compose(g) == g.compose(f) == EndoMap.identity(beta.n)


def test_composed_pairs_stay_mutually_inverse():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(3, 5)
        assert_mutually_inverse(random_braid(rng, n, 12))
        g = random_braid(rng, n, 6)
        h = random_braid(rng, n, 6)
        for elem in (g * h, h.inverse() * g, (g * h).inverse()):
            assert_mutually_inverse(elem)
