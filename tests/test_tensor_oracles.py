"""The tensor layer's fast paths against the all-pairs Fraction path it replaced.

The oracles below are the library's earlier implementations, kept here as
the reference: every coefficient is a Fraction, every pair of terms is
visited and tested against the cap, a permutation acts through its matrix
with entries wrapped in Fraction, and each result is rebuilt through plain
dicts.  The fast paths must agree with them on seeded random inputs (ranks
1-5, caps 2-4, integer and non-integral coefficients, custom tails with
denominators), must never hold a zero coefficient, and must keep integer
inputs in int.
"""

from __future__ import annotations

import random
from fractions import Fraction

from braidcert.magnus import MagnusExpansion
from braidcert.tensors import (
    ExteriorElement,
    HomTensor,
    TruncatedTensor,
    alt_project,
    compose_maps,
    exterior_basis,
)
from braidcert.words import FreeWord

F = Fraction


# the reference path


def nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def oracle_mul(a: TruncatedTensor, b: TruncatedTensor) -> dict:
    out: dict = {}
    for i1, c1 in a.terms.items():
        for i2, c2 in b.terms.items():
            if len(i1) + len(i2) > a.cap:
                continue
            out[i1 + i2] = out.get(i1 + i2, F(0)) + F(c1) * F(c2)
    return nonzero(out)


def oracle_act(terms: dict, n: int, matrix) -> dict:
    out: dict = {}
    for idx, c in terms.items():
        partial = {(): F(c)}
        for slot in idx:
            grown: dict = {}
            for prefix, v in partial.items():
                for row in range(n):
                    entry = matrix[row][slot - 1]
                    if entry:
                        key = prefix + (row + 1,)
                        grown[key] = grown.get(key, F(0)) + v * F(entry)
            partial = grown
        for key, v in partial.items():
            out[key] = out.get(key, F(0)) + v
    return nonzero(out)


def oracle_conjugate(u: HomTensor, matrix, matrix_inv) -> list[dict]:
    acted = [oracle_act(col.terms, u.n, matrix) for col in u.columns]
    cols = []
    for j in range(u.n):
        acc: dict = {}
        for i in range(u.n):
            entry = matrix_inv[i][j]
            if entry:
                for idx, c in acted[i].items():
                    acc[idx] = acc.get(idx, F(0)) + F(entry) * c
        cols.append(nonzero(acc))
    return cols


def oracle_compose_maps(factors: list[HomTensor]) -> list[dict]:
    current = [dict(col.terms) for col in factors[-1].columns]
    for outer in reversed(factors[:-1]):
        composed = []
        for col in current:
            acc: dict = {}
            for idx, c in col.items():
                for oidx, oc in outer.columns[idx[0] - 1].terms.items():
                    key = oidx + idx[1:]
                    acc[key] = acc.get(key, F(0)) + F(c) * F(oc)
            composed.append(nonzero(acc))
        current = composed
    return current


def parity_sort(idx: tuple) -> tuple[tuple, int] | None:
    """Sorted idx and the sign of the sorting permutation, by counting inversions."""
    if len(set(idx)) < len(idx):
        return None
    inversions = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx)) if idx[a] > idx[b])
    return tuple(sorted(idx)), (-1) ** inversions


def oracle_alt(terms: dict) -> dict:
    out: dict = {}
    for idx, c in terms.items():
        sorted_sign = parity_sort(idx)
        if sorted_sign is not None:
            key, sign = sorted_sign
            out[key] = out.get(key, F(0)) + sign * F(c)
    return nonzero(out)


def oracle_wedge(a: ExteriorElement, b: ExteriorElement) -> dict:
    return oracle_alt(
        {i1 + i2: F(c1) * F(c2) for i1, c1 in a.coords.items() for i2, c2 in b.coords.items()}
    )


def oracle_value(theta: MagnusExpansion, word: FreeWord) -> dict:
    """Letter by letter with the all-pairs product, inverse letters by the series."""
    result = {(): F(1)}
    for letter in word.letters:
        v = theta.gen_values[abs(letter) - 1]
        if letter < 0:
            u = {i: -c for i, c in v.terms.items() if i}
            inv, power = {(): F(1)}, {(): F(1)}
            for _ in range(theta.cap):
                power = oracle_mul(
                    TruncatedTensor(theta.n, theta.cap, power),
                    TruncatedTensor(theta.n, theta.cap, u),
                )
                for i, c in power.items():
                    inv[i] = inv.get(i, F(0)) + c
            v = TruncatedTensor(theta.n, theta.cap, inv)
        result = oracle_mul(TruncatedTensor(theta.n, theta.cap, result), v)
    return result


# random inputs


def random_coefficient(rng: random.Random, integral: bool):
    if integral:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return F(rng.randint(-4, 4), rng.randint(1, 4))


def random_terms(rng: random.Random, n: int, degrees, count: int, integral: bool) -> dict:
    terms = {}
    for _ in range(count):
        m = rng.choice(list(degrees))
        terms[tuple(rng.randint(1, n) for _ in range(m))] = random_coefficient(rng, integral)
    return terms


def random_tensor(rng: random.Random, n: int, cap: int, integral: bool) -> TruncatedTensor:
    return TruncatedTensor(n, cap, random_terms(rng, n, range(cap + 1), rng.randint(0, 20), integral))


def random_hom(rng: random.Random, n: int, m: int, integral: bool) -> HomTensor:
    return HomTensor(n, m, tuple(
        TruncatedTensor(n, m, random_terms(rng, n, (m,), rng.randint(0, 6), integral))
        for _ in range(n)
    ))


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def permutation_matrix(perm: tuple[int, ...]):
    """The matrix with column j the basis vector e_{perm[j-1]}."""
    n = len(perm)
    return tuple(tuple(1 if perm[c] == r + 1 else 0 for c in range(n)) for r in range(n))


def transpose(matrix):
    return tuple(zip(*matrix))


def random_exterior(rng: random.Random, n: int, q: int, integral: bool) -> ExteriorElement:
    basis = exterior_basis(n, q)
    return ExteriorElement(n, q, {
        idx: random_coefficient(rng, integral) for idx in basis if rng.random() < 0.5
    })


def cases(seed: int, count: int):
    """(rng, rank 1-5, cap 2-4, integral?) for count seeded cases."""
    rng = random.Random(seed)
    for k in range(count):
        yield rng, rng.randint(1, 5), rng.randint(2, 4), k % 2 == 0


def assert_exact(got: dict, want: dict, integral: bool) -> None:
    assert got == want
    assert all(got.values()), "a zero coefficient was stored"
    if integral:
        assert all(type(c) is int for c in got.values()), "integer input did not stay int"


# the fast paths against the reference


def test_mul_matches_all_pairs_oracle():
    for rng, n, cap, integral in cases(100, 200):
        a, b = random_tensor(rng, n, cap, integral), random_tensor(rng, n, cap, integral)
        assert_exact(dict((a * b).terms), oracle_mul(a, b), integral)


def test_act_matches_oracle():
    for rng, n, cap, integral in cases(101, 150):
        t = random_tensor(rng, n, cap, integral)
        perm = random_perm(rng, n)
        want = oracle_act(t.terms, n, permutation_matrix(perm))
        assert_exact(dict(t.act(perm).terms), want, integral)


def test_conjugate_matches_oracle():
    # the inverse of a permutation matrix is its transpose
    for rng, n, cap, integral in cases(102, 100):
        u = random_hom(rng, n, rng.randint(1, cap), integral)
        perm = random_perm(rng, n)
        matrix = permutation_matrix(perm)
        got = u.conjugate(perm)
        for col, want in zip(got.columns, oracle_conjugate(u, matrix, transpose(matrix))):
            assert col.cap == u.out_degree
            assert_exact(dict(col.terms), want, integral)


def test_compose_maps_matches_oracle():
    for rng, n, _, integral in cases(103, 80):
        factors = [random_hom(rng, n, 2, integral) for _ in range(rng.randint(1, 4))]
        got = compose_maps(factors)
        assert got.out_degree == len(factors) + 1
        for col, want in zip(got.columns, oracle_compose_maps(factors)):
            assert col.cap == got.out_degree
            assert_exact(dict(col.terms), want, integral)


def test_wedge_and_alt_project_match_oracle():
    for rng, n, cap, integral in cases(104, 150):
        qa, qb = rng.randint(0, min(2, n)), rng.randint(0, min(2, n))
        a, b = random_exterior(rng, n, qa, integral), random_exterior(rng, n, qb, integral)
        assert_exact(dict(a.wedge(b).coords), oracle_wedge(a, b), integral)
        q = rng.randint(0, cap)
        t = TruncatedTensor(n, q, random_terms(rng, n, (q,), rng.randint(0, 12), integral))
        assert_exact(dict(alt_project(t, q).coords), oracle_alt(t.terms), integral)


def test_magnus_value_matches_oracle():
    rng = random.Random(105)
    for k in range(40):
        n, cap = rng.randint(1, 5), rng.randint(2, 4)
        kind = k % 3
        if kind == 0:
            theta = MagnusExpansion.standard(n, cap)
        else:
            # integer tails, then tails with denominators
            theta = MagnusExpansion.custom(n, cap, [
                TruncatedTensor(n, cap, random_terms(rng, n, range(2, cap + 1), rng.randint(0, 4), kind == 1))
                for _ in range(n)
            ])
        for _ in range(4):
            word = FreeWord.reduce(n, [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(0, 8))])
            assert_exact(dict(theta.value(word).terms), oracle_value(theta, word), kind < 2)

