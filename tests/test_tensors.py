"""Tensor algebra laws, checked against dense index-arithmetic oracles.

The oracles below build dense coefficient arrays indexed by full tuples and
use textbook formulas (Kronecker products, signed permutation sums), sharing
no code with the sparse implementation under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from braidcert.tensors import (
    ExteriorElement,
    HomTensor,
    TruncatedTensor,
    alt_project,
    compose_first_slot,
    compose_maps,
    exterior_basis,
)

F = Fraction


def all_indices(n: int, m: int):
    return list(product(range(1, n + 1), repeat=m))


def random_tensor(rng: random.Random, n: int, cap: int, density: float = 0.5) -> TruncatedTensor:
    terms = {}
    for m in range(cap + 1):
        for idx in all_indices(n, m):
            if rng.random() < density:
                terms[idx] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return TruncatedTensor(n, cap, terms)


def random_hom(rng: random.Random, n: int, m: int) -> HomTensor:
    cols = []
    for _ in range(n):
        terms = {
            idx: F(rng.randint(-3, 3))
            for idx in all_indices(n, m)
            if rng.random() < 0.5
        }
        cols.append(TruncatedTensor(n, m, terms))
    return HomTensor.from_columns(n, m, tuple(cols))


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def permutation_matrix(perm: tuple[int, ...]):
    """The matrix with column j the basis vector e_{perm[j-1]}."""
    n = len(perm)
    return tuple(tuple(1 if perm[c] == r + 1 else 0 for c in range(n)) for r in range(n))


# dense oracles


def oracle_act(t: TruncatedTensor, matrix) -> dict:
    """(M^(x)m t)_I = sum_J prod_k M[i_k][j_k] * t_J, computed densely."""
    out: dict = {}
    for m in range(t.cap + 1):
        for big_i in all_indices(t.n, m):
            total = F(0)
            for big_j in all_indices(t.n, m):
                c = t.terms.get(big_j)
                if not c:
                    continue
                w = F(1)
                for ik, jk in zip(big_i, big_j):
                    w *= matrix[ik - 1][jk - 1]
                total += w * c
            if total:
                out[big_i] = total
    return out


def oracle_compose_first(outer: HomTensor, inner: HomTensor) -> dict:
    """Dense (outer (x) 1^(m-1)) o inner as a map on basis vectors."""
    n, m = inner.n, inner.out_degree
    out: dict = {}
    for j in range(1, n + 1):
        col: dict = {}
        for idx in all_indices(n, m):
            c = inner.columns[j - 1].terms.get(idx)
            if not c:
                continue
            for head in all_indices(n, outer.out_degree):
                oc = outer.columns[idx[0] - 1].terms.get(head)
                if oc:
                    key = head + idx[1:]
                    col[key] = col.get(key, F(0)) + c * oc
        out[j] = {k: v for k, v in col.items() if v}
    return out


def oracle_alt(t: TruncatedTensor, q: int) -> dict:
    """Signed sum over permutations per increasing tuple, no division."""
    out: dict = {}
    for idx in exterior_basis(t.n, q):
        total = F(0)
        for perm in permutations(range(q)):
            sign = perm_sign(perm)
            total += sign * t.terms.get(tuple(idx[p] for p in perm), F(0))
        if total:
            out[idx] = total
    return out


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# frozen examples


def test_product_concatenates_and_truncates():
    one = TruncatedTensor.one(2, 2)
    x1 = TruncatedTensor.basis(2, 2, 1)
    x2 = TruncatedTensor.basis(2, 2, 2)
    p = (one + x1) * (one + x2)
    assert p.coefficient(()) == 1
    assert p.coefficient((1,)) == 1
    assert p.coefficient((2,)) == 1
    assert p.coefficient((1, 2)) == 1
    assert p.coefficient((2, 1)) == 0
    # same product at cap 1 loses the degree-2 term
    q = (TruncatedTensor.one(2, 1) + TruncatedTensor.basis(2, 1, 1)) * (
        TruncatedTensor.one(2, 1) + TruncatedTensor.basis(2, 1, 2)
    )
    assert q == TruncatedTensor(2, 1, {(): 1, (1,): 1, (2,): 1})


def test_contract_keeps_terms_led_by_column_index():
    # column 1 = X1 (x) X2, column 2 = 0: only the leading index 1 survives
    u = HomTensor.from_columns(2, 2, (
        TruncatedTensor(2, 2, {(1, 2): 1}),
        TruncatedTensor.zero(2, 2),
    ))
    assert u.contract() == TruncatedTensor(2, 1, {(2,): 1})
    # column 2 = X1 (x) X2 contributes nothing: leading index is not 2
    v = HomTensor.from_columns(2, 2, (
        TruncatedTensor.zero(2, 2),
        TruncatedTensor(2, 2, {(1, 2): 1}),
    ))
    assert v.contract().is_zero()


def test_compose_maps_single_factor_is_identity_operation():
    rng = random.Random(0)
    u = random_hom(rng, 2, 2)
    assert compose_maps([u]) == u


def test_compose_maps_two_factors_frozen_value():
    # u: X1 -> X1 (x) X2, X2 -> 0; then (u (x) 1) o u sends X1 to X1 (x) X2 (x) X2
    u = HomTensor.from_columns(2, 2, (
        TruncatedTensor(2, 2, {(1, 2): 1}),
        TruncatedTensor.zero(2, 2),
    ))
    w = compose_maps([u, u])
    assert w.out_degree == 3
    assert w.columns[0] == TruncatedTensor(2, 3, {(1, 2, 2): 1})
    assert w.columns[1].is_zero()


def test_alt_project_no_division_convention():
    t = TruncatedTensor(2, 2, {(1, 2): 1, (2, 1): -1})
    assert alt_project(t, 2) == ExteriorElement(2, 2, {(1, 2): 2})
    # symmetric tensors die
    s = TruncatedTensor(2, 2, {(1, 2): 1, (2, 1): 1, (1, 1): 5})
    assert alt_project(s, 2).is_zero()


def test_wedge_basics():
    x1 = ExteriorElement.basis(3, (1,))
    x2 = ExteriorElement.basis(3, (2,))
    assert x1.wedge(x2) == ExteriorElement(3, 2, {(1, 2): 1})
    assert x2.wedge(x1) == ExteriorElement(3, 2, {(1, 2): -1})
    assert x1.wedge(x1).is_zero()
    assert (x1 + x2).wedge(x2) == ExteriorElement(3, 2, {(1, 2): 1})


def test_json_round_trip():
    # terms sorted by degree then index, integers still printed as k/1, zeros dropped
    t = TruncatedTensor(3, 2, {(1, 3): 3, (2,): F(-1, 2), (): 1, (1,): 2, (3, 1): 0})
    assert t.to_json_dict() == {
        "n": 3,
        "terms": [
            {"idx": [], "c": "1/1"},
            {"idx": [1], "c": "2/1"},
            {"idx": [2], "c": "-1/2"},
            {"idx": [1, 3], "c": "3/1"},
        ],
    }


# the public boundary: exact coefficients, int when integral, every index checked


def test_integral_fractions_are_stored_as_int():
    t = TruncatedTensor(2, 2, {(1,): F(4, 2), (2,): F(1, 2)})
    assert type(t.terms[(1,)]) is int and t.terms[(1,)] == 2
    assert type(t.terms[(2,)]) is Fraction and t.terms[(2,)] == F(1, 2)
    e = ExteriorElement(2, 1, {(1,): F(6, 3), (2,): F(1, 2)})
    coords = dict(e.sorted_terms())
    assert type(coords[(1,)]) is int and type(coords[(2,)]) is Fraction
    assert type(TruncatedTensor.one(2, 2).coefficient(())) is int
    assert type((F(4, 2) * t).terms[(1,)]) is int


def test_json_prints_integral_coefficients_as_k_over_1():
    t = TruncatedTensor(1, 1, {(): F(4, 2), (1,): -3})
    assert [term["c"] for term in t.to_json_dict()["terms"]] == ["2/1", "-3/1"]
    e = ExteriorElement(2, 2, {(1, 2): F(-8, 4)})
    assert e.to_json_dict()["coords"] == [{"idx": [1, 2], "c": "-2/1"}]


def test_exterior_coordinates_print_in_lexicographic_order_at_rank_ten_and_up():
    # (1, 10) is stored under a larger bitmask than (2, 3), yet comes first
    e = ExteriorElement(12, 2, {(2, 3): 1, (11, 12): -1, (1, 10): F(1, 2), (1, 2): 3})
    order = [(1, 2), (1, 10), (2, 3), (11, 12)]
    assert [tuple(t["idx"]) for t in e.to_json_dict()["coords"]] == order
    assert [idx for idx, _ in e.sorted_terms()] == order
    text = str(e)
    spots = [text.index(str(idx)) for idx in order]
    assert spots == sorted(spots)
    assert e.coefficient((1, 10)) == F(1, 2) and e.coefficient([2, 3]) == 1
    assert e.coefficient((10, 1)) == 0 and e.coefficient((0, 1)) == 0
    assert e.coefficient((1, 13)) == 0 and e.coefficient((1,)) == 0
    w = ExteriorElement.basis(12, (10,)).wedge(ExteriorElement.basis(12, (2, 11)))
    assert w.sorted_terms() == [((2, 10, 11), -1)]


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", "2", None, 1j])
def test_non_rational_coefficients_are_rejected(bad):
    with pytest.raises(TypeError):
        TruncatedTensor(2, 2, {(1,): bad})
    with pytest.raises(TypeError):
        ExteriorElement(2, 1, {(1,): bad})
    t = TruncatedTensor.basis(2, 2, 1)
    with pytest.raises(TypeError):
        bad * t
    with pytest.raises(TypeError):
        bad * ExteriorElement.basis(2, (1,))
    column = TruncatedTensor.basis(2, 1, 1)
    with pytest.raises(TypeError):
        bad * HomTensor.from_columns(2, 1, (column, TruncatedTensor.zero(2, 1)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncatedTensor(2, 2, {(3,): 1}),          # index out of range
        lambda: TruncatedTensor(2, 2, {(0, 1): 1}),        # index out of range
        lambda: TruncatedTensor(2, 2, {(1, 2, 1): 1}),     # over the cap
        lambda: ExteriorElement(3, 2, {(2, 1): 1}),        # not increasing
        lambda: ExteriorElement(3, 2, {(2, 2): 1}),        # not increasing
        lambda: ExteriorElement(3, 2, {(1, 4): 1}),        # index out of range
        lambda: ExteriorElement(12, 2, {(10, 3): 1}),      # not increasing
        lambda: ExteriorElement.basis(10, (10, 10)),       # not increasing
        lambda: ExteriorElement(10, 2, {(1, 11): 1}),      # index out of range
        lambda: ExteriorElement.basis(10, (0, 10)),        # index out of range
        lambda: HomTensor.from_columns(2, 2, (  # column not homogeneous
            TruncatedTensor(2, 2, {(1, 2): 1, (1,): 1}),
            TruncatedTensor.zero(2, 2),
        )),
        lambda: HomTensor.from_columns(2, 2, (TruncatedTensor.zero(2, 2),)),  # a column short
        lambda: HomTensor.from_columns(2, 1, (  # a column of rank 3
            TruncatedTensor.basis(3, 1, 1),
            TruncatedTensor.zero(2, 1),
        )),
        lambda: HomTensor(2, 2, {(1, 2): 1}),              # argument without its image
    ],
)
def test_public_constructors_check_every_index(build):
    with pytest.raises(ValueError):
        build()


def test_sum_of_two_shapes_is_refused():
    t = TruncatedTensor(2, 2, {(1, 2): 1})
    u = HomTensor(2, 2, {(1, 1, 2): 1})
    e = ExteriorElement(2, 2, {(1, 2): 1})
    for a, b in ((t, u), (u, t), (t, e), (e, t), (u, e)):
        with pytest.raises(ValueError, match="cannot combine"):
            a + b
        with pytest.raises(ValueError, match="cannot combine"):
            a - b


def test_internal_results_hold_no_zero_coefficient():
    rng = random.Random(13)
    t = random_tensor(rng, 3, 2)
    assert t.terms and (t - t).terms == {}
    assert (t + (-t)).terms == {} and (0 * t).terms == {}
    u = random_hom(rng, 3, 2)
    assert all(col.terms == {} for col in (u - u).columns)
    e = alt_project(t.component(2), 2)
    assert (e - e).terms == {}
    # X1 X2 + X2 X1 is symmetric: its projection cancels to nothing stored
    assert alt_project(TruncatedTensor(2, 2, {(1, 2): 1, (2, 1): 1}), 2).terms == {}


# randomised laws against the oracles


def test_act_matches_dense_kronecker_oracle():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 3)
        t = random_tensor(rng, n, rng.randint(0, 3))
        p = random_perm(rng, n)
        assert dict(t.act(p).terms) == oracle_act(t, permutation_matrix(p))


def test_act_is_functorial():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        t = random_tensor(rng, n, 2)
        a, b = random_perm(rng, n), random_perm(rng, n)
        a_after_b = tuple(a[i - 1] for i in b)
        assert t.act(b).act(a) == t.act(a_after_b)


def test_compose_first_slot_matches_dense_oracle():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 3)
        inner = random_hom(rng, n, rng.randint(1, 2))
        outer = random_hom(rng, n, 2)
        got = compose_first_slot(outer, inner)
        want = oracle_compose_first(outer, inner)
        for j in range(1, n + 1):
            assert dict(got.columns[j - 1].terms) == want[j]


def test_compose_maps_is_linear_in_each_factor():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 3)
        us = [random_hom(rng, n, 2) for _ in range(3)]
        extra = random_hom(rng, n, 2)
        k = rng.randrange(3)
        bumped = list(us)
        bumped[k] = us[k] + extra
        alone = list(us)
        alone[k] = extra
        assert compose_maps(bumped) == compose_maps(us) + compose_maps(alone)


def test_contract_is_linear():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 3)
        u, v = random_hom(rng, n, 2), random_hom(rng, n, 2)
        assert HomTensor.from_columns(n, 2, u.columns) == u
        assert (u + v).contract() == u.contract() + v.contract()
        assert (F(3, 2) * u).contract() == F(3, 2) * u.contract()


def test_contract_commutes_with_permutation_conjugation():
    # contraction is equivariant: contract(P.u.P^-1) = P.contract(u)
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 4)
        p = random_perm(rng, n)
        u = random_hom(rng, n, rng.randint(1, 3))
        acted = u.conjugate(p).contract()
        assert acted == u.contract().act(p)
        assert dict(acted.terms) == oracle_act(u.contract(), permutation_matrix(p))


def test_alt_project_matches_signed_permutation_oracle():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 4)
        q = rng.randint(0, min(3, n))
        t = TruncatedTensor(
            n, q,
            {idx: F(rng.randint(-3, 3)) for idx in all_indices(n, q) if rng.random() < 0.6},
        )
        assert dict(alt_project(t, q).sorted_terms()) == oracle_alt(t, q)


def test_alt_project_is_multiplicative():
    # the projection is an algebra map onto the exterior algebra
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 4)
        qs, qt = rng.randint(0, 2), rng.randint(0, 2)
        s = TruncatedTensor(
            n, qs, {idx: F(rng.randint(-2, 2)) for idx in all_indices(n, qs)}
        )
        t = TruncatedTensor(
            n, qt, {idx: F(rng.randint(-2, 2)) for idx in all_indices(n, qt)}
        )
        st = TruncatedTensor(n, qs + qt, {
            i1 + i2: c1 * c2
            for i1, c1 in s.terms.items()
            for i2, c2 in t.terms.items()
        }) if s.terms and t.terms else TruncatedTensor.zero(n, qs + qt)
        assert alt_project(st, qs + qt) == alt_project(s, qs).wedge(alt_project(t, qt))


def test_exterior_action_is_representative_independent():
    # acting on Lambda^q via any tensor representative agrees with acting first
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(2, 4)
        q = rng.randint(1, 3)
        t = TruncatedTensor(
            n, q, {idx: F(rng.randint(-3, 3)) for idx in all_indices(n, q)}
        )
        p = random_perm(rng, n)
        acted = TruncatedTensor(n, q, oracle_act(t, permutation_matrix(p)))
        assert alt_project(acted, q) == alt_project(t, q).act(p)
        assert alt_project(t.act(p), q) == alt_project(t, q).act(p)


@pytest.mark.parametrize("perm", [
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),  # the matrix of (2, 1, 3)
    (1, 1, 3),
    (2, 1),
    (2, 1, 3, 4),
    (),
    [2, 1, 3],
])
def test_actions_reject_a_non_permutation(perm):
    t = TruncatedTensor(3, 2, {(1, 2): 1, (3,): 2})
    u = HomTensor.from_columns(3, 1, tuple(TruncatedTensor.basis(3, 1, i) for i in (1, 2, 3)))
    e = ExteriorElement.basis(3, (1, 3))
    for act in (t.act, u.conjugate, e.act):
        with pytest.raises(ValueError, match="permutation"):
            act(perm)


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        qa, qb, qc = (rng.randint(0, 2) for _ in range(3))

        def rand_ext(q):
            return ExteriorElement(
                n, q,
                {idx: F(rng.randint(-3, 3)) for idx in exterior_basis(n, q)},
            )

        a, b, c = rand_ext(qa), rand_ext(qb), rand_ext(qc)
        sign = (-1) ** (qa * qb)
        assert a.wedge(b) == sign * b.wedge(a)
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)


def test_algebra_is_associative_and_unital():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 3)
        cap = rng.randint(0, 3)
        a, b, c = (random_tensor(rng, n, cap) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        one = TruncatedTensor.one(n, cap)
        assert a * one == a and one * a == a
