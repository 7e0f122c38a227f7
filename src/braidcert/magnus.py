"""Magnus expansions of a free group into the truncated tensor algebra.

An expansion is a homomorphism theta from F_n into the group of units
1 + (higher terms) of T(H)/T_{>cap} with theta(x_i) = 1 + X_i + tail_i, and
it is given by its tails: the constructor checks each tail once (rank, cap,
no term of degree < 2) and derives the generator values from them, so the
first two graded pieces (the unit and the abelianisation) are forced by
construction, not validated.  The standard expansion has zero tails, so
that theta(x_i^-1) = 1 - X_i + X_i^2 - ...  cochains.tau1 reads only
.tails, the map X_i -> theta_2(x_i), which is zero for the standard one.

The value of an inverse letter is the truncated geometric series, computed
on the first word that needs one.  It needs no check: for 1 + u with u of
degree >= 1, u^(cap+1) vanishes under the cap, so the series is an exact
two-sided inverse.

Letters multiply on the right, so the running state never grows beyond the
dimension of the truncated algebra, which grows as n^cap.  Each step visits
only the pairs of terms that fit under the cap.  One budget bounds that work,
counted in index letters: before each product, tensors._visits counts the
pairs it will visit times their index length, from the degree-sorted layout
the product itself walks, and past TERM_BUDGET a TermBudgetError stops it.
A value is checked product by product, a series inverse, which sums its
powers in place, over all its products.  A product builds no more letters
than it visits, so the budget bounds memory as well as time, whatever the cap.

Coefficients follow the tensor layer: the standard expansion has integer
values, so every word value (and everything derived from it downstream) has
int coefficients; a custom tail with denominators brings in Fractions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .tensors import HomTensor, TruncatedTensor, _visits
from .words import FreeWord

TERM_BUDGET = 10**6  # index letters visited by one product of a value, or by a series inverse


class TermBudgetError(ValueError):
    """A value's product or a series inverse would visit over TERM_BUDGET index letters."""


def series_inverse(v: TruncatedTensor) -> TruncatedTensor:
    """Inverse of v = 1 + u with u of degree >= 1, as a truncated geometric series."""
    one = TruncatedTensor.one(v.n, v.cap)
    minus_u = one - v
    if not minus_u.component(0).is_zero():
        raise ValueError("series inverse needs constant term exactly 1")
    power = one
    terms = dict(one.terms)
    letters = 0
    for k in range(1, v.cap + 1):
        letters += _visits(power, minus_u)
        if letters > TERM_BUDGET:
            raise TermBudgetError(f"the series inverse exceeds the budget of {TERM_BUDGET:,}"
                                  f" index letters at power {k} of {v.cap}")
        power = power * minus_u
        if power.is_zero():
            break
        for idx, c in power.terms.items():
            terms[idx] = terms.get(idx, 0) + c
    return TruncatedTensor._trusted(v.n, v.cap, terms)


class MagnusExpansion:
    """A group homomorphism F_n -> 1 + T_1, given by the tails of the generator values."""

    def __init__(self, n: int, cap: int, tails: Sequence[TruncatedTensor]):
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        if cap < 2:
            raise ValueError("cap must be at least 2 to carry degree-2 data")
        if len(tails) != n:
            raise ValueError(f"expected {n} tails, got {len(tails)}")
        for tail in tails:
            if tail.n != n or tail.cap != cap:
                raise ValueError("tail has wrong rank or cap")
            if any(len(idx) < 2 for idx in tail.terms):
                raise ValueError("tail must contain only terms of degree >= 2")
        self.n = n
        self.cap = cap
        one = TruncatedTensor.one(n, cap)
        self.gen_values = tuple(
            one + TruncatedTensor.basis(n, cap, i) + tail for i, tail in enumerate(tails, start=1)
        )
        self.tails = HomTensor.from_columns(n, 2, [t.component(2) for t in tails])

    @cached_property
    def gen_inverses(self) -> tuple[TruncatedTensor, ...]:
        return tuple(series_inverse(v) for v in self.gen_values)

    @classmethod
    def standard(cls, n: int, cap: int) -> MagnusExpansion:
        return cls(n, cap, [TruncatedTensor.zero(n, cap) for _ in range(n)])

    def value(self, word: FreeWord) -> TruncatedTensor:
        if word.n != self.n:
            raise ValueError("word rank does not match expansion rank")
        result = TruncatedTensor.one(self.n, self.cap)
        for k, letter in enumerate(word.letters, 1):
            factor = self.gen_values[letter - 1] if letter > 0 else self.gen_inverses[-letter - 1]
            if _visits(result, factor) > TERM_BUDGET:
                raise TermBudgetError(f"computing the value exceeds the budget of {TERM_BUDGET:,}"
                                      f" index letters after letter {k} of {len(word.letters)}")
            result = result * factor
        return result

    def __repr__(self) -> str:
        return f"MagnusExpansion(n={self.n}, cap={self.cap})"
