"""Magnus expansions of a free group into the truncated tensor algebra.

An expansion is a homomorphism theta from F_n into the group of units
1 + (higher terms) of T(H)/T_{>cap} with theta(x_i) = 1 + X_i + (degree >= 2).
It is determined by the generator values; the value of an inverse letter is
the truncated geometric series, computed on the first word that needs one.
It needs no check: for 1 + u with u of degree >= 1, u^(cap+1) vanishes under
the cap, so the series is an exact two-sided inverse.

The standard expansion takes theta(x_i) = 1 + X_i exactly, so that
theta(x_i^-1) = 1 - X_i + X_i^2 - ...  Custom expansions add an arbitrary
tail of degree >= 2 to each generator; the first two graded pieces (the unit
and the abelianisation) are forced and validated.  cochains.tau1 reads only
.tails, the map X_i -> theta_2(x_i), which is zero for the standard one.

Letters multiply on the right, so the running state never grows beyond the
dimension of the truncated algebra, which grows as n^cap; its terms are
counted after each letter, and past TERM_BUDGET a TermBudgetError stops the
product.  Each step visits only the pairs of terms that fit under the cap.

Coefficients follow the tensor layer: the standard expansion has integer
values, so every word value (and everything derived from it downstream) has
int coefficients; a custom tail with denominators brings in Fractions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .tensors import HomTensor, TruncatedTensor
from .words import FreeWord

TERM_BUDGET = 10**5  # terms of the running value of one word


class TermBudgetError(ValueError):
    """The value of a word outgrew TERM_BUDGET terms."""


def series_inverse(v: TruncatedTensor) -> TruncatedTensor:
    """Inverse of v = 1 + u with u of degree >= 1, as a truncated geometric series."""
    one = TruncatedTensor.one(v.n, v.cap)
    u = v - one
    if not u.component(0).is_zero():
        raise ValueError("series inverse needs constant term exactly 1")
    inv = one
    power = one
    for _ in range(v.cap):
        power = power * (-u)
        if power.is_zero():
            break
        inv = inv + power
    return inv


class MagnusExpansion:
    """A group homomorphism F_n -> 1 + T_1, given by the generator values."""

    def __init__(self, n: int, cap: int, gen_values: Sequence[TruncatedTensor]):
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        if cap < 2:
            raise ValueError("cap must be at least 2 to carry degree-2 data")
        if len(gen_values) != n:
            raise ValueError(f"expected {n} generator values, got {len(gen_values)}")
        one = TruncatedTensor.one(n, cap)
        for i, v in enumerate(gen_values, start=1):
            if v.n != n or v.cap != cap:
                raise ValueError("generator value has wrong rank or cap")
            if v.component(0) != one.component(0):
                raise ValueError(f"value of x{i} must have constant term 1")
            if v.component(1) != TruncatedTensor.basis(n, cap, i):
                raise ValueError(f"value of x{i} must have linear term X{i}")
        self.n = n
        self.cap = cap
        self.gen_values = tuple(gen_values)
        self.tails = HomTensor.from_columns(n, 2, [v.component(2) for v in self.gen_values])

    @cached_property
    def gen_inverses(self) -> tuple[TruncatedTensor, ...]:
        return tuple(series_inverse(v) for v in self.gen_values)

    @classmethod
    def standard(cls, n: int, cap: int) -> MagnusExpansion:
        values = [
            TruncatedTensor.one(n, cap) + TruncatedTensor.basis(n, cap, i)
            for i in range(1, n + 1)
        ]
        return cls(n, cap, values)

    @classmethod
    def custom(cls, n: int, cap: int, tails: Sequence[TruncatedTensor]) -> MagnusExpansion:
        """Standard values plus a degree >= 2 tail on each generator."""
        if len(tails) != n:
            raise ValueError(f"expected {n} tails, got {len(tails)}")
        values = []
        for i, tail in enumerate(tails, start=1):
            if tail.n != n or tail.cap != cap:
                raise ValueError("tail has wrong rank or cap")
            if any(len(idx) < 2 for idx in tail.terms):
                raise ValueError("tail must contain only terms of degree >= 2")
            values.append(
                TruncatedTensor.one(n, cap) + TruncatedTensor.basis(n, cap, i) + tail
            )
        return cls(n, cap, values)

    def value(self, word: FreeWord) -> TruncatedTensor:
        if word.n != self.n:
            raise ValueError("word rank does not match expansion rank")
        result = TruncatedTensor.one(self.n, self.cap)
        for k, letter in enumerate(word.letters, 1):
            factor = (
                self.gen_values[letter - 1]
                if letter > 0
                else self.gen_inverses[-letter - 1]
            )
            result = result * factor
            if len(result.terms) > TERM_BUDGET:
                raise TermBudgetError(f"the value exceeds the budget of {TERM_BUDGET:,} terms"
                                      f" after letter {k} of {len(word.letters)}")
        return result

    def __repr__(self) -> str:
        return f"MagnusExpansion(n={self.n}, cap={self.cap})"
