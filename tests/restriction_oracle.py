"""The lazy exterior cup, and the restriction identity checked on the bar complex.

cup, unit_cochain and hbar_partition_cochain evaluate hbar_lambda on any
tuple of braids, term by term; the library pairs hbar_lambda only with tori
of pure braids, by the set-partition sum of certify.torus_pairings, and the
tests hold these as its oracle.

scalar_factor_check compares the restriction of hbar_lambda to the block
product with the cup of its single-block factors scaled by the repetition
factor prod_p (count of parts equal to p)!.  It pairs both sides against
catalog cycles of lambda whose elements are raised to random powers; powers
of pairwise commuting elements commute, so these are tori too.  The
comparison is a pairing of cycles because the two sides agree only up to a
coboundary, not pointwise.

The certificate now rests on the identity: it assembles each cycle's
values from block tables by the splitting sum of certify's module
docstring, whose diagonal terms are this factor times the cup of the
blockwise values.  This check stays with the tests as the oracle for it.
"""

from __future__ import annotations

import math
import random
from typing import Any, Sequence

from braidcert.certify import partition_cycles, partition_layout
from braidcert.chains import pair, parse_cycle, torus_cycle
from braidcert.cochains import (
    Cochain,
    _times,
    hbar_cochain,
    projection_pullback,
)
from braidcert.magnus import MagnusExpansion
from braidcert.tensors import ExteriorElement


def cup(u: Cochain, v: Cochain) -> Cochain:
    """Alexander-Whitney product of exterior-valued cochains: the wedge of the
    values, the right one translated by the left arguments."""
    if u.n != v.n:
        raise ValueError("rank mismatch")
    p = u.degree

    def evaluate(*gs):
        left = u(*gs[:p])
        right = v(*gs[p:])
        if not (isinstance(left, ExteriorElement) and isinstance(right, ExteriorElement)):
            raise TypeError(
                f"no cup product of {type(left).__name__} and {type(right).__name__} values"
            )
        prefix = None
        for g in gs[:p]:
            prefix = _times(prefix, g)
        return left.wedge(right if prefix is None else right.act(prefix))

    return Cochain(
        p + v.degree, u.n, lambda: ExteriorElement.zero(u.n, p + v.degree), evaluate
    )


def unit_cochain(n: int) -> Cochain:
    """The degree-0 cochain with constant value 1 in Lambda^0."""
    return Cochain(
        0, n, lambda: ExteriorElement.zero(n, 0), lambda: ExteriorElement.unit(n)
    )


def hbar_partition_cochain(theta: MagnusExpansion, parts: Sequence[int]) -> Cochain:
    """Cup the exterior hbar factors along the nonzero parts, in the given order."""
    result = unit_cochain(theta.n)
    for p in parts:
        if p < 0:
            raise ValueError("parts must be nonnegative")
        if p:
            result = cup(result, hbar_cochain(theta, p, exterior=True))
    return result


def multiplicity_factor(parts: Sequence[int]) -> int:
    """Product of factorials of the multiplicities of the nonzero parts."""
    result = 1
    for p in set(parts):
        if p > 0:
            result *= math.factorial(sum(1 for a in parts if a == p))
    return result


def scalar_factor_check(
    theta: MagnusExpansion,
    parts: Sequence[int],
    n: int,
    rng: random.Random,
) -> tuple[bool, list[tuple[Any, Any]]]:
    """Pair both sides of the restriction identity against three random block tori.

    Each torus is a random catalog cycle of the partition, at the
    certificate's default depth, with each element raised to a random power
    in {-2, -1, 1, 2}.  The left side is hbar over the partition, restricted
    to the block product; the right side is the cup of the blockwise
    pullbacks scaled by the repetition factor.  Returns overall success and
    the list of paired (left, right) values.
    """
    parts = tuple(parts)
    layout = partition_layout(parts, n)
    lhs = hbar_partition_cochain(theta, parts)
    rhs: Cochain = unit_cochain(n)
    for k, p in enumerate(parts):
        if p:
            rhs = cup(
                rhs, projection_pullback(hbar_cochain(theta, p, exterior=True), k, layout)
            )
    factor = multiplicity_factor(parts)

    cycles = partition_cycles(parts, n, 3)
    witnesses: list[tuple[Any, Any]] = []
    ok = True
    for _ in range(3):
        elements = [
            g ** rng.choice([-2, -1, 1, 2])
            for g in parse_cycle(rng.choice(cycles), n)
        ]
        z = torus_cycle(elements)
        left = pair(lhs, z)
        right = factor * pair(rhs, z)
        witnesses.append((left, right))
        if left != right:
            ok = False
    return ok, witnesses
