"""Linear-independence certificates for the contracted cochains.

For an ambient rank n and exterior degree q, the candidates are the
cochains hbar_lambda indexed by partitions lambda of q with n - q parts
(zeros allowed, weakly decreasing).  Each partition also determines a
layout of consecutive strand blocks of sizes lambda_k + 1, and a catalog
of commuting pure braid tuples inside each block.  Crossing the block tori
gives candidate q-cycles: the torus T(S) of the union S of the embedded
block tuples, in block order, since the shuffle of tori is the torus of the
union.  A candidate keeps S, never the q!-term chain.

Every element of S is pure, so hbar_mu sees no coefficient action and
<hbar_mu, T(S)> is the sum over ordered set partitions (U_1, ..., U_k) of S
with |U_j| = mu_j of B(U_1) ^ ... ^ B(U_k), signed by the permutation that
lists U_1, U_2, ... each in base order.  B(U), the projected contraction of
the signed sum over orderings of U of the nested tau1 values, is the trace
of a product of exterior-valued matrices (tensors.nested_traces).  Each
tau1(g) lives on its block's strands, so B(U) vanishes once U meets two
blocks, and the outer sum over the unions of the first j parts skips every
zero B.  B is computed once per cycle for every row.  Pairing every hbar_mu
against every candidate cycle and coordinate of Lambda^q H yields an exact
rational matrix whose row rank is computed fraction-free.

The verdict is "pass" exactly when the rank equals the number of
partitions: the rows are then linearly independent as cochains, hence as
cohomology classes, since each candidate is the torus of a pairwise
commuting set, hence a cycle.  Commutation is decided once, inside each
block, through the faithful action; embedding a block into the ambient
group is an injective homomorphism, and elements on disjoint blocks commute.
A rank deficit only means this catalog of cycles cannot separate the rows,
so the verdict degrades to "inconclusive-catalog", never to a refutation.

The certificate also records a triangularity table: pairings of hbar_mu
against cycles of a strictly later partition in the enumeration order are
expected to vanish identically, which makes the pass criterion a matter of
nonzero diagonal blocks.

All exterior coordinates use the projection without 1/q! normalisation;
certificates say so in their JSON output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Any, Sequence

from .braids import parse_braid
from .cochains import BlockEmbedding, GroupElement, block_layout, tau1
from .magnus import MagnusExpansion
from .tensors import ExteriorElement, Scalar, _odd_above, exterior_basis, nested_traces

EXTERIOR_CONVENTION = "exterior projection is the signed coefficient sum, no 1/q! factor"


def partitions(total: int, slots: int) -> list[tuple[int, ...]]:
    """Weakly decreasing tuples of the given length summing to total, largest first."""
    if slots < 0:
        raise ValueError("slots must be nonnegative")
    if slots == 0 or total < 0:
        return [()] if total == slots == 0 else []
    out: list[tuple[int, ...]] = []
    parts = [total] + [0] * (slots - 1)
    while True:
        out.append(tuple(parts))
        # the next tuple lowers the rightmost part that can lose one while the
        # parts after it, each at most its new value, absorb the rest
        rest = parts[-1]
        for k in range(slots - 2, -1, -1):
            if (slots - 1 - k) * (parts[k] - 1) > rest:
                break
            rest += parts[k]
        else:
            return out
        parts[k] -= 1
        rest += 1
        for j in range(k + 1, slots):
            parts[j] = min(parts[k], rest)
            rest -= parts[j]


def partition_layout(parts: Sequence[int], n: int) -> tuple[BlockEmbedding, ...]:
    """Consecutive blocks of sizes part + 1; they tile the n strands exactly."""
    return block_layout([p + 1 for p in parts], n)


# block catalogs


def _block_elements(size: int) -> list[tuple[str, GroupElement]]:
    """Commuting-tuple ingredients for one block, adjacent bands first."""
    names = [
        f"A({i},{i + span})" for span in range(1, size) for i in range(1, size - span + 1)
    ] + [f"twist({k})" for k in range(3, size + 1)]
    return [(name, GroupElement(parse_braid(name, size))) for name in names]


@cache
def _commuting_tuples(part: int, depth: int) -> tuple[tuple[tuple[str, GroupElement], ...], ...]:
    """The first depth part-element pairwise commuting tuples from the catalog
    of a block of size part + 1, searched once per process, each pair once.
    There is always one: A(1,2), twist(3), ..., twist(part + 1) commute
    pairwise, each twist being central among the braids on its strands."""
    elements = _block_elements(part + 1)
    commutes = cache(lambda i, j: elements[i][1].commutes_with(elements[j][1]))
    found: list[tuple[tuple[str, GroupElement], ...]] = []
    for combo in combinations(range(len(elements)), part):
        if all(commutes(i, j) for i, j in combinations(combo, 2)):
            found.append(tuple(elements[i] for i in combo))
            if len(found) == depth:
                break
    return tuple(found)


@dataclass(frozen=True)
class CandidateCycle:
    """A catalogued cycle, the torus of its elements, with its grammar descriptor."""

    descriptor: str
    elements: tuple[GroupElement, ...]


def partition_cycles(
    parts: Sequence[int], n: int, depth: int
) -> list[CandidateCycle]:
    """Cross the block torus catalogs along the layout of the partition."""
    layout = partition_layout(parts, n)
    per_block: list[list[tuple[BlockEmbedding, tuple[tuple[str, GroupElement], ...]]]] = []
    for part, embedding in zip(parts, layout):
        if part == 0:
            continue
        per_block.append([(embedding, combo) for combo in _commuting_tuples(part, depth)])
    out: list[CandidateCycle] = []
    for choice in product(*per_block):
        descriptor = "cross:" + "".join(
            f"{{{e.size}:torus:{'|'.join(name for name, _ in combo)}}}"
            for e, combo in choice
        )
        elements = tuple(e.apply(g) for e, combo in choice for _, g in combo)
        out.append(CandidateCycle(descriptor, elements))
    return out


def torus_pairings(
    theta: MagnusExpansion, elements: Sequence[GroupElement], rows: Sequence[Sequence[int]]
) -> list[ExteriorElement]:
    """<hbar_mu, T(elements)> for each row mu, a partition of len(elements), by
    the set-partition sum of the module docstring over bitmasks of elements."""
    for g in elements:
        if not g.acts_trivially():
            raise ValueError("chain support acts nontrivially on homology")
    n, q, full = theta.n, len(elements), (1 << len(elements)) - 1
    sized: dict[int, list[tuple[int, ExteriorElement]]] = {}  # the nonzero B(U) by |U|
    for mask, value in nested_traces([tau1(theta, g) for g in elements]).items():
        if not value.is_zero():
            sized.setdefault(mask.bit_count(), []).append((mask, value))
    out = []
    for mu in rows:
        parts = [m for m in mu if m]
        # the first part's sums are its blocks themselves, with no wedge or sign
        layer = dict(sized.get(parts[0], ())) if parts else {0: ExteriorElement.unit(n)}
        for m in parts[1:]:
            grown: dict[int, ExteriorElement] = {}
            for used, value in layer.items():
                # one inversion per used element listed before a smaller one
                odd_above = _odd_above(used)
                for mask, block in sized.get(m, ()):
                    if used & mask:
                        continue
                    term = value.wedge(block)
                    if (odd_above & mask).bit_count() & 1:
                        term = -term
                    key = used | mask
                    grown[key] = grown[key] + term if key in grown else term
            layer = grown
        out.append(layer.get(full, ExteriorElement.zero(n, q)))
    return out


# exact rank


def exact_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Row rank over Q by fraction-free (Bareiss) elimination on the nonzero columns."""
    matrix: list[list[int]] = []
    for row in zip(*(col for col in zip(*rows) if any(col))):
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        matrix.append([int(x * lcm) for x in row])
    if not matrix or not matrix[0]:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next(
            (r for r in range(rank, n_rows) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, n_rows):
            for c in range(col + 1, n_cols):
                matrix[r][c] = (
                    matrix[r][c] * matrix[rank][col] - matrix[r][col] * matrix[rank][c]
                ) // prev
            matrix[r][col] = 0
        prev = matrix[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


# certificates


@dataclass
class Certificate:
    n: int
    q: int
    catalog_depth: int
    seed: int
    partitions: list[tuple[int, ...]]
    cycles: dict[tuple[int, ...], list[CandidateCycle]]
    matrix: list[list[Scalar]]
    rank: int
    expected_rank: int
    verdict: str
    triangular_violations: list[dict[str, Any]]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict[str, Any]:
        def fmt(parts: tuple[int, ...]) -> str:
            return ",".join(str(p) for p in parts)

        return {
            "n": self.n,
            "q": self.q,
            "catalog_depth": self.catalog_depth,
            "seed": self.seed,
            "convention": EXTERIOR_CONVENTION,
            "partitions": [list(p) for p in self.partitions],
            "cycles": {
                fmt(parts): [c.descriptor for c in cycles]
                for parts, cycles in self.cycles.items()
            },
            "exterior_basis": [list(idx) for idx in exterior_basis(self.n, self.q)],
            "matrix": [
                [f"{x.numerator}/{x.denominator}" for x in row] for row in self.matrix
            ],
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "verdict": self.verdict,
            "triangular_ok": not self.triangular_violations,
            "triangular_violations": self.triangular_violations,
        }


def certificate(
    n: int,
    q: int,
    catalog_depth: int = 3,
    seed: int = 0,
) -> Certificate:
    """Build the independence certificate for rank n and exterior degree q.

    The construction makes no random choice: seed is recorded in the
    certificate for uniformity with the other CLI reports and does not
    affect it.
    """
    if not 0 <= q <= n:
        raise ValueError(f"need 0 <= q <= n, got q={q}, n={n}")
    if catalog_depth < 1:
        raise ValueError(f"catalog depth must be at least 1, got {catalog_depth}")
    theta = MagnusExpansion.standard(n, 2)
    parts_list = partitions(q, n - q) if q else []
    basis = exterior_basis(n, q)
    cycles = {parts: partition_cycles(parts, n, catalog_depth) for parts in parts_list}
    # values[lam][c][i]: the pairing of row parts_list[i] with cycle c of lam
    values = {
        lam: [torus_pairings(theta, c.elements, parts_list) for c in cycles[lam]]
        for lam in parts_list
    }
    # exterior coordinates are keyed by bitmask, bit i-1 for X_i
    column = {sum(1 << i - 1 for i in idx): k for k, idx in enumerate(basis)}
    matrix: list[list[Scalar]] = [[] for _ in parts_list]
    for i, row in enumerate(matrix):
        for v in (v for lam in parts_list for v in values[lam]):
            segment: list[Scalar] = [0] * len(basis)
            for mask, c in v[i].terms.items():
                segment[column[mask]] = c
            row += segment

    rank = exact_rank(matrix)
    expected = len(parts_list)
    verdict = "pass" if rank == expected else "inconclusive-catalog"

    # strictly earlier partitions must pair to zero with later cycles
    violations: list[dict[str, Any]] = [
        {"row": list(mu), "cycle_partition": list(lam), "cycle": c.descriptor}
        for i, mu in enumerate(parts_list)
        for lam in parts_list[i + 1:]
        for c, v in zip(cycles[lam], values[lam])
        if not v[i].is_zero()
    ]

    return Certificate(
        n=n,
        q=q,
        catalog_depth=catalog_depth,
        seed=seed,
        partitions=parts_list,
        cycles=cycles,
        matrix=matrix,
        rank=rank,
        expected_rank=expected,
        verdict=verdict,
        triangular_violations=violations,
    )
