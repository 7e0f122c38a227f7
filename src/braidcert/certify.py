"""Linear-independence certificates for the contracted cochains.

For an ambient rank n and exterior degree q, the candidates are the
cochains hbar_lambda indexed by partitions lambda of q with n - q parts
(zeros allowed, weakly decreasing).  Each partition also determines a
layout of consecutive strand blocks of sizes lambda_k + 1, and a catalog
of commuting pure braid tuples inside each block.  Crossing the block tori
gives candidate q-cycles: the torus T(S) of the union S of the embedded
block tuples, in block order, since the shuffle of tori is the torus of the
union.  A candidate keeps only its cycle-grammar descriptor, which names S
block by block; neither S nor the q!-term chain is stored.

Every element of S is pure, so hbar_mu sees no coefficient action and
<hbar_mu, T(S)> is the sum over ordered set partitions (U_1, ..., U_k) of S
with |U_j| = mu_j of B(U_1) ^ ... ^ B(U_k), signed by the permutation that
lists U_1, U_2, ... each in base order.  B(U), the projected contraction of
the signed sum over orderings of U of the nested tau1 values, is the trace
of a product of exterior-valued matrices (tensors.nested_traces).  Swapping
two adjacent parts flips the wedge sign and the listing sign alike, by
(-1)^(|U_j| |U_j+1|), so every ordering of one unordered set partition gives
the same term, and

    <hbar_mu, T(S)> = prod_p mult_mu(p)! * sum over the unordered set
                      partitions of S into parts of sizes mu,

each listed from the part that holds the lowest element not yet listed.
_partition_sums evaluates this from the nonzero B(U) alone, every row at once.
B(U) vanishes once U meets two blocks, so the certificate passes only block
traces: those of each catalog tuple are computed once per process at rank
p_b + 1, then moved to the block's elements and shifted by its strand offset,
as tau1 of an embedded element is shifted.  The certificate keeps the
pairing of every hbar_mu with every candidate cycle, an element of Lambda^q H;
their rank is computed fraction-free on the coordinates where some pairing is
nonzero, and only the JSON form lays them out as a dense rational matrix.

The verdict is "pass" exactly when the rank equals the number of
partitions: the rows are then linearly independent as cochains, hence as
cohomology classes, since each candidate is the torus of a pairwise
commuting set, hence a cycle.  Commutation is decided once, inside each
block, through the faithful action; embedding a block into the ambient
group is an injective homomorphism, and elements on disjoint blocks commute.
A rank deficit only means this catalog of cycles cannot separate the rows,
so the verdict degrades to "inconclusive-catalog", never to a refutation.

The certificate also records a triangularity table: each part of a nonzero
term lies in one block, so hbar_mu pairs to zero with the cycles of every
later partition lambda, which mu cannot refine, and the pass criterion is a
matter of nonzero diagonal blocks.

All exterior coordinates use the projection without 1/q! normalisation;
certificates say so in their JSON output.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import islice, product
from typing import Any, Iterator, Sequence

from ._value import Value
from .braids import BraidWord, parse_braid
from .cochains import BlockEmbedding, block_layout, tau1
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


def _block_elements(size: int) -> list[tuple[str, BraidWord]]:
    """Commuting-tuple ingredients for one block, adjacent bands first."""
    names = [
        f"A({i},{i + span})" for span in range(1, size) for i in range(1, size - span + 1)
    ] + [f"twist({k})" for k in range(3, size + 1)]
    return [(name, parse_braid(name, size)) for name in names]


@cache
def _commuting_tuples(part: int, depth: int) -> tuple[tuple[tuple[str, BraidWord], ...], ...]:
    """The first depth part-element pairwise commuting tuples from the catalog
    of a block of size part + 1, searched depth-first over commuting prefixes
    once per process, each pair once.  There is always one: A(1,2), twist(3),
    ..., twist(part + 1) commute pairwise, each twist central on its strands."""
    elements = _block_elements(part + 1)
    commutes = cache(lambda i, j: elements[i][1].commutes_with(elements[j][1]))

    def extend(chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:  # in lexicographic order
        if len(chosen) == part:
            yield chosen
            return
        for j in range(chosen[-1] + 1 if chosen else 0, len(elements)):
            if all(commutes(i, j) for i in chosen):
                yield from extend(chosen + (j,))

    return tuple(tuple(elements[i] for i in combo) for combo in islice(extend(()), depth))


def partition_cycles(parts: Sequence[int], n: int, depth: int) -> list[str]:
    """Cross the block torus catalogs along the layout of the partition: the
    descriptor of each candidate cycle, which parse_cycle reads back."""
    layout = partition_layout(parts, n)
    per_block = [
        [f"{{{e.size}:torus:{'|'.join(name for name, _ in combo)}}}"
         for combo in _commuting_tuples(part, depth)]
        for part, e in zip(parts, layout) if part
    ]
    return ["cross:" + "".join(choice) for choice in product(*per_block)]


def _partition_sums(
    n: int, q: int, blocks: Sequence[tuple[int, ExteriorElement]], rows: Sequence[Sequence[int]]
) -> list[ExteriorElement]:
    """<hbar_mu, T(S)> for each row mu, from the nonzero B(U) of the q elements
    of S as (mask of U, B(U)) pairs, by the unordered set-partition sum of the
    module docstring; a row whose parts do not sum to q pairs to zero."""
    by_low: dict[int, list[tuple[int, int, ExteriorElement]]] = {}  # by lowest element
    for mask, value in blocks:
        by_low.setdefault(mask & -mask, []).append((mask, value.q, value))

    @cache
    def sums(free: int, sizes: tuple[int, ...]) -> ExteriorElement | None:
        # the partitions of free into parts of the sorted sizes, each part listed
        # as it takes the lowest element still free; None for no nonzero term
        if not free:
            return None if sizes else ExteriorElement.unit(n)
        total: dict[int, Scalar] = {}
        for mask, size, value in by_low.get(free & -free, ()):
            if mask & ~free or size not in sizes:
                continue
            rest, k = free ^ mask, sizes.index(size)
            if (inner := sums(rest, sizes[:k] + sizes[k + 1:])) is None:
                continue
            # one inversion per element of the part above an element listed after it
            odd = (_odd_above(mask) & rest).bit_count() & 1
            for m, c in (value.wedge(inner) if rest else value).terms.items():
                total[m] = total.get(m, 0) + (-c if odd else c)
        if not total:
            return None
        found = ExteriorElement._trusted(n, free.bit_count(), total)
        return found if found.terms else None

    out = []
    for mu in rows:
        parts = sorted(m for m in mu if m)
        value = sums((1 << q) - 1, tuple(parts))
        repeats = math.prod(math.factorial(parts.count(p)) for p in set(parts))
        out.append(ExteriorElement._trusted(n, q, {}) if value is None else repeats * value)
    return out


def torus_pairings(
    theta: MagnusExpansion, elements: Sequence[BraidWord], rows: Sequence[Sequence[int]]
) -> list[ExteriorElement]:
    """<hbar_mu, T(elements)> for each row mu, a partition of len(elements)."""
    for g in elements:
        if not g.acts_trivially():
            raise ValueError("chain support acts nontrivially on homology")
    traces = nested_traces([tau1(theta, g) for g in elements])
    blocks = [(mask, value) for mask, value in traces.items() if not value.is_zero()]
    return _partition_sums(theta.n, len(elements), blocks, rows)


@cache
def _block_traces(part: int, depth: int) -> tuple[list[tuple[int, ExteriorElement]], ...]:
    """The nonzero B(U), as (mask of U, B(U)), at rank part + 1 for each catalog tuple."""
    theta = MagnusExpansion.standard(part + 1, 2)
    return tuple(
        [(mask, v) for mask, v in nested_traces([tau1(theta, g) for _, g in combo]).items()
         if not v.is_zero()]
        for combo in _commuting_tuples(part, depth)
    )


# exact rank


def exact_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Row rank over Q by fraction-free (Bareiss) elimination; zero columns get no pivot."""
    matrix: list[list[int]] = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        matrix.append([int(x * lcm) for x in row])
    if not matrix or not matrix[0]:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank, prev = 0, 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if matrix[r][col]), None)
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


class Certificate(Value):
    _FIELDS = (
        "n", "q", "catalog_depth", "seed", "partitions", "cycles", "pairings",
        "rank", "expected_rank", "verdict", "triangular_violations",
    )

    def __init__(
        self,
        n: int,
        q: int,
        catalog_depth: int,
        seed: int,
        partitions: list[tuple[int, ...]],
        cycles: dict[tuple[int, ...], list[str]],
        pairings: list[list[ExteriorElement]],
        rank: int,
        expected_rank: int,
        verdict: str,
        triangular_violations: list[dict[str, Any]],
    ) -> None:
        self.n = n
        self.q = q
        self.catalog_depth = catalog_depth
        self.seed = seed
        self.partitions = partitions
        self.cycles = cycles
        self.pairings = pairings  # [row][cycle], the cycles of each partition in turn
        self.rank = rank
        self.expected_rank = expected_rank
        self.verdict = verdict
        self.triangular_violations = triangular_violations

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict[str, Any]:
        # the dense matrix: each row, cycle by cycle, on the exterior basis
        basis = exterior_basis(self.n, self.q)
        column = {ExteriorElement._key(idx): k for k, idx in enumerate(basis)}
        matrix: list[list[str]] = [[] for _ in self.pairings]
        for dense, row in zip(matrix, self.pairings):
            for v in row:
                segment = ["0/1"] * len(basis)
                for mask, x in v.terms.items():
                    segment[column[mask]] = f"{x.numerator}/{x.denominator}"
                dense += segment
        return {
            "n": self.n,
            "q": self.q,
            "catalog_depth": self.catalog_depth,
            "seed": self.seed,
            "convention": EXTERIOR_CONVENTION,
            "partitions": [list(p) for p in self.partitions],
            "cycles": {",".join(map(str, lam)): cycles for lam, cycles in self.cycles.items()},
            "exterior_basis": [list(idx) for idx in basis],
            "matrix": matrix,
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
    parts_list = partitions(q, n - q) if q else []
    cycles = {parts: partition_cycles(parts, n, catalog_depth) for parts in parts_list}
    # pairings[i][c]: the pairing of row parts_list[i] with cycle c, in cycles' order
    pairings: list[list[ExteriorElement]] = [[] for _ in parts_list]
    for lam in parts_list:
        # each block tuple's traces, moved to the block's elements and strands
        shifted, first = [], 0
        for p, e in zip(lam, partition_layout(lam, n)):
            if p:
                shifted.append([
                    [(mask << first, ExteriorElement._trusted(
                        n, v.q, {m << e.offset: c for m, c in v.terms.items()}))
                     for mask, v in traces]
                    for traces in _block_traces(p, catalog_depth)
                ])
                first += p
        for choice in product(*shifted):
            values = _partition_sums(n, q, [b for traces in choice for b in traces], parts_list)
            for row, v in zip(pairings, values):
                row.append(v)

    # the rank on the (cycle, exterior coordinate) columns where some row is nonzero
    columns = sorted({(c, m) for row in pairings for c, v in enumerate(row) for m in v.terms})
    rank = exact_rank([[row[c].terms.get(m, 0) for c, m in columns] for row in pairings])
    expected = len(parts_list)
    verdict = "pass" if rank == expected else "inconclusive-catalog"

    # strictly earlier partitions must pair to zero with later cycles
    owners = [(k, c) for k, lam in enumerate(parts_list) for c in cycles[lam]]
    violations: list[dict[str, Any]] = [
        {"row": list(mu), "cycle_partition": list(parts_list[k]), "cycle": c}
        for i, mu in enumerate(parts_list)
        for (k, c), v in zip(owners, pairings[i])
        if k > i and not v.is_zero()
    ]

    return Certificate(
        n=n,
        q=q,
        catalog_depth=catalog_depth,
        seed=seed,
        partitions=parts_list,
        cycles=cycles,
        pairings=pairings,
        rank=rank,
        expected_rank=expected,
        verdict=verdict,
        triangular_violations=violations,
    )
