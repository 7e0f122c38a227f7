"""Bar-complex chains of automorphism groups, and the cochain pairing.

A BarChain of degree p is a finite rational combination of p-tuples of
GroupElements; tuples containing the identity are degenerate and are
dropped on construction.  Coefficients follow the rule of the tensor layer:
the constructor accepts only exact rationals (TypeError otherwise) and
stores an integral one as an int, so chains built from signs stay integral.
Chains over a block product of braid groups need no other element type:
their elements are the ambient GroupElements of braid words whose letters
each stay inside one block.  The boundary is the usual inhomogeneous one
(drop first, merge neighbours with alternating signs, drop last), matching
the coboundary in cochains when every element in sight acts trivially on
the coefficients; the pairing therefore refuses elements that act
nontrivially on H.

Cycles come from two constructors, both of which check that their
ingredients commute; the cycle property then follows from the algebra and
is not re-checked:

* torus_cycle: the signed sum over all orderings of p pairwise commuting
  elements, the image of the fundamental class of a p-torus;
* shuffle: the Eilenberg-Zilber shuffle product of two chains whose
  supports commute elementwise, a cycle when both factors are.  The
  shuffle of two tori is the torus of the union of their elements.

Cycle grammar (used by the command line):

    torus: <braid> | <braid> | ...
    cross: {<size>: <cycle>} {<size>: <cycle>} ...

where each <braid> uses the braid grammar of the ambient block and cross
blocks are placed on consecutive strands starting at strand 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Any, Iterable, Mapping, Sequence

from .braids import parse_braid
from .cochains import BlockEmbedding, Cochain, GroupElement
from .tensors import Scalar, rational, sort_sign
from .words import GrammarError


@dataclass(frozen=True)
class BarChain:
    """A formal combination of p-tuples, degenerate tuples already dropped."""

    degree: int
    terms: Mapping[tuple, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[tuple, Scalar] = {}
        for tup, c in self.terms.items():
            tup = tuple(tup)
            if len(tup) != self.degree:
                raise ValueError(f"tuple {tup} has wrong length for degree {self.degree}")
            c = rational(c)
            if not c or any(g.is_identity for g in tup):
                continue
            clean[tup] = c
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set:
        return {g for tup in self.terms for g in tup}

    def boundary(self) -> BarChain:
        if self.degree == 0:
            return BarChain(0)
        out: dict[tuple, Scalar] = {}

        def put(tup: tuple, c: Scalar) -> None:
            out[tup] = out.get(tup, 0) + c

        for tup, c in self.terms.items():
            put(tup[1:], c)
            sign = -1
            for i in range(self.degree - 1):
                merged = tup[:i] + (tup[i] * tup[i + 1],) + tup[i + 2:]
                put(merged, sign * c)
                sign = -sign
            put(tup[:-1], sign * c)
        return BarChain(self.degree - 1, out)

    def is_cycle(self) -> bool:
        return self.boundary().is_zero()


def _noncommuting_pair(elems: Sequence[GroupElement]) -> tuple[int, int] | None:
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not elems[i].commutes_with(elems[j]):
                return i, j
    return None


def torus_cycle(elems: Sequence[GroupElement]) -> BarChain:
    """The signed sum over all orderings of pairwise commuting elements."""
    elems = tuple(elems)
    pair = _noncommuting_pair(elems)
    if pair is not None:
        raise ValueError(f"elements at positions {pair[0]} and {pair[1]} do not commute")
    p = len(elems)
    terms: dict[tuple, int] = {}
    for perm in permutations(range(1, p + 1)):
        tup = tuple(elems[k - 1] for k in perm)
        sign = sort_sign(perm)[1]
        terms[tup] = terms.get(tup, 0) + sign
    return BarChain(p, terms)


def _shuffles(p: int, q: int):
    """All interleavings of 0..p-1 with p..p+q-1 preserving both orders, signed."""
    for slots in combinations(range(p + q), p):
        left, right = iter(range(p)), iter(range(p, p + q))
        order = tuple(next(left) if k in slots else next(right) for k in range(p + q))
        yield order, sort_sign(k + 1 for k in order)[1]


def shuffle(z1: BarChain, z2: BarChain) -> BarChain:
    """Eilenberg-Zilber product of chains whose supports commute elementwise."""
    s1, s2 = z1.support(), z2.support()
    for a in s1:
        for b in s2:
            if not a.commutes_with(b):
                raise ValueError("supports do not commute; shuffle is not a cycle")
    p, q = z1.degree, z2.degree
    out: dict[tuple, Scalar] = {}
    for t1, c1 in z1.terms.items():
        for t2, c2 in z2.terms.items():
            pool = t1 + t2
            for order, sign in _shuffles(p, q):
                tup = tuple(pool[k] for k in order)
                out[tup] = out.get(tup, 0) + sign * c1 * c2
    return BarChain(p + q, out)


def embed_chain(z: BarChain, e: BlockEmbedding) -> BarChain:
    mapped: dict[tuple, Scalar] = {}
    for tup, c in z.terms.items():
        key = tuple(e.apply(g) for g in tup)
        mapped[key] = mapped.get(key, 0) + c
    return BarChain(z.degree, mapped)


def pair(u: Cochain, z: BarChain):
    """Evaluate a cochain on a chain whose elements act trivially on H."""
    if u.degree != z.degree:
        raise ValueError(f"cochain degree {u.degree} vs chain degree {z.degree}")
    for g in z.support():
        if not g.acts_trivially():
            raise ValueError("chain support acts nontrivially on homology")
    total = u.zero_value()
    for tup, c in z.terms.items():
        total = total + c * u(*tup)
    return total


# cycle grammar


def parse_cycle(text: str, n: int, offset: int = 0) -> BarChain:
    """Parse the cycle grammar over braids on n strands."""
    stripped = text.strip()
    base = offset + (len(text) - len(text.lstrip()))
    if stripped.startswith("torus:"):
        body = stripped[len("torus:"):]
        cursor = base + len("torus:")
        elems, starts = [], []
        for piece in body.split("|"):
            beta = _parse_braid_at(piece, n, cursor)
            elems.append(GroupElement(beta))
            starts.append(cursor + len(piece) - len(piece.lstrip()))
            cursor += len(piece) + 1
        try:
            return torus_cycle(elems)
        except ValueError as exc:
            # point at the later element of the pair that does not commute
            pair = _noncommuting_pair(elems)
            raise GrammarError(str(exc), starts[pair[1]] if pair else base) from None
    if stripped.startswith("cross:"):
        return _parse_cross(stripped[len("cross:"):], n, base + len("cross:"))
    raise GrammarError("cycle must start with 'torus:' or 'cross:'", base)


def _parse_braid_at(piece: str, n: int, offset: int) -> Any:
    try:
        return parse_braid(piece, n)
    except GrammarError as exc:
        raise GrammarError(str(exc).rsplit(" (at position", 1)[0], offset + exc.position) from None


def _parse_cross(body: str, n: int, offset: int) -> BarChain:
    blocks: list[tuple[int, str, int]] = []
    i = 0
    while i < len(body):
        if body[i].isspace():
            i += 1
            continue
        if body[i] != "{":
            raise GrammarError("expected '{' in cross expression", offset + i)
        depth = 1
        j = i + 1
        while j < len(body) and depth:
            if body[j] == "{":
                depth += 1
            elif body[j] == "}":
                depth -= 1
            j += 1
        if depth:
            raise GrammarError("unbalanced '{' in cross expression", offset + i)
        inner = body[i + 1:j - 1]
        if ":" not in inner:
            raise GrammarError("cross block needs '<size>:<cycle>'", offset + i + 1)
        size_text, cycle_text = inner.split(":", 1)
        try:
            size = int(size_text.strip())
        except ValueError:
            size = 0
        if size < 1:
            raise GrammarError(f"bad block size {size_text.strip()!r}", offset + i + 1)
        blocks.append((size, cycle_text, offset + i + 1 + len(size_text) + 1))
        i = j
    if not blocks:
        raise GrammarError("cross expression has no blocks", offset)
    if sum(size for size, _, _ in blocks) > n:
        raise GrammarError(f"cross blocks exceed {n} strands", offset)
    result: BarChain | None = None
    at = 0
    for size, cycle_text, pos in blocks:
        local = parse_cycle(cycle_text, size, pos)
        embedded = embed_chain(local, BlockEmbedding(at, size, n))
        at += size
        result = embedded if result is None else shuffle(result, embedded)
    return result
