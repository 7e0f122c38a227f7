"""Bar-complex chains of automorphism groups, and the cochain pairing.

A BarChain of degree p is a finite rational combination of p-tuples of
BraidWords, which compare as braids; tuples containing the identity are
degenerate and are dropped on construction.  Coefficients follow the rule
of the tensor layer: the constructor accepts only exact rationals
(TypeError otherwise) and stores an integral one as an int, so chains built
from signs stay integral.  Over a block product of braid groups the
elements are ambient words whose letters each stay inside one block.  The
boundary is the usual inhomogeneous one (drop first, merge neighbours with
alternating signs, drop last), matching the coboundary in cochains when
every element in sight acts trivially on the coefficients; the pairing
therefore refuses elements that act nontrivially on H.

A torus is named by p pairwise commuting elements: commuting_set checks
them, and is_degenerate tells when the torus is zero (a repeated element or
the identity).  Its cycle, torus_cycle, is the signed sum over all orderings
of the elements, the image of the fundamental class of a p-torus; the cycle
property follows from the algebra and is not re-checked.  A product of tori
on disjoint blocks of strands is the torus of the union of their elements,
so parse_cycle reads every crossed cycle, a certificate's catalog
descriptors included, as that one commuting set, each braid embedded once
by BlockEmbedding.apply.  Exterior values are paired with the set itself by
certify.torus_pairings; torus_cycle and pair give the tensor-valued
pairing, and with shuffle (the Eilenberg-Zilber product) and embed_chain
they are the bar-complex reference that the tests use.

Cycle grammar (used by the command line):

    torus: <braid> | <braid> | ...
    cross: {<size>: <cycle>} {<size>: <cycle>} ...

where each <braid> uses the braid grammar of the ambient block and cross
blocks are placed on consecutive strands starting at strand 1.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Mapping, Sequence

from ._value import FrozenValue
from .braids import BraidWord, parse_braid
from .cochains import BlockEmbedding, Cochain
from .tensors import Scalar, rational, sort_sign
from .words import GrammarError


class BarChain(FrozenValue):
    """A formal combination of p-tuples, degenerate tuples already dropped."""

    _FIELDS = ("degree", "terms")
    degree: int
    terms: Mapping[tuple, Scalar]

    def __init__(self, degree: int, terms: Mapping[tuple, Scalar] | None = None) -> None:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[tuple, Scalar] = {}
        for tup, c in (terms or {}).items():
            tup = tuple(tup)
            if len(tup) != degree:
                raise ValueError(f"tuple {tup} has wrong length for degree {degree}")
            c = rational(c)
            if not c or any(g.is_identity for g in tup):
                continue
            clean[tup] = c
        object.__setattr__(self, "degree", degree)
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


class NoncommutingError(ValueError):
    """Two elements of a torus do not commute; pair holds their indices."""

    def __init__(self, i: int, j: int):
        super().__init__(f"elements at positions {i} and {j} do not commute")
        self.pair = (i, j)


def commuting_set(elems: Sequence[BraidWord]) -> tuple[BraidWord, ...]:
    """The elements of a torus, after checking that they commute pairwise."""
    elems = tuple(elems)
    for i, j in combinations(range(len(elems)), 2):
        if not elems[i].commutes_with(elems[j]):
            raise NoncommutingError(i, j)
    return elems


def is_degenerate(elems: Sequence[BraidWord]) -> bool:
    """Whether the torus of these elements is zero: every term holds the
    identity, or cancels the twin that swaps two equal elements."""
    return len(set(elems)) < len(elems) or any(g.is_identity for g in elems)


def torus_cycle(elems: Sequence[BraidWord]) -> BarChain:
    """The signed sum over all orderings of pairwise commuting elements."""
    elems = commuting_set(elems)
    p = len(elems)
    if is_degenerate(elems):
        return BarChain(p)
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


def parse_cycle(text: str, n: int) -> tuple[BraidWord, ...]:
    """Parse the cycle grammar over braids on n strands into the commuting set
    of the torus: the braids it names in grammar order, each embedded at the
    strands of its block."""
    closing = _closing_braces(text)
    elems: list[BraidWord] = []
    where: list[tuple[int, int]] = []  # each element's index in its torus: and text position
    todo = [(0, len(text), 0, n)]  # cycles left to parse: text span, strand offset, strands
    while todo:
        base, end, at, size = todo.pop()
        while base < end and text[base].isspace():
            base += 1
        if text.startswith("torus:", base, end):
            cursor = base + len("torus:")
            for k, piece in enumerate(text[cursor:end].split("|")):
                try:
                    beta = parse_braid(piece, size)
                except GrammarError as exc:
                    raise GrammarError(exc.message, cursor + exc.position) from None
                elems.append(BlockEmbedding(at, size, n).apply(beta))
                where.append((k, cursor + len(piece) - len(piece.lstrip())))
                cursor += len(piece) + 1
        elif text.startswith("cross:", base, end):
            blocks = _cross_blocks(text, base + len("cross:"), end, size, closing)
            todo += [(s, e, at + offset, b) for s, e, offset, b in reversed(blocks)]
        else:
            raise GrammarError("cycle must start with 'torus:' or 'cross:'", base)
    try:
        return commuting_set(elems)
    except NoncommutingError as exc:
        (i, _), (j, position) = (where[k] for k in exc.pair)
        raise GrammarError(f"elements at positions {i} and {j} do not commute", position) from None


def _closing_braces(text: str) -> dict[int, int]:
    """The position of the '}' that closes each balanced '{'."""
    closing, opened = {}, []
    for i, c in enumerate(text):
        if c == "{":
            opened.append(i)
        elif c == "}" and opened:
            closing[opened.pop()] = i
    return closing


def _cross_blocks(
    text: str, start: int, end: int, n: int, closing: Mapping[int, int]
) -> list[tuple[int, int, int, int]]:
    """The blocks {<size>:<cycle>} of a cross body on n strands: the span of
    each block's cycle, its strand offset and its size."""
    blocks = []
    offset, i = 0, start
    while i < end:
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "{":
            raise GrammarError("expected '{' in cross expression", i)
        if i not in closing:
            raise GrammarError("unbalanced '{' in cross expression", i)
        colon = text.find(":", i + 1, closing[i])
        if colon < 0:
            raise GrammarError("cross block needs '<size>:<cycle>'", i + 1)
        size_text = text[i + 1:colon].strip()
        # ASCII decimal only: int() would also take a sign, '_' and other scripts' digits
        size = int(size_text) if size_text.isascii() and size_text.isdigit() else 0
        if size < 1:
            raise GrammarError(f"bad block size {size_text!r}", i + 1)
        blocks.append((colon + 1, closing[i], offset, size))
        offset += size
        i = closing[i] + 1
    if not blocks:
        raise GrammarError("cross expression has no blocks", start)
    if offset > n:
        raise GrammarError(f"cross blocks exceed {n} strands", start)
    return blocks
