"""Group cochains on automorphism groups of free groups, exactly.

Elements and actions.  A GroupElement is a braid word and the braid's
underlying permutation; products, inverses and embeddings act on the words.
The automorphism of F_n that the braid acts by is derived from the word only
where a decision needs it, and the cached artin_action is its memo.  Only
that one map is built; no inverse automorphism is ever needed.  Equality and
commutation both compare automorphisms, which the faithful action makes
decisive: two elements are equal when their maps are, and commutes_with
compares f o g with g o f on the generators without building either product.  tau1, and every class built from it, reads only the letters
and the permutation.  A braid acts on H = Z^n through that permutation,
X_i -> X_{perm[i-1]}, so its action on coefficient values is a relabelling
of indices:

* on tensors and exterior elements, in every slot;
* on linear maps H -> H^(x)m, by conjugation  P^(x)m o u o P^-1.

A product g_1...g_k acts through the composite permutation
perm(g_1) o ... o perm(g_k); the automorphisms themselves are never composed
for this.  When the composite is the identity, as it always is for pure
braids, the action is skipped.

Cochains.  A Cochain of degree p is an evaluator on p-tuples of elements.
Values are computed lazily; nothing resembling the full cochain group is ever
materialised.  The basic constructions:

* tau1(theta, g), the crossed homomorphism measuring the failure of g to
  respect the degree-2 part of a Magnus expansion theta: its value on the
  basis vector X_j is defined as  theta_2(x_j) - g.theta_2(g^-1 x_j),  but
  computed letter by letter through tau1(gh) = tau1(g) + g.tau1(h), at a
  cost linear in the braid's length;
* coboundary, with the usual twisted alternating-sum formula;
* composite_cochain, the cup of Hom-valued 1-cochains followed by nesting
  the values through the first tensor slot (the first factor outermost);
* hp_cochain(theta, p) = composite_cochain of p copies of tau1, valued in
  Hom(H, H^(x)(p+1));
* hbar_cochain, its contraction down to H^(x)p, optionally pushed into
  Lambda^p (signed coefficient sum, no division).

The partition classes hbar_lambda, cups of exterior hbar factors, are
evaluated only on tori of pure braids, where certify.torus_pairings sums
them over set partitions.

Products of groups.  An element of a block product B_{n1} x ... x B_{nk}
inside B_n is the ambient GroupElement of a braid word whose letters each
stay inside one block of a layout of disjoint consecutive blocks, so every
cochain construction applies verbatim over product groups.
projection_pullback pulls an ambient cochain back along the projection to a
single block, re-embedded: it evaluates on the letters of that block alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence
from weakref import WeakKeyDictionary

from .braids import BraidWord, _letter_action, artin_action, permutation
from .magnus import MagnusExpansion
from .tensors import (
    ExteriorElement,
    HomTensor,
    TruncatedTensor,
    alt_project,
    compose_maps,
)
from .words import EndoMap, FreeWord

Value = Any  # TruncatedTensor | HomTensor | ExteriorElement


class GroupElement:
    """A braid word and its underlying permutation, which is its action on H.

    The braid word is the element's only representation: the automorphism of
    F_n it acts by is derived from the word when equality, hashing or
    commutation asks for it."""

    __slots__ = ("braid", "perm")

    def __init__(self, braid: BraidWord):
        self.braid = braid
        self.perm = permutation(braid)

    @property
    def aut(self) -> EndoMap:
        return artin_action(self.braid)

    @property
    def n(self) -> int:
        return self.braid.n

    @property
    def is_identity(self) -> bool:
        return self.aut.is_identity()

    def acts_trivially(self) -> bool:
        return self.perm == tuple(range(1, self.n + 1))

    def __mul__(self, other: GroupElement) -> GroupElement:
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return GroupElement(self.braid * other.braid)

    def inverse(self) -> GroupElement:
        return GroupElement(self.braid.inverse())

    def commutes_with(self, other: GroupElement) -> bool:
        """Whether self * other == other * self, decided on the automorphisms:
        f(g(x_j)) == g(f(x_j)) for every generator x_j."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        f, g = self.aut, other.aut
        return all(f(gx) == g(fx) for fx, gx in zip(f.images, g.images))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.aut == other.aut

    def __hash__(self) -> int:
        return hash(self.aut)

    def __repr__(self) -> str:
        return f"<braid {self.braid.letters} on {self.n} strands>"


@dataclass(frozen=True)
class BlockEmbedding:
    """Strands/generators offset+1, ..., offset+size inside ambient rank."""

    offset: int
    size: int
    ambient: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size < 1 or self.offset + self.size > self.ambient:
            raise ValueError(
                f"block of size {self.size} at offset {self.offset} "
                f"does not fit in rank {self.ambient}"
            )

    def apply(self, g: GroupElement) -> GroupElement:
        if g.n != self.size:
            raise ValueError(f"element has rank {g.n}, block has size {self.size}")
        k = self.offset  # the same word on the block's strands
        letters = tuple(l + k if l > 0 else l - k for l in g.braid.letters)
        return GroupElement(BraidWord(self.ambient, letters))


def block_layout(sizes: Sequence[int], ambient: int) -> tuple[BlockEmbedding, ...]:
    """Consecutive blocks of the given sizes, which must fill the ambient rank."""
    if sum(sizes) != ambient:
        raise ValueError(f"block sizes {tuple(sizes)} do not sum to rank {ambient}")
    out = []
    offset = 0
    for size in sizes:
        out.append(BlockEmbedding(offset, size, ambient))
        offset += size
    return tuple(out)


def coeff_action(g: GroupElement, value: Value) -> Value:
    """The coefficient action of g, dispatched on the shape of the value."""
    if isinstance(value, (TruncatedTensor, ExteriorElement)):
        return value.act(g.perm)
    if isinstance(value, HomTensor):
        return value.conjugate(g.perm)
    raise TypeError(f"no action defined on {type(value).__name__}")


def _times(prefix: tuple[int, ...] | None, g: GroupElement) -> tuple[int, ...] | None:
    """The permutation of (g_1...g_k) g from that of g_1...g_k; None is the identity."""
    if g.acts_trivially():
        return prefix
    if prefix is None:
        return g.perm
    perm = tuple(prefix[i - 1] for i in g.perm)
    return None if perm == tuple(range(1, g.n + 1)) else perm


@dataclass(frozen=True)
class Cochain:
    """A lazy cochain: degree, ambient rank, zero of the value type, evaluator."""

    degree: int
    n: int
    zero_value: Callable[[], Value]
    evaluate: Callable[..., Value]

    def __call__(self, *elems) -> Value:
        if len(elems) != self.degree:
            raise ValueError(f"degree {self.degree} cochain got {len(elems)} arguments")
        return self.evaluate(*elems)


_TAU1_CACHES: WeakKeyDictionary = WeakKeyDictionary()
_LETTER_TAU1: WeakKeyDictionary = WeakKeyDictionary()


def _letter_tau1(theta: MagnusExpansion, letter: int) -> HomTensor:
    """tau1(s_letter) by the defining formula on the generator images under
    the inverse letter, which have at most 3 letters."""
    cache = _LETTER_TAU1.setdefault(theta, {})
    if letter not in cache:
        n = theta.n
        inv = _letter_action(n, -letter)
        swap = permutation(BraidWord(n, (letter,)))
        terms: dict = {}
        for j in range(1, n + 1):
            base = theta.value(FreeWord.generator(n, j)).component(2)
            pulled = theta.value(inv.images[j - 1]).component(2)
            col = base - pulled.act(swap)
            terms.update({(j, *idx): c for idx, c in col.terms.items()})
        cache[letter] = HomTensor._trusted(n, 2, terms)
    return cache[letter]


def tau1(theta: MagnusExpansion, g: GroupElement) -> HomTensor:
    """The degree-2 failure of g to commute with theta, summed over the letters
    of g, each conjugated by the permutation before it."""
    cache = _TAU1_CACHES.setdefault(theta, {})
    cached = cache.get(g.braid)
    if cached is not None:
        return cached
    n = theta.n
    if g.n != n:
        raise ValueError("element rank does not match expansion rank")
    terms: dict = {}
    perm = list(range(1, n + 1))
    for letter in g.braid.letters:
        for (j, a, b), c in _letter_tau1(theta, letter).terms.items():
            # relabel every index, the argument's included
            key = (perm[j - 1], perm[a - 1], perm[b - 1])
            terms[key] = terms.get(key, 0) + c
        i = abs(letter)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    result = HomTensor._trusted(n, 2, terms)
    cache[g.braid] = result
    return result


def tau1_cochain(theta: MagnusExpansion) -> Cochain:
    n = theta.n
    return Cochain(
        1, n, lambda: HomTensor.zero(n, 2), lambda g: tau1(theta, g)
    )


def coboundary(u: Cochain) -> Cochain:
    """The twisted simplicial coboundary, one degree up."""
    p = u.degree

    def evaluate(*gs):
        total = coeff_action(gs[0], u(*gs[1:]))
        sign = -1
        for i in range(p):
            merged = gs[:i] + (gs[i] * gs[i + 1],) + gs[i + 2:]
            total = total + sign * u(*merged)
            sign = -sign
        return total + sign * u(*gs[:-1])

    return Cochain(p + 1, u.n, u.zero_value, evaluate)


def composite_cochain(factors: Sequence[Cochain]) -> Cochain:
    """Cup Hom-valued 1-cochains, then nest the values first slot first.

    The value on (g_1, ..., g_p) is the nested composition of

        u_1(g_1),  g_1.u_2(g_2),  ...,  (g_1...g_{p-1}).u_p(g_p)

    with the first factor outermost, a map H -> H^(x)(p+1).
    """
    if not factors:
        raise ValueError("need at least one factor")
    n = factors[0].n
    p = len(factors)
    if any(f.degree != 1 or f.n != n for f in factors):
        raise ValueError("factors must be 1-cochains of one common rank")

    def evaluate(*gs):
        values = []
        prefix = None
        for factor, g in zip(factors, gs):
            value = factor(g)
            if prefix is not None:
                value = value.conjugate(prefix)
            values.append(value)
            prefix = _times(prefix, g)
        return compose_maps(values)

    return Cochain(p, n, lambda: HomTensor.zero(n, p + 1), evaluate)


def hp_cochain(theta: MagnusExpansion, p: int) -> Cochain:
    """The degree-p cochain with values in Hom(H, H^(x)(p+1))."""
    if p < 1:
        raise ValueError("degree must be at least 1")
    return composite_cochain([tau1_cochain(theta)] * p)


def hbar_cochain(theta: MagnusExpansion, p: int, exterior: bool = False) -> Cochain:
    """The contraction of hp_cochain down to H^(x)p, optionally in Lambda^p."""
    base = hp_cochain(theta, p)
    n = theta.n
    if not exterior:
        return Cochain(
            p, n,
            lambda: TruncatedTensor.zero(n, p),
            lambda *gs: base(*gs).contract(),
        )
    return Cochain(
        p, n,
        lambda: ExteriorElement.zero(n, p),
        lambda *gs: alt_project(base(*gs).contract(), p),
    )


def _block_index(letter: int, layout: Sequence[BlockEmbedding]) -> int:
    """The block whose strands s_|letter| braids; ValueError if it crosses a boundary."""
    i = abs(letter)
    for k, e in enumerate(layout):
        if e.offset < i < e.offset + e.size:
            return k
    raise ValueError(f"letter s{i} crosses a block boundary")


def projection_pullback(u: Cochain, k: int, layout: Sequence[BlockEmbedding]) -> Cochain:
    """Pull an ambient cochain back along projection to the k-th block, re-embedded.

    Arguments are ambient elements whose braid letters each stay inside one
    block; their projection keeps the letters of block k.
    """
    layout = tuple(layout)

    def project(g: GroupElement) -> GroupElement:
        kept = tuple(l for l in g.braid.letters if _block_index(l, layout) == k)
        return GroupElement(BraidWord(g.n, kept))

    def evaluate(*gs: GroupElement):
        return u.evaluate(*(project(g) for g in gs))

    return Cochain(u.degree, u.n, u.zero_value, evaluate)
