"""Group cochains on automorphism groups of free groups, exactly.

Elements and actions.  A GroupElement is a braid word together with the
certified automorphism of F_n it acts by and the braid's underlying
permutation, computed once from the word.  A braid acts on H = Z^n through
that permutation, X_i -> X_{perm[i-1]}, so its action on coefficient values
is a relabelling of indices:

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
  basis vector X_j is  theta_2(x_j) - g.theta_2(g^-1 x_j);
* coboundary, with the usual twisted alternating-sum formula;
* cup, the Alexander-Whitney product: the first factor eats the leading
  arguments, the second is translated by their product;
* composite_cochain, the cup of Hom-valued 1-cochains followed by nesting
  the values through the first tensor slot (the first factor outermost);
* hp_cochain(theta, p) = composite_cochain of p copies of tau1, valued in
  Hom(H, H^(x)(p+1));
* hbar_cochain, its contraction down to H^(x)p, optionally pushed into
  Lambda^p (signed coefficient sum, no division);
* hbar_partition_cochain, the cup of exterior hbar factors along the parts
  of a partition, largest part first.

Products of groups.  An element of a block product B_{n1} x ... x B_{nk}
inside B_n is the ambient GroupElement of a braid word whose letters each
stay inside one block of a layout of disjoint consecutive blocks, so every
cochain construction applies verbatim over product groups.
projection_pullback pulls an ambient cochain back along the projection to a
single block, re-embedded: it evaluates on the letters of that block alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence
from weakref import WeakKeyDictionary

from .braids import BraidWord, artin_action, permutation
from .magnus import MagnusExpansion
from .tensors import (
    ExteriorElement,
    HomTensor,
    TruncatedTensor,
    alt_project,
    compose_maps,
)
from .words import AutPair, FreeWord

Value = Any  # TruncatedTensor | HomTensor | ExteriorElement | int | Fraction


class GroupElement:
    """A braid word, the certified automorphism of F_n it acts by and its
    underlying permutation, which is its action on H."""

    __slots__ = ("aut", "braid", "perm", "_key", "_hash")

    def __init__(self, aut: AutPair, braid: BraidWord):
        if braid.n != aut.n:
            raise ValueError("braid strand count does not match rank")
        self.aut = aut
        self.braid = braid
        self.perm = permutation(braid)
        self._key = (aut.n, tuple(w.letters for w in aut.fwd.images))
        self._hash = hash(self._key)

    @classmethod
    def from_braid(cls, beta: BraidWord) -> GroupElement:
        return cls(artin_action(beta), beta)

    @classmethod
    def identity(cls, n: int) -> GroupElement:
        return cls(AutPair.identity(n), BraidWord.identity(n))

    @property
    def n(self) -> int:
        return self.aut.n

    @property
    def is_identity(self) -> bool:
        return self.aut.fwd.is_identity()

    def acts_trivially(self) -> bool:
        return self.perm == tuple(range(1, self.n + 1))

    def __mul__(self, other: GroupElement) -> GroupElement:
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return GroupElement(self.aut.compose(other.aut), self.braid * other.braid)

    def inverse(self) -> GroupElement:
        return GroupElement(self.aut.inverse(), self.braid.inverse())

    def embed(self, offset: int, ambient: int) -> GroupElement:
        return GroupElement.from_braid(self.braid.embed(offset, ambient))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

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
        return g.embed(self.offset, self.ambient)


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
    return _act(g.perm, value)


def _act(perm: tuple[int, ...], value: Value) -> Value:
    """The action of the permutation perm on H, dispatched on the shape of the value."""
    if isinstance(value, (TruncatedTensor, ExteriorElement)):
        return value.act(perm)
    if isinstance(value, HomTensor):
        return value.conjugate(perm)
    if isinstance(value, (Fraction, int)):
        return value
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

    def __add__(self, other: Cochain) -> Cochain:
        if self.degree != other.degree or self.n != other.n:
            raise ValueError("degree or rank mismatch")
        return Cochain(
            self.degree, self.n, self.zero_value,
            lambda *es: self.evaluate(*es) + other.evaluate(*es),
        )

    def __sub__(self, other: Cochain) -> Cochain:
        return self + (-1) * other

    def __rmul__(self, scalar) -> Cochain:
        return Cochain(
            self.degree, self.n, self.zero_value,
            lambda *es: scalar * self.evaluate(*es),
        )


_TAU1_CACHES: WeakKeyDictionary = WeakKeyDictionary()


def tau1(theta: MagnusExpansion, g: GroupElement) -> HomTensor:
    """The degree-2 failure of g to commute with theta, column j the value on X_j."""
    cache = _TAU1_CACHES.setdefault(theta, {})
    cached = cache.get(g)
    if cached is not None:
        return cached
    n = theta.n
    if g.n != n:
        raise ValueError("element rank does not match expansion rank")
    cols = []
    for j in range(1, n + 1):
        base = theta.value(FreeWord.generator(n, j)).component(2)
        pulled = theta.value(g.aut.inv.images[j - 1]).component(2)
        cols.append((base - pulled.act(g.perm)).recap(2))
    # columns are homogeneous of degree 2 and at cap 2 already
    result = HomTensor._trusted(n, 2, tuple(cols))
    cache[g] = result
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


def _concat_product(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    cap = a.cap + b.cap
    return a.recap(cap) * b.recap(cap)


def _combine_values(a: Value, b: Value) -> Value:
    if isinstance(a, TruncatedTensor) and isinstance(b, TruncatedTensor):
        return _concat_product(a, b)
    if isinstance(a, ExteriorElement) and isinstance(b, ExteriorElement):
        return a.wedge(b)
    if isinstance(a, (Fraction, int)):
        return a * b
    if isinstance(b, (Fraction, int)):
        return b * a
    raise TypeError(
        f"no cup product of {type(a).__name__} and {type(b).__name__} values"
    )


def cup(u: Cochain, v: Cochain, combine: Callable[[Value, Value], Value] | None = None) -> Cochain:
    """Alexander-Whitney product; the right value is translated by the left arguments."""
    if u.n != v.n:
        raise ValueError("rank mismatch")
    if combine is None:
        combine = _combine_values
    p = u.degree

    def evaluate(*gs):
        left = u(*gs[:p])
        right = v(*gs[p:])
        prefix = None
        for g in gs[:p]:
            prefix = _times(prefix, g)
        if prefix is not None:
            right = _act(prefix, right)
        return combine(left, right)

    return Cochain(
        p + v.degree, u.n,
        lambda: combine(u.zero_value(), v.zero_value()),
        evaluate,
    )


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
        return GroupElement.from_braid(BraidWord(g.n, kept))

    def evaluate(*gs: GroupElement):
        return u.evaluate(*(project(g) for g in gs))

    return Cochain(u.degree, u.n, u.zero_value, evaluate)
