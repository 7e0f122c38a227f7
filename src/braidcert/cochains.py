"""Group cochains on automorphism groups of free groups, exactly.

Elements and actions.  The elements are braids.BraidWords, which compare
as braids; tau1, and every class built from it, reads only the letters and
the permutation.  A braid acts on H = Z^n through its permutation,
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
  basis vector X_j is defined as  theta_2(x_j) - g.theta_2(g^-1 x_j).  A
  change of expansion changes it by a coboundary (Kawazumi, "Cohomological
  aspects of Magnus expansions"): it is the standard expansion's value, a
  sum of two terms per letter relabelled by a prefix permutation, plus
  T - g.T for the map T of theta's degree-2 tails, at a cost linear in the
  braid's length and with no word value of theta.  It is a pure function of
  theta.n, theta.tails and the letters, and keeps nothing between calls;
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
inside B_n is an ambient BraidWord whose letters each stay inside one block
of a layout of disjoint consecutive blocks, so every cochain construction
applies verbatim over product groups.
projection_pullback pulls an ambient cochain back along the projection to a
single block, re-embedded: it evaluates on the letters of that block alone.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ._value import FrozenValue
from .braids import BraidWord
from .magnus import MagnusExpansion
from .tensors import (
    ExteriorElement,
    HomTensor,
    TruncatedTensor,
    alt_project,
    compose_maps,
)

Value = Any  # TruncatedTensor | HomTensor | ExteriorElement


class BlockEmbedding(FrozenValue):
    """Strands/generators offset+1, ..., offset+size inside ambient rank."""

    _FIELDS = ("offset", "size", "ambient")
    offset: int
    size: int
    ambient: int

    def __init__(self, offset: int, size: int, ambient: int) -> None:
        if offset < 0 or size < 1 or offset + size > ambient:
            raise ValueError(
                f"block of size {size} at offset {offset} does not fit in rank {ambient}"
            )
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "ambient", ambient)

    def apply(self, g: BraidWord) -> BraidWord:
        if g.n != self.size:
            raise ValueError(f"element has rank {g.n}, block has size {self.size}")
        k = self.offset  # the same word on the block's strands
        return BraidWord(self.ambient, tuple(l + k if l > 0 else l - k for l in g.letters))


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


def coeff_action(g: BraidWord, value: Value) -> Value:
    """The coefficient action of g, dispatched on the shape of the value."""
    if isinstance(value, (TruncatedTensor, ExteriorElement)):
        return value.act(g.perm)
    if isinstance(value, HomTensor):
        return value.conjugate(g.perm)
    raise TypeError(f"no action defined on {type(value).__name__}")


def _times(prefix: tuple[int, ...] | None, g: BraidWord) -> tuple[int, ...] | None:
    """The permutation of (g_1...g_k) g from that of g_1...g_k; None is the identity."""
    if g.acts_trivially():
        return prefix
    if prefix is None:
        return g.perm
    perm = tuple(prefix[i - 1] for i in g.perm)
    return None if perm == tuple(range(1, g.n + 1)) else perm


class Cochain(FrozenValue):
    """A lazy cochain: degree, ambient rank, zero of the value type, evaluator."""

    _FIELDS = ("degree", "n", "zero_value", "evaluate")
    degree: int
    n: int
    zero_value: Callable[[], Value]
    evaluate: Callable[..., Value]

    def __init__(
        self, degree: int, n: int, zero_value: Callable[[], Value], evaluate: Callable[..., Value]
    ) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "zero_value", zero_value)
        object.__setattr__(self, "evaluate", evaluate)

    def __call__(self, *elems) -> Value:
        if len(elems) != self.degree:
            raise ValueError(f"degree {self.degree} cochain got {len(elems)} arguments")
        return self.evaluate(*elems)


def tau1(theta: MagnusExpansion, g: BraidWord) -> HomTensor:
    """The degree-2 failure of g to commute with theta: the standard
    expansion's value, a letter sum, plus the coboundary of theta's tails.
    It reads only theta.n and theta.tails, after the rank check, and keeps
    no state: a caller that repeats its arguments caches above it.

    Let T = theta.tails, X_k -> T_k the degree-2 part of theta(x_k), and
    P = g.perm.  The degree-2 part of theta(x_k^-1) is X_k^2 - T_k, and the
    degree-1 parts are the standard expansion's, so every letter x_k^+-1 of
    a word w adds +-T_k to the standard degree-2 part:
    theta_2(w) = std_2(w) + T(ab w), ab w the class of w in H, on which g^-1
    acts as P^-1.  In the defining formula this gives

        theta_2(x_j) - g.theta_2(g^-1 x_j)
            = tau1_std(g)(X_j) + T(X_j) - P T(P^-1 X_j),

    that is  tau1(g) = tau1_std(g) + T - T.conjugate(P),  and the tail term
    vanishes on pure g.  At g = s_i, std_2(x_j) = 0, and s_i^-1 sends x_i to
    x_i x_{i+1} x_i^-1 and every other generator to a generator; the std_2
    of that image, X_i X_{i+1} - X_{i+1} X_i, is negated by s_i, so
    tau1_std(s_i) = l_i (x) (X_i X_{i+1} - X_{i+1} X_i), l_i dual to X_i.

    As a crossed homomorphism, tau1(gh) = tau1(g) + g.tau1(h), tau1_std(g)
    is the sum of P_k.tau1_std(letter_k), P_k the permutation before letter
    k, and tau1(s_i^-1) = -s_i.tau1(s_i).  Relabelled by P, tau1_std(s_i) is
    l_a (x) (X_a X_b - X_b X_a) for the strands (a, b) = (P[i-1], P[i]).  So
    pass 1 counts +1 at (a, b) for s_i and -1 at (b, a) for s_i^-1, the pair
    after its swap, and conjugating letters and free cancellations drop out;
    pass 2 adds two terms per nonzero count, then the tails' coboundary."""
    n = theta.n
    if g.n != n:
        raise ValueError("element rank does not match expansion rank")
    counts: dict = {}
    perm = list(range(1, n + 1))
    for letter in g.letters:
        i = abs(letter)
        a, b = perm[i - 1], perm[i]
        if letter > 0:
            counts[a, b] = counts.get((a, b), 0) + 1
        else:
            counts[b, a] = counts.get((b, a), 0) - 1
        perm[i - 1], perm[i] = b, a
    terms: dict = {}
    get = terms.get
    for (a, b), m in counts.items():
        if m:
            terms[a, a, b] = get((a, a, b), 0) + m
            terms[a, b, a] = get((a, b, a), 0) - m
    if perm != sorted(perm):  # g is not pure
        for (j, a, b), c in theta.tails.terms.items():
            terms[j, a, b] = get((j, a, b), 0) + c
            key = (perm[j - 1], perm[a - 1], perm[b - 1])
            terms[key] = get(key, 0) - c
    return HomTensor._trusted(n, 2, terms)


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

    def project(g: BraidWord) -> BraidWord:
        return BraidWord(g.n, tuple(l for l in g.letters if _block_index(l, layout) == k))

    def evaluate(*gs: BraidWord):
        return u.evaluate(*(project(g) for g in gs))

    return Cochain(u.degree, u.n, u.zero_value, evaluate)
