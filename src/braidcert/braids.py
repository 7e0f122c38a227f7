"""Braid groups acting on free groups.

A braid on n strands is a word in the elementary generators s_1, ..., s_{n-1},
stored as signed integers (+i for s_i, -i for its inverse).  No rewriting is
ever performed on braid words; cochains.GroupElement decides equality of the
group elements they represent through the faithful action on F_n.

The action sends s_i to the automorphism

    x_i |-> x_{i+1},    x_{i+1} |-> x_{i+1}^-1 x_i x_{i+1},

fixing the other generators, and a word acts by composing the actions of its
letters in function order: the action of uv is (action of u) o (action of v).

Distinguished pure braids:

* pure_gen_braid(n, i, j), the band generator A_{i,j} for 1 <= i < j <= n,
  spelled  s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1;
* full_twist(n, k), the full twist (s_1 ... s_{k-1})^k of the first k
  strands, central among braids supported on those strands.

The underlying-permutation map sends s_i to the transposition (i, i+1) and is
computed directly, composing in the same order as the action; it is the
action on H = Z^n, sending the class of x_i to that of x_{perm[i-1]}.

Text grammar: whitespace-separated tokens ``s<k>``, ``s<k>^-1``, ``A(i,j)``,
``A(i,j)^-1``, ``twist(k)``, ``twist(k)^-1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .words import AutPair, EndoMap, FreeWord, GrammarError


@dataclass(frozen=True)
class BraidWord:
    """A word in the elementary braid generators of B_n."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.n < 1:
            raise ValueError(f"strand count must be positive, got {self.n}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.n - 1:
                raise ValueError(
                    f"letter {letter} out of range for {self.n} strands"
                )

    @classmethod
    def identity(cls, n: int) -> BraidWord:
        return cls(n, ())

    @classmethod
    def gen(cls, n: int, i: int, power: int = 1) -> BraidWord:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for {n} strands")
        sign = 1 if power >= 0 else -1
        return cls(n, (sign * i,) * abs(power))

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(-l for l in reversed(self.letters)))

    def __pow__(self, k: int) -> BraidWord:
        base = self if k >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(k))

    def __str__(self) -> str:
        return format_braid(self)


@lru_cache(maxsize=None)
def _letter_action(n: int, letter: int) -> AutPair:
    i = abs(letter)
    fwd = [FreeWord.generator(n, k) for k in range(1, n + 1)]
    inv = [FreeWord.generator(n, k) for k in range(1, n + 1)]
    fwd[i - 1] = FreeWord(n, (i + 1,))
    fwd[i] = FreeWord(n, (-(i + 1), i, i + 1))
    inv[i - 1] = FreeWord(n, (i, i + 1, -i))
    inv[i] = FreeWord(n, (i,))
    pair = AutPair(EndoMap(n, tuple(fwd)), EndoMap(n, tuple(inv)))
    return pair if letter > 0 else pair.inverse()


# bounded, so a long-lived process does not keep every automorphism it has seen;
# a certificate re-uses each within a few dozen distinct braids
@lru_cache(maxsize=128)
def artin_action(beta: BraidWord) -> AutPair:
    """The automorphism of F_n given by beta, letters composing left to right."""
    result = AutPair.identity(beta.n)
    for letter in beta.letters:
        result = result.compose(_letter_action(beta.n, letter))
    return result


def permutation(beta: BraidWord) -> tuple[int, ...]:
    """The underlying permutation as an image tuple: position i maps to perm[i-1]."""
    perm = list(range(1, beta.n + 1))
    for letter in beta.letters:
        i = abs(letter)
        # compose with the transposition (i, i+1) on the right
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def pure_gen_braid(n: int, i: int, j: int) -> BraidWord:
    """The band generator A_{i,j} of the pure braid group, 1 <= i < j <= n."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    conj = tuple(range(j - 1, i, -1))
    letters = conj + (i, i) + tuple(-k for k in reversed(conj))
    return BraidWord(n, letters)


def full_twist(n: int, k: int) -> BraidWord:
    """The full twist of the first k strands, (s_1 ... s_{k-1})^k inside B_n."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    block = tuple(range(1, k))
    return BraidWord(n, block * k)


_BRAID_TOKEN = re.compile(
    r"(?:s([1-9][0-9]*)|A\(([1-9][0-9]*),([1-9][0-9]*)\)|twist\(([1-9][0-9]*)\))(\^-1)?\Z"
)


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse the braid grammar into a word in the elementary generators."""
    result = BraidWord.identity(n)
    for match in re.finditer(r"\S+", text):
        token = match.group(0)
        m = _BRAID_TOKEN.match(token)
        if m is None:
            raise GrammarError(f"bad braid token {token!r}", match.start())
        s_idx, a_i, a_j, tw_k, inverted = m.groups()
        try:
            if s_idx is not None:
                piece = BraidWord.gen(n, int(s_idx))
            elif a_i is not None:
                piece = pure_gen_braid(n, int(a_i), int(a_j))
            else:
                piece = full_twist(n, int(tw_k))
        except ValueError as exc:
            raise GrammarError(str(exc), match.start()) from None
        if inverted:
            piece = piece.inverse()
        result = result * piece
    return result


def format_braid(beta: BraidWord) -> str:
    return " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in beta.letters)
