"""Braid groups: a braid is its word, keyed by its Dynnikov coordinates.

A braid on n strands is a word in the elementary generators s_1, ..., s_{n-1},
stored as signed integers (+i for s_i, -i for its inverse).  No rewriting is
ever performed on braid words, and a BraidWord is the group element itself:
products, inverses and embeddings act on the letters, while equality,
hashing, commutation and is_identity read one key, dynnikov(beta), cached on
the word.  B_n acts on Z^2n by piecewise-linear integer maps, each letter
touching four coordinates through max and min, and two words are the same
braid exactly when they send (0, 1, ..., 0, 1) to the same vector (Dynnikov
2002; Dehornoy, "Efficient solutions to the braid isotopy problem", 2008).
The bit length of the entries is linear in the word.  Compare .letters to
compare spellings.

The faithful action on F_n sends s_i to the automorphism

    x_i |-> x_{i+1},    x_{i+1} |-> x_{i+1}^-1 x_i x_{i+1},

fixing the other generators, and a word acts by composing the actions of its
letters in function order: the action of uv is (action of u) o (action of v).
Its images grow exponentially with the word, so artin_action builds the map
only where free words are the output (.aut); no decision reads it.  An
automorphism is stored as this one forward map; its inverse is the action of
the inverse word.

Distinguished pure braids:

* pure_gen_braid(n, i, j), the band generator A_{i,j} for 1 <= i < j <= n,
  spelled  s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1;
* full_twist(n, k), the full twist (s_1 ... s_{k-1})^k of the first k
  strands, central among braids supported on those strands.

The underlying-permutation map sends s_i to the transposition (i, i+1) and is
computed directly, composing in the same order as the action; it is the
action on H = Z^n, sending the class of x_i to that of x_{perm[i-1]}, and a
word caches it as .perm on first use.

Text grammar: whitespace-separated tokens ``s<k>``, ``s<k>^-1``, ``A(i,j)``,
``A(i,j)^-1``, ``twist(k)``, ``twist(k)^-1``.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Iterable

from ._value import FrozenValue
from .words import EndoMap, FreeWord, GrammarError, _Tokens


class BraidWord(FrozenValue):
    """A word in the elementary braid generators of B_n, compared as a braid."""

    _FIELDS = ("n", "letters")
    n: int
    letters: tuple[int, ...]

    def __init__(self, n: int, letters: Iterable[int]) -> None:
        letters = tuple(letters)
        if n < 1:
            raise ValueError(f"strand count must be positive, got {n}")
        for letter in letters:
            if letter == 0 or abs(letter) > n - 1:
                raise ValueError(f"letter {letter} out of range for {n} strands")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

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

    @cached_property
    def key(self) -> tuple[int, ...]:
        return dynnikov(self)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        return permutation(self)

    @property
    def aut(self) -> EndoMap:
        return artin_action(self)

    @property
    def is_identity(self) -> bool:
        return self.key == (0, 1) * self.n

    def acts_trivially(self) -> bool:
        return self.perm == tuple(range(1, self.n + 1))

    def commutes_with(self, other: BraidWord) -> bool:
        """Whether self * other == other * self."""
        return (self * other).key == (other * self).key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BraidWord) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@lru_cache(maxsize=None)
def _letter_action(n: int, letter: int) -> EndoMap:
    """The automorphism of F_n given by the single letter s_letter."""
    i = abs(letter)
    images = [FreeWord.generator(n, k) for k in range(1, n + 1)]
    if letter > 0:
        images[i - 1:i + 1] = FreeWord(n, (i + 1,)), FreeWord(n, (-(i + 1), i, i + 1))
    else:
        images[i - 1:i + 1] = FreeWord(n, (i, i + 1, -i)), FreeWord(n, (i,))
    return EndoMap(n, images)


IMAGE_BUDGET = 10**6  # letters over all generator images of one artin_action


class ImageBudgetError(ValueError):
    """The generator images of an automorphism outgrew IMAGE_BUDGET."""


def artin_action(beta: BraidWord) -> EndoMap:
    """The automorphism of F_n given by beta, letters composing left to right.

    Only the forward map is built: the inverse automorphism is the action of
    beta.inverse().  The images are measured after each letter, and past
    IMAGE_BUDGET letters in all an ImageBudgetError stops the composition."""
    result = EndoMap.identity(beta.n)
    for k, letter in enumerate(beta.letters, 1):
        result = result.compose(_letter_action(beta.n, letter))
        if sum(len(w.letters) for w in result.images) > IMAGE_BUDGET:
            raise ImageBudgetError(f"the generator images exceed the budget of {IMAGE_BUDGET:,}"
                                   f" letters after letter {k} of {len(beta.letters)}")
    return result


def dynnikov(beta: BraidWord) -> tuple[int, ...]:
    """The image of (0, 1) * n under beta, letters acting left to right: two
    words on n strands are the same braid exactly when their images agree.

    s_i moves the pairs (a_i, b_i), (a_{i+1}, b_{i+1}) at 0-based index
    2i - 2.  The positive and negative parts max(x, 0), min(x, 0) are
    written as conditionals, which save a function call each."""
    v = [0, 1] * beta.n
    for letter in beta.letters:
        k = 2 * abs(letter) - 2
        a1, b1, a2, b2 = v[k:k + 4]
        p1, m1 = (b1, 0) if b1 > 0 else (0, b1)
        p2, m2 = (b2, 0) if b2 > 0 else (0, b2)
        if letter > 0:
            t = a1 - m1 - a2 + p2
            tp = t if t > 0 else 0
            v[k:k + 4] = (a1 + p1 + (p2 - t if p2 > t else 0), b2 - tp,
                          a2 + m2 + (m1 + t if m1 + t < 0 else 0), b1 + tp)
        else:
            t = a1 + m1 - a2 - p2
            tm = t if t < 0 else 0
            v[k:k + 4] = (a1 - p1 - (p2 + t if p2 + t > 0 else 0), b2 + tm,
                          a2 - m2 - (m1 - t if m1 < t else 0), b1 - tm)
    return tuple(v)


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
    """Parse the braid grammar into a word in the elementary generators, built once."""
    BraidWord.identity(n)  # refuses a bad strand count before any token
    letters: list[int] = []
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
        letters.extend(piece.letters)
    return BraidWord(n, letters)


_BRAID_TOKENS = _Tokens("s")


def format_braid(beta: BraidWord) -> str:
    return " ".join(map(_BRAID_TOKENS.__getitem__, beta.letters))
