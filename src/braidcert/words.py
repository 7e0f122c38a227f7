"""Free groups of finite rank: reduced words and endomorphisms.

A word in the free group F_n on generators x_1, ..., x_n is stored as a flat
tuple of nonzero signed integers: +i stands for x_i and -i for x_i^-1, with
1 <= i <= n.  Words are kept freely reduced at all times (no adjacent pair
l, -l), so two FreeWord objects are equal iff they represent the same group
element.

An endomorphism of F_n is determined by its images of the generators and acts
by substitution.  Composition is written in function order: compose(f, g)
sends w to f(g(w)).  An automorphism is stored as its EndoMap alone, with
no inverse map beside it.

The text grammar for words is whitespace-separated tokens ``x<k>`` and
``x<k>^-1``, e.g. ``x1 x2^-1 x1``.  The empty string is the identity.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from ._value import FrozenValue

class GrammarError(ValueError):
    """Raised on malformed input; carries the bare message and the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def _reduced_concat(a: Sequence[int], b: Iterable[int]) -> tuple[int, ...]:
    # a must already be reduced; cancellation can only happen at the seam.
    out = list(a)
    for letter in b:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class FreeWord(FrozenValue):
    """A freely reduced word in F_n."""

    _FIELDS = ("n", "letters")
    n: int
    letters: tuple[int, ...]

    def __init__(self, n: int, letters: Iterable[int]) -> None:
        letters = tuple(letters)
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        for letter in letters:
            if letter == 0 or abs(letter) > n:
                raise ValueError(f"letter {letter} out of range for rank {n}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced; use FreeWord.reduce")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _trusted(cls, n: int, letters: tuple[int, ...]) -> FreeWord:
        """A word whose letters are already in range and freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def identity(cls, n: int) -> FreeWord:
        return cls(n, ())

    @classmethod
    def generator(cls, n: int, i: int, power: int = 1) -> FreeWord:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range for rank {n}")
        sign = 1 if power >= 0 else -1
        return cls(n, (sign * i,) * abs(power))

    @classmethod
    def reduce(cls, n: int, letters: Iterable[int]) -> FreeWord:
        return cls(n, _reduced_concat((), letters))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: FreeWord) -> FreeWord:
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return FreeWord(self.n, _reduced_concat(self.letters, other.letters))

    def inverse(self) -> FreeWord:
        return FreeWord(self.n, tuple(-l for l in reversed(self.letters)))

    def __pow__(self, k: int) -> FreeWord:
        base = self if k >= 0 else self.inverse()
        result = FreeWord.identity(self.n)
        for _ in range(abs(k)):
            result = result * base
        return result

    def __str__(self) -> str:
        return format_word(self)


class EndoMap(FrozenValue):
    """An endomorphism of F_n given by generator images."""

    _FIELDS = ("n", "images")
    n: int
    images: tuple[FreeWord, ...]

    def __init__(self, n: int, images: Iterable[FreeWord]) -> None:
        images = tuple(images)
        if len(images) != n:
            raise ValueError(f"expected {n} generator images, got {len(images)}")
        for w in images:
            if w.n != n:
                raise ValueError("generator image has wrong rank")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> EndoMap:
        return cls(n, tuple(FreeWord.generator(n, i) for i in range(1, n + 1)))

    def __call__(self, w: FreeWord) -> FreeWord:
        # each image is reduced, so letters cancel only across the seam
        out: list[int] = []
        for letter in w.letters:
            image = self.images[abs(letter) - 1].letters
            if letter < 0:
                image = tuple(-l for l in reversed(image))
            k = 0
            while out and k < len(image) and out[-1] == -image[k]:
                out.pop()
                k += 1
            out.extend(image[k:])
        return FreeWord._trusted(self.n, tuple(out))

    def compose(self, other: EndoMap) -> EndoMap:
        """Return self after other: (self.compose(other))(w) = self(other(w))."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return EndoMap(self.n, tuple(self(w) for w in other.images))


# Not API: perfbench/tracer.py counts compositions by wrapping
# words.AutPair.compose by name, and the benchmark's files change only with
# the benchmark, so the old name of the automorphism class stays an alias.
AutPair = EndoMap


_WORD_TOKEN = re.compile(r"x([1-9][0-9]*)(\^-1)?\Z")


def parse_word(text: str, n: int) -> FreeWord:
    """Parse the word grammar: whitespace-separated ``x<k>`` / ``x<k>^-1`` tokens."""
    letters: list[int] = []
    for match in re.finditer(r"\S+", text):
        token = match.group(0)
        m = _WORD_TOKEN.match(token)
        if m is None:
            raise GrammarError(f"bad word token {token!r}", match.start())
        k = int(m.group(1))
        if k > n:
            raise GrammarError(f"generator x{k} out of range for rank {n}", match.start())
        letters.append(-k if m.group(2) else k)
    return FreeWord.reduce(n, letters)


class _Tokens(dict):
    """Letter -> token, <name><k> or <name><k>^-1, each made on first use; a
    token does not depend on the rank, so one table serves every rank."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __missing__(self, letter: int) -> str:
        token = self[letter] = f"{self.name}{letter}" if letter > 0 else f"{self.name}{-letter}^-1"
        return token


_WORD_TOKENS = _Tokens("x")


def format_word(w: FreeWord) -> str:
    return " ".join(map(_WORD_TOKENS.__getitem__, w.letters))
