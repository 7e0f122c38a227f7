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
from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in F_n."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.n < 1:
            raise ValueError(f"rank must be positive, got {self.n}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.n:
                raise ValueError(f"letter {letter} out of range for rank {self.n}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced; use FreeWord.reduce")

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


@dataclass(frozen=True)
class EndoMap:
    """An endomorphism of F_n given by generator images."""

    n: int
    images: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.n:
            raise ValueError(f"expected {self.n} generator images, got {len(self.images)}")
        for w in self.images:
            if w.n != self.n:
                raise ValueError("generator image has wrong rank")

    def __hash__(self) -> int:
        # kept, since an image can run to thousands of letters
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.n, self.images)))
        return self.__dict__["_hash"]

    @classmethod
    def identity(cls, n: int) -> EndoMap:
        return cls(n, tuple(FreeWord.generator(n, i) for i in range(1, n + 1)))

    def __call__(self, w: FreeWord) -> FreeWord:
        out: list[int] = []
        for letter in w.letters:
            image = self.images[abs(letter) - 1].letters
            if letter < 0:
                image = tuple(-l for l in reversed(image))
            for m in image:
                if out and out[-1] == -m:
                    out.pop()
                else:
                    out.append(m)
        # letters of the images, reduced on the fly
        return FreeWord._trusted(self.n, tuple(out))

    def compose(self, other: EndoMap) -> EndoMap:
        """Return self after other: (self.compose(other))(w) = self(other(w))."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return EndoMap(self.n, tuple(self(w) for w in other.images))

    def is_identity(self) -> bool:
        return all(
            w.letters == (i,) for i, w in enumerate(self.images, start=1)
        )


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


def format_word(w: FreeWord) -> str:
    return " ".join(f"x{l}" if l > 0 else f"x{-l}^-1" for l in w.letters)
