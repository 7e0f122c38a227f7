"""Exact sparse tensor algebra on H = Q^n, truncated in degree.

Elements of the truncated algebra T(H)/T_{>cap} are finite Q-linear
combinations of basis monomials X_{i_1} (x) ... (x) X_{i_m} with m <= cap,
stored sparsely as a map from index tuples to exact rational coefficients.
The empty tuple is the unit 1.  Multiplication concatenates indices and
never forms a term whose degree would exceed the cap.

Coefficients are exact rationals: an int when integral and a Fraction
otherwise.  The public constructors accept any numbers.Rational, store an
integral value as an int, and raise TypeError on anything else, floats and
strings included.  Arithmetic on int coefficients stays int, so every
quantity derived from the standard expansion is an int; a Fraction that
becomes integral in arithmetic stays a Fraction, which changes no value and
no printed output.

Three coefficient shapes appear downstream and all live here:

* TruncatedTensor  -- an element of the truncated algebra;
* HomTensor        -- a linear map H -> H^(x)m, stored column by column;
* ExteriorElement  -- an element of the exterior power Lambda^q H.

The public constructors check every index, the cap and the homogeneity of
Hom columns; the classmethod factories go through them.  Results of
arithmetic are built by the private _trusted constructors, which only drop
zero coefficients: the operations keep indices in range and under the cap
by construction.

The projection from tensors to exterior elements used throughout is the
signed sum over each increasing index tuple with NO division by q!; the
wedge of basis vectors X_I then corresponds to the full signed orbit sum of
X_I.  Under this convention the projection is multiplicative: the projection
of a concatenation product is the wedge of the projections.

Braids act on H by a permutation, given as an image tuple: X_i goes to
X_{perm[i-1]}.  The action relabels indices (and re-sorts them, with sign,
on exterior elements), so it does no arithmetic and adds no term; on
HomTensor it is conjugation.  A perm that is not a permutation of 1..n is
a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Any, Mapping, Sequence

Index = tuple[int, ...]
Scalar = Fraction | int


def rational(c: object) -> Scalar:
    """A coefficient checked to be exact: an int when integral, else a Fraction.

    Raises TypeError for anything that is not a numbers.Rational, such as a
    float or a string.
    """
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Rational):
        if c.denominator == 1:
            return int(c.numerator)
        return c if isinstance(c, Fraction) else Fraction(c.numerator, c.denominator)
    raise TypeError(f"coefficient must be an exact rational, got {type(c).__name__} {c!r}")


def _check_permutation(perm: object, n: int) -> None:
    """Raise ValueError unless perm is a tuple holding each of 1..n once."""
    if not isinstance(perm, tuple) or len(perm) != n or set(perm) != set(range(1, n + 1)):
        raise ValueError(f"expected a permutation of 1..{n} as an image tuple, got {perm!r}")


def _relabelled(terms: Mapping[Index, Scalar], perm: tuple[int, ...]) -> dict[Index, Scalar]:
    # a bijection on index tuples, so no two terms meet
    return {tuple(perm[i - 1] for i in idx): c for idx, c in terms.items()}


def _sort_with_sign(idx: Index) -> tuple[Index, int] | None:
    """Sort idx, returning (sorted tuple, permutation sign); None on a repeat."""
    arr = list(idx)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None
    return tuple(arr), sign


@dataclass(frozen=True)
class TruncatedTensor:
    """An element of T(H)/T_{>cap} for H = Q^n."""

    n: int
    cap: int
    terms: Mapping[Index, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"rank must be positive, got {self.n}")
        if self.cap < 0:
            raise ValueError(f"cap must be nonnegative, got {self.cap}")
        clean: dict[Index, Scalar] = {}
        for idx, c in self.terms.items():
            idx = tuple(idx)
            if len(idx) > self.cap:
                raise ValueError(f"index {idx} exceeds cap {self.cap}")
            if any(not 1 <= i <= self.n for i in idx):
                raise ValueError(f"index {idx} out of range for rank {self.n}")
            c = rational(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n: int, cap: int, terms: Mapping[Index, Scalar]) -> TruncatedTensor:
        """A result of arithmetic, whose indices are in range and under the cap
        by construction; only zero coefficients are dropped."""
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "cap", cap)
        object.__setattr__(t, "terms", {i: c for i, c in terms.items() if c})
        return t

    @classmethod
    def zero(cls, n: int, cap: int) -> TruncatedTensor:
        return cls(n, cap, {})

    @classmethod
    def one(cls, n: int, cap: int) -> TruncatedTensor:
        return cls(n, cap, {(): 1})

    @classmethod
    def basis(cls, n: int, cap: int, i: int) -> TruncatedTensor:
        return cls(n, cap, {(i,): 1})

    def coefficient(self, idx: Index) -> Scalar:
        return self.terms.get(tuple(idx), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def component(self, m: int) -> TruncatedTensor:
        """The degree-m homogeneous part, kept at the same cap."""
        return TruncatedTensor._trusted(
            self.n, self.cap, {i: c for i, c in self.terms.items() if len(i) == m}
        )

    def homogeneous_degree(self) -> int | None:
        degrees = {len(i) for i in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def recap(self, cap: int) -> TruncatedTensor:
        """Same element viewed at a different cap; degrees above it are dropped."""
        if cap == self.cap:
            return self
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        return TruncatedTensor._trusted(
            self.n, cap, {i: c for i, c in self.terms.items() if len(i) <= cap}
        )

    def _require_like(self, other: TruncatedTensor) -> None:
        if self.n != other.n or self.cap != other.cap:
            raise ValueError("rank or cap mismatch")

    def __add__(self, other: TruncatedTensor) -> TruncatedTensor:
        self._require_like(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0) + c
        return TruncatedTensor._trusted(self.n, self.cap, out)

    def __sub__(self, other: TruncatedTensor) -> TruncatedTensor:
        return self + (-other)

    def __neg__(self) -> TruncatedTensor:
        return TruncatedTensor._trusted(self.n, self.cap, {i: -c for i, c in self.terms.items()})

    def __rmul__(self, scalar: Scalar) -> TruncatedTensor:
        c = rational(scalar)
        return TruncatedTensor._trusted(
            self.n, self.cap, {i: c * v for i, v in self.terms.items()}
        )

    def __mul__(self, other: TruncatedTensor) -> TruncatedTensor:
        self._require_like(other)
        cap = self.cap
        # fits[k]: the terms of other of degree <= k, so pairs above the cap are never visited
        by_degree: list[list[tuple[Index, Scalar]]] = [[] for _ in range(cap + 1)]
        for item in other.terms.items():
            by_degree[len(item[0])].append(item)
        fits = []
        running: list[tuple[Index, Scalar]] = []
        for terms in by_degree:
            running = running + terms
            fits.append(running)
        out: dict[Index, Scalar] = {}
        get = out.get
        for i1, c1 in self.terms.items():
            for i2, c2 in fits[cap - len(i1)]:
                idx = i1 + i2
                out[idx] = get(idx, 0) + c1 * c2
        return TruncatedTensor._trusted(self.n, cap, out)

    def act(self, perm: tuple[int, ...]) -> TruncatedTensor:
        """Relabel every index i as perm[i-1]."""
        _check_permutation(perm, self.n)
        return TruncatedTensor._trusted(self.n, self.cap, _relabelled(self.terms, perm))

    def sorted_terms(self) -> list[tuple[Index, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "terms": [
                {"idx": list(idx), "c": f"{c.numerator}/{c.denominator}"}
                for idx, c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, c in self.sorted_terms():
            mono = "1" if not idx else "*".join(f"X{i}" for i in idx)
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


@dataclass(frozen=True)
class HomTensor:
    """A linear map H -> H^(x)m, column j the image of X_j, all columns homogeneous."""

    n: int
    out_degree: int
    columns: tuple[TruncatedTensor, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.columns)}")
        fixed = []
        for col in self.columns:
            if col.n != self.n:
                raise ValueError("column rank mismatch")
            if any(len(i) != self.out_degree for i in col.terms):
                raise ValueError(f"column not homogeneous of degree {self.out_degree}")
            fixed.append(col.recap(self.out_degree))
        object.__setattr__(self, "columns", tuple(fixed))

    @classmethod
    def _trusted(cls, n: int, out_degree: int, columns: tuple[TruncatedTensor, ...]) -> HomTensor:
        """A result of arithmetic: n columns, homogeneous of out_degree and at that cap."""
        u = object.__new__(cls)
        object.__setattr__(u, "n", n)
        object.__setattr__(u, "out_degree", out_degree)
        object.__setattr__(u, "columns", columns)
        return u

    @classmethod
    def zero(cls, n: int, out_degree: int) -> HomTensor:
        z = TruncatedTensor.zero(n, out_degree)
        return cls(n, out_degree, (z,) * n)

    def is_zero(self) -> bool:
        return all(col.is_zero() for col in self.columns)

    def _require_like(self, other: HomTensor) -> None:
        if self.n != other.n or self.out_degree != other.out_degree:
            raise ValueError("rank or degree mismatch")

    def __add__(self, other: HomTensor) -> HomTensor:
        self._require_like(other)
        return HomTensor._trusted(
            self.n, self.out_degree,
            tuple(a + b for a, b in zip(self.columns, other.columns)),
        )

    def __sub__(self, other: HomTensor) -> HomTensor:
        return self + (-other)

    def __neg__(self) -> HomTensor:
        return HomTensor._trusted(self.n, self.out_degree, tuple(-c for c in self.columns))

    def __rmul__(self, scalar: Scalar) -> HomTensor:
        return HomTensor._trusted(
            self.n, self.out_degree, tuple(scalar * c for c in self.columns)
        )

    def conjugate(self, perm: tuple[int, ...]) -> HomTensor:
        """The map  P^(x)m o self o P^-1  for the permutation P: column i,
        relabelled, moves to position perm[i-1]."""
        _check_permutation(perm, self.n)
        placed = {
            target: TruncatedTensor._trusted(self.n, self.out_degree, _relabelled(col.terms, perm))
            for col, target in zip(self.columns, perm)
        }
        return HomTensor._trusted(
            self.n, self.out_degree, tuple(placed[j] for j in range(1, self.n + 1))
        )

    def contract(self) -> TruncatedTensor:
        """Sum over i of the terms of column i led by index i, with that index dropped."""
        if self.out_degree < 1:
            raise ValueError("a map of degree 0 has no slot to contract")
        out: dict[Index, Scalar] = {}
        for i, col in enumerate(self.columns, start=1):
            for idx, c in col.terms.items():
                if idx[0] == i:
                    key = idx[1:]
                    out[key] = out.get(key, 0) + c
        return TruncatedTensor._trusted(self.n, self.out_degree - 1, out)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "degree": self.out_degree,
            "columns": [col.to_json_dict() for col in self.columns],
        }


def compose_first_slot(outer: HomTensor, inner: HomTensor) -> HomTensor:
    """(outer (x) 1^(x)(m-1)) o inner: feed the first slot of inner through outer."""
    if outer.n != inner.n:
        raise ValueError("rank mismatch")
    degree = inner.out_degree + outer.out_degree - 1
    heads = [col.terms.items() for col in outer.columns]
    cols = []
    for col in inner.columns:
        acc: dict[Index, Scalar] = {}
        get = acc.get
        for idx, c in col.terms.items():
            tail = idx[1:]
            for oidx, oc in heads[idx[0] - 1]:
                key = oidx + tail
                acc[key] = get(key, 0) + c * oc
        cols.append(TruncatedTensor._trusted(inner.n, degree, acc))
    return HomTensor._trusted(inner.n, degree, tuple(cols))


def compose_maps(factors: Sequence[HomTensor]) -> HomTensor:
    """Nest p maps H -> H^(x)2 into one map H -> H^(x)(p+1).

    factors[0] is outermost: it receives the first tensor slot of everything
    built from the later factors.  A single factor is returned unchanged.
    """
    if not factors:
        raise ValueError("need at least one factor")
    current = factors[-1]
    for outer in reversed(factors[:-1]):
        current = compose_first_slot(outer, current)
    return current


@dataclass(frozen=True)
class ExteriorElement:
    """An element of Lambda^q H, coordinates on strictly increasing index tuples."""

    n: int
    q: int
    coords: Mapping[Index, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1 or self.q < 0:
            raise ValueError("bad rank or degree")
        clean: dict[Index, Scalar] = {}
        for idx, c in self.coords.items():
            idx = tuple(idx)
            if len(idx) != self.q:
                raise ValueError(f"index {idx} has wrong length for degree {self.q}")
            if any(not 1 <= i <= self.n for i in idx):
                raise ValueError(f"index {idx} out of range for rank {self.n}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index {idx} is not strictly increasing")
            c = rational(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "coords", clean)

    @classmethod
    def _trusted(cls, n: int, q: int, coords: Mapping[Index, Scalar]) -> ExteriorElement:
        """A result of arithmetic, on increasing in-range q-tuples by construction;
        only zero coefficients are dropped."""
        e = object.__new__(cls)
        object.__setattr__(e, "n", n)
        object.__setattr__(e, "q", q)
        object.__setattr__(e, "coords", {i: c for i, c in coords.items() if c})
        return e

    @classmethod
    def zero(cls, n: int, q: int) -> ExteriorElement:
        return cls(n, q, {})

    @classmethod
    def unit(cls, n: int) -> ExteriorElement:
        return cls(n, 0, {(): 1})

    @classmethod
    def basis(cls, n: int, idx: Index) -> ExteriorElement:
        return cls(n, len(idx), {tuple(idx): 1})

    def is_zero(self) -> bool:
        return not self.coords

    def coefficient(self, idx: Index) -> Scalar:
        return self.coords.get(tuple(idx), 0)

    def _require_like(self, other: ExteriorElement) -> None:
        if self.n != other.n or self.q != other.q:
            raise ValueError("rank or degree mismatch")

    def __add__(self, other: ExteriorElement) -> ExteriorElement:
        self._require_like(other)
        out = dict(self.coords)
        for idx, c in other.coords.items():
            out[idx] = out.get(idx, 0) + c
        return ExteriorElement._trusted(self.n, self.q, out)

    def __sub__(self, other: ExteriorElement) -> ExteriorElement:
        return self + (-other)

    def __neg__(self) -> ExteriorElement:
        return ExteriorElement._trusted(self.n, self.q, {i: -c for i, c in self.coords.items()})

    def __rmul__(self, scalar: Scalar) -> ExteriorElement:
        c = rational(scalar)
        return ExteriorElement._trusted(
            self.n, self.q, {i: c * v for i, v in self.coords.items()}
        )

    def wedge(self, other: ExteriorElement) -> ExteriorElement:
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out: dict[Index, Scalar] = {}
        for i1, c1 in self.coords.items():
            for i2, c2 in other.coords.items():
                sorted_sign = _sort_with_sign(i1 + i2)
                if sorted_sign is None:
                    continue
                idx, sign = sorted_sign
                out[idx] = out.get(idx, 0) + sign * c1 * c2
        return ExteriorElement._trusted(self.n, self.q + other.q, out)

    def act(self, perm: tuple[int, ...]) -> ExteriorElement:
        """Relabel every index i as perm[i-1] and re-sort each tuple, with its sign."""
        _check_permutation(perm, self.n)
        out: dict[Index, Scalar] = {}
        for idx, c in _relabelled(self.coords, perm).items():
            # relabelled indices stay distinct, so the sort never finds a repeat
            key, sign = _sort_with_sign(idx)
            out[key] = sign * c
        return ExteriorElement._trusted(self.n, self.q, out)

    def sorted_coords(self) -> list[tuple[Index, Scalar]]:
        return sorted(self.coords.items())

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "q": self.q,
            "coords": [
                {"idx": list(idx), "c": f"{c.numerator}/{c.denominator}"}
                for idx, c in self.sorted_coords()
            ],
        }


def alt_project(t: TruncatedTensor, q: int | None = None) -> ExteriorElement:
    """Project a homogeneous tensor onto Lambda^q: signed coefficient sum per
    increasing tuple, without dividing by q!."""
    if q is None:
        q = t.homogeneous_degree()
        if q is None:
            raise ValueError("degree cannot be inferred; pass q explicitly")
    elif any(len(i) != q for i in t.terms):
        raise ValueError(f"tensor is not homogeneous of degree {q}")
    out: dict[Index, Scalar] = {}
    for idx, c in t.terms.items():
        sorted_sign = _sort_with_sign(idx)
        if sorted_sign is None:
            continue
        key, sign = sorted_sign
        out[key] = out.get(key, 0) + sign * c
    return ExteriorElement._trusted(t.n, q, out)


def exterior_basis(n: int, q: int) -> list[Index]:
    """All strictly increasing q-tuples in [1, n], lexicographically."""
    from itertools import combinations

    return [tuple(c) for c in combinations(range(1, n + 1), q)]
