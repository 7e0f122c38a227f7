"""Exact sparse tensor algebra on H = Q^n, truncated in degree.

Elements of the truncated algebra T(H)/T_{>cap} are finite Q-linear
combinations of basis monomials X_{i_1} (x) ... (x) X_{i_m} with m <= cap,
stored sparsely as a map from index tuples to Fraction coefficients.  The
empty tuple is the unit 1.  Multiplication concatenates indices and silently
drops any term whose degree would exceed the cap.

Three coefficient shapes appear downstream and all live here:

* TruncatedTensor  -- an element of the truncated algebra;
* HomTensor        -- a linear map H -> H^(x)m, stored column by column;
* ExteriorElement  -- an element of the exterior power Lambda^q H.

The projection from tensors to exterior elements used throughout is the
signed sum over each increasing index tuple with NO division by q!; the
wedge of basis vectors X_I then corresponds to the full signed orbit sum of
X_I.  Under this convention the projection is multiplicative: the projection
of a concatenation product is the wedge of the projections.

A matrix (integer or rational, rows indexing the target) acts on H columnwise
and extends diagonally to tensor and exterior powers.  The induced action on
HomTensor is by conjugation, which takes the matrix of the inverse as an
argument instead of ever inverting anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .words import IntMatrix

Index = tuple[int, ...]
Scalar = Fraction | int

_ZERO = Fraction(0)


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
    terms: Mapping[Index, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"rank must be positive, got {self.n}")
        if self.cap < 0:
            raise ValueError(f"cap must be nonnegative, got {self.cap}")
        clean: dict[Index, Fraction] = {}
        for idx, c in self.terms.items():
            idx = tuple(idx)
            if len(idx) > self.cap:
                raise ValueError(f"index {idx} exceeds cap {self.cap}")
            if any(not 1 <= i <= self.n for i in idx):
                raise ValueError(f"index {idx} out of range for rank {self.n}")
            c = Fraction(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, n: int, cap: int) -> TruncatedTensor:
        return cls(n, cap, {})

    @classmethod
    def one(cls, n: int, cap: int) -> TruncatedTensor:
        return cls(n, cap, {(): Fraction(1)})

    @classmethod
    def basis(cls, n: int, cap: int, i: int) -> TruncatedTensor:
        return cls(n, cap, {(i,): Fraction(1)})

    def coefficient(self, idx: Index) -> Fraction:
        return self.terms.get(tuple(idx), _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def component(self, m: int) -> TruncatedTensor:
        """The degree-m homogeneous part, kept at the same cap."""
        return TruncatedTensor(
            self.n, self.cap, {i: c for i, c in self.terms.items() if len(i) == m}
        )

    def homogeneous_degree(self) -> int | None:
        degrees = {len(i) for i in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def recap(self, cap: int) -> TruncatedTensor:
        """Same element viewed at a different cap; degrees above it are dropped."""
        return TruncatedTensor(
            self.n, cap, {i: c for i, c in self.terms.items() if len(i) <= cap}
        )

    def _require_like(self, other: TruncatedTensor) -> None:
        if self.n != other.n or self.cap != other.cap:
            raise ValueError("rank or cap mismatch")

    def __add__(self, other: TruncatedTensor) -> TruncatedTensor:
        self._require_like(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, _ZERO) + c
        return TruncatedTensor(self.n, self.cap, out)

    def __sub__(self, other: TruncatedTensor) -> TruncatedTensor:
        return self + (-other)

    def __neg__(self) -> TruncatedTensor:
        return TruncatedTensor(self.n, self.cap, {i: -c for i, c in self.terms.items()})

    def __rmul__(self, scalar: Scalar) -> TruncatedTensor:
        c = Fraction(scalar)
        return TruncatedTensor(self.n, self.cap, {i: c * v for i, v in self.terms.items()})

    def __mul__(self, other: TruncatedTensor) -> TruncatedTensor:
        self._require_like(other)
        out: dict[Index, Fraction] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                if len(i1) + len(i2) > self.cap:
                    continue
                idx = i1 + i2
                out[idx] = out.get(idx, _ZERO) + c1 * c2
        return TruncatedTensor(self.n, self.cap, out)

    def act(self, matrix: Sequence[Sequence[Scalar]]) -> TruncatedTensor:
        """Apply a matrix on H diagonally in every tensor slot."""
        out: dict[Index, Fraction] = {}
        for idx, c in self.terms.items():
            partial: dict[Index, Fraction] = {(): c}
            for slot in idx:
                grown: dict[Index, Fraction] = {}
                for prefix, v in partial.items():
                    for row in range(self.n):
                        entry = matrix[row][slot - 1]
                        if entry:
                            key = prefix + (row + 1,)
                            grown[key] = grown.get(key, _ZERO) + v * Fraction(entry)
                partial = grown
            for key, v in partial.items():
                out[key] = out.get(key, _ZERO) + v
        return TruncatedTensor(self.n, self.cap, out)

    def sorted_terms(self) -> list[tuple[Index, Fraction]]:
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
        return HomTensor(
            self.n, self.out_degree,
            tuple(a + b for a, b in zip(self.columns, other.columns)),
        )

    def __sub__(self, other: HomTensor) -> HomTensor:
        return self + (-other)

    def __neg__(self) -> HomTensor:
        return HomTensor(self.n, self.out_degree, tuple(-c for c in self.columns))

    def __rmul__(self, scalar: Scalar) -> HomTensor:
        return HomTensor(self.n, self.out_degree, tuple(scalar * c for c in self.columns))

    def conjugate(self, matrix: IntMatrix, matrix_inv: IntMatrix) -> HomTensor:
        """The map  M^(x)m o self o M^-1,  with M^-1 supplied, never computed."""
        cols = []
        for j in range(self.n):
            acc = TruncatedTensor.zero(self.n, self.out_degree)
            for i in range(self.n):
                entry = matrix_inv[i][j]
                if entry:
                    acc = acc + entry * self.columns[i].act(matrix)
            cols.append(acc)
        return HomTensor(self.n, self.out_degree, tuple(cols))

    def contract(self) -> TruncatedTensor:
        """Sum over i of the terms of column i led by index i, with that index dropped."""
        out: dict[Index, Fraction] = {}
        for i, col in enumerate(self.columns, start=1):
            for idx, c in col.terms.items():
                if idx and idx[0] == i:
                    key = idx[1:]
                    out[key] = out.get(key, _ZERO) + c
        return TruncatedTensor(self.n, self.out_degree - 1, out)

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
    cols = []
    for col in inner.columns:
        acc: dict[Index, Fraction] = {}
        for idx, c in col.terms.items():
            for oidx, oc in outer.columns[idx[0] - 1].terms.items():
                key = oidx + idx[1:]
                acc[key] = acc.get(key, _ZERO) + c * oc
        cols.append(TruncatedTensor(inner.n, degree, acc))
    return HomTensor(inner.n, degree, tuple(cols))


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
    coords: Mapping[Index, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1 or self.q < 0:
            raise ValueError("bad rank or degree")
        clean: dict[Index, Fraction] = {}
        for idx, c in self.coords.items():
            idx = tuple(idx)
            if len(idx) != self.q:
                raise ValueError(f"index {idx} has wrong length for degree {self.q}")
            if any(not 1 <= i <= self.n for i in idx):
                raise ValueError(f"index {idx} out of range for rank {self.n}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index {idx} is not strictly increasing")
            c = Fraction(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "coords", clean)

    @classmethod
    def zero(cls, n: int, q: int) -> ExteriorElement:
        return cls(n, q, {})

    @classmethod
    def unit(cls, n: int) -> ExteriorElement:
        return cls(n, 0, {(): Fraction(1)})

    @classmethod
    def basis(cls, n: int, idx: Index) -> ExteriorElement:
        return cls(n, len(idx), {tuple(idx): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coords

    def coefficient(self, idx: Index) -> Fraction:
        return self.coords.get(tuple(idx), _ZERO)

    def _require_like(self, other: ExteriorElement) -> None:
        if self.n != other.n or self.q != other.q:
            raise ValueError("rank or degree mismatch")

    def __add__(self, other: ExteriorElement) -> ExteriorElement:
        self._require_like(other)
        out = dict(self.coords)
        for idx, c in other.coords.items():
            out[idx] = out.get(idx, _ZERO) + c
        return ExteriorElement(self.n, self.q, out)

    def __sub__(self, other: ExteriorElement) -> ExteriorElement:
        return self + (-other)

    def __neg__(self) -> ExteriorElement:
        return ExteriorElement(self.n, self.q, {i: -c for i, c in self.coords.items()})

    def __rmul__(self, scalar: Scalar) -> ExteriorElement:
        c = Fraction(scalar)
        return ExteriorElement(self.n, self.q, {i: c * v for i, v in self.coords.items()})

    def wedge(self, other: ExteriorElement) -> ExteriorElement:
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out: dict[Index, Fraction] = {}
        for i1, c1 in self.coords.items():
            for i2, c2 in other.coords.items():
                sorted_sign = _sort_with_sign(i1 + i2)
                if sorted_sign is None:
                    continue
                idx, sign = sorted_sign
                out[idx] = out.get(idx, _ZERO) + sign * c1 * c2
        return ExteriorElement(self.n, self.q + other.q, out)

    def act(self, matrix: Sequence[Sequence[Scalar]]) -> ExteriorElement:
        """Diagonal matrix action; computed on one tensor representative per term."""
        acc = ExteriorElement.zero(self.n, self.q)
        for idx, c in self.coords.items():
            rep = TruncatedTensor(self.n, self.q, {idx: Fraction(1)})
            acc = acc + c * alt_project(rep.act(matrix), self.q)
        return acc

    def sorted_coords(self) -> list[tuple[Index, Fraction]]:
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
    out: dict[Index, Fraction] = {}
    for idx, c in t.terms.items():
        sorted_sign = _sort_with_sign(idx)
        if sorted_sign is None:
            continue
        key, sign = sorted_sign
        out[key] = out.get(key, _ZERO) + sign * c
    return ExteriorElement(t.n, q, out)


def exterior_basis(n: int, q: int) -> list[Index]:
    """All strictly increasing q-tuples in [1, n], lexicographically."""
    from itertools import combinations

    return [tuple(c) for c in combinations(range(1, n + 1), q)]
