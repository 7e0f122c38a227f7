"""Exact sparse tensor algebra on H = Q^n, truncated in degree.

Every value here is stored one way: a rank n, a grade, and a dict `terms`
from index keys to nonzero exact rational coefficients.  The three shapes
differ only in their grade field and in which index tuples they accept:

* TruncatedTensor(n, cap, terms)   -- an element of T(H)/T_{>cap}: a tuple
  (i_1, ..., i_m) with m <= cap is the monomial X_{i_1} (x) ... (x) X_{i_m},
  the empty tuple is the unit 1;
* HomTensor(n, out_degree, terms)  -- a linear map H -> H^(x)m, led by its
  argument: (j, i_1, ..., i_m) is the coefficient of X_{i_1}...X_{i_m} in the
  image of X_j;
* ExteriorElement(n, q, terms)     -- an element of Lambda^q H, on strictly
  increasing q-tuples, each keyed by its bitmask (bit i-1 for X_i); tuples
  appear only in the constructor, coefficient, sorted_terms, JSON and repr.

The checks, the linear arithmetic and the JSON term list live once, in the
shared core.  Multiplication concatenates indices and never forms a term
whose degree would exceed the cap.

Coefficients are exact rationals: an int when integral and a Fraction
otherwise.  The public constructors accept any numbers.Rational, store an
integral value as an int, and raise TypeError on anything else, floats and
strings included.  Arithmetic on int coefficients stays int, so every
quantity derived from the standard expansion is an int; a Fraction that
becomes integral in arithmetic stays a Fraction, which changes no value and
no printed output.

The public constructors, and the classmethod factories that go through
them, check every index against the rank and the shape.  Results of
arithmetic are built by the private _trusted constructor, which only drops
zero coefficients: the operations keep indices in range and in shape by
construction.

The projection from tensors to exterior elements used throughout is the
signed sum over each increasing index tuple with NO division by q!; the
wedge of basis vectors X_I then corresponds to the full signed orbit sum of
X_I.  Under this convention the projection is multiplicative: the projection
of a concatenation product is the wedge of the projections.

Braids act on H by a permutation, given as an image tuple: X_i goes to
X_{perm[i-1]}.  The action relabels every index (and re-sorts them, with
sign, on exterior elements), so it does no arithmetic and adds no term; on a
HomTensor, relabelling the argument's index too makes it conjugation.  A
perm that is not a permutation of 1..n is a ValueError.  Every exterior sign,
of a wedge, an action, a projection or a sort, is an inversion parity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from numbers import Rational
from typing import Any, ClassVar, Iterable, Mapping, Sequence, TypeVar

from ._value import FrozenValue

Index = tuple[int, ...]
Scalar = Fraction | int
S = TypeVar("S", bound="_Sparse")


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


def _odd_above(a: int) -> int:
    """The positions below an odd number of bits of a: for disjoint masks a
    and b, X_a ^ X_b = -X_(a|b) exactly when _odd_above(a) & b has an odd
    bit count, the parity of the pairs that a lists before b out of order."""
    out = 0
    while a:
        out ^= (a & -a) - 1
        a &= a - 1
    return out


def sort_sign(indices: Iterable[int]) -> tuple[int, int] | None:
    """The mask of distinct indices, bit i-1 for index i, and the sign of the
    permutation that sorts them, by the rule of _odd_above; None on a repeat."""
    mask = odd = 0
    for i in indices:
        if mask >> i - 1 & 1:
            return None
        odd ^= _odd_above(mask) >> i - 1 & 1
        mask |= 1 << i - 1
    return mask, -1 if odd else 1


def _indices(mask: int) -> Index:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class _Sparse(FrozenValue):
    """The core of the three shapes, each an immutable value with the fields
    (n, <grade>, terms); _GRADE names the grade field and _check_shape is the
    shape's rule for one index tuple.  The constructor checks every term,
    drops zero coefficients and makes each one exact."""

    _GRADE: ClassVar[str]
    n: int
    terms: Mapping[Index, Scalar]

    def __init__(self, n: int, grade: int, terms: Mapping[Index, Scalar] | None = None) -> None:
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        if grade < 0:
            raise ValueError(f"{self._GRADE} must be nonnegative, got {grade}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, self._GRADE, grade)  # read by _check_shape
        clean: dict[Index, Scalar] = {}
        for idx, c in (terms or {}).items():
            idx = tuple(idx)
            self._check_shape(idx)
            if any(not 1 <= i <= n for i in idx):
                raise ValueError(f"index {idx} out of range for rank {n}")
            c = rational(c)
            if c:
                clean[self._key(idx)] = c
        object.__setattr__(self, "terms", clean)

    _key = staticmethod(tuple)  # the storage key of a checked index tuple

    @property
    def _grade(self) -> int:
        return getattr(self, self._GRADE)

    @classmethod
    def _trusted(cls: type[S], n: int, grade: int, terms: Mapping[Index, Scalar]) -> S:
        """A result of arithmetic, whose indices are in range and in shape by
        construction; only zero coefficients are dropped."""
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, cls._GRADE, grade)
        object.__setattr__(t, "terms", {i: c for i, c in terms.items() if c})
        return t

    @classmethod
    def zero(cls: type[S], n: int, grade: int) -> S:
        return cls(n, grade, {})

    def coefficient(self, idx: Index) -> Scalar:
        return self.terms.get(self._key(tuple(idx)), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def _require_like(self, other: _Sparse) -> None:
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n or self._grade != other._grade:
            raise ValueError(f"rank or {self._GRADE} mismatch")

    def __add__(self: S, other: S) -> S:
        self._require_like(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0) + c
        return self._trusted(self.n, self._grade, out)

    def __sub__(self: S, other: S) -> S:
        return self + (-other)

    def __neg__(self: S) -> S:
        return self._trusted(self.n, self._grade, {i: -c for i, c in self.terms.items()})

    def __rmul__(self: S, scalar: Scalar) -> S:
        c = rational(scalar)
        return self._trusted(self.n, self._grade, {i: c * v for i, v in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Index, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def _json_terms(self) -> list[dict[str, Any]]:
        return [
            {"idx": list(idx), "c": f"{c.numerator}/{c.denominator}"}
            for idx, c in self.sorted_terms()
        ]


class TruncatedTensor(_Sparse):
    """An element of T(H)/T_{>cap} for H = Q^n."""

    _GRADE = "cap"
    _FIELDS = ("n", "cap", "terms")
    n: int
    cap: int
    terms: Mapping[Index, Scalar]

    def _check_shape(self, idx: Index) -> None:
        if len(idx) > self.cap:
            raise ValueError(f"index {idx} exceeds cap {self.cap}")

    @classmethod
    def one(cls, n: int, cap: int) -> TruncatedTensor:
        return cls(n, cap, {(): 1})

    @classmethod
    def basis(cls, n: int, cap: int, i: int) -> TruncatedTensor:
        return cls(n, cap, {(i,): 1})

    def component(self, m: int) -> TruncatedTensor:
        """The degree-m homogeneous part, kept at the same cap."""
        return TruncatedTensor._trusted(
            self.n, self.cap, {i: c for i, c in self.terms.items() if len(i) == m}
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

    def to_json_dict(self) -> dict[str, Any]:
        return {"n": self.n, "terms": self._json_terms()}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, c in self.sorted_terms():
            mono = "1" if not idx else "*".join(f"X{i}" for i in idx)
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


class HomTensor(_Sparse):
    """A linear map H -> H^(x)m: the term (j, i_1, ..., i_m) is the coefficient
    of X_{i_1}...X_{i_m} in the image of X_j."""

    _GRADE = "out_degree"
    _FIELDS = ("n", "out_degree", "terms")
    n: int
    out_degree: int
    terms: Mapping[Index, Scalar]

    def _check_shape(self, idx: Index) -> None:
        if len(idx) != self.out_degree + 1:
            raise ValueError(f"index {idx} needs an argument and {self.out_degree} image indices")

    @classmethod
    def from_columns(cls, n: int, m: int, columns: Sequence[TruncatedTensor]) -> HomTensor:
        """The map whose column j, homogeneous of degree m, is the image of X_j;
        the constructor rejects a column that is not homogeneous."""
        if len(columns) != n or any(col.n != n for col in columns):
            raise ValueError(f"expected {n} columns of rank {n}")
        return cls(n, m, {
            (j, *idx): c for j, col in enumerate(columns, start=1) for idx, c in col.terms.items()
        })

    @property
    def columns(self) -> tuple[TruncatedTensor, ...]:
        """Column j is the image of X_j, a tensor at cap out_degree."""
        cols: list[dict[Index, Scalar]] = [{} for _ in range(self.n)]
        for idx, c in self.terms.items():
            cols[idx[0] - 1][idx[1:]] = c
        return tuple(TruncatedTensor._trusted(self.n, self.out_degree, col) for col in cols)

    def conjugate(self, perm: tuple[int, ...]) -> HomTensor:
        """The map  P^(x)m o self o P^-1  for the permutation P: every index,
        the argument's included, relabelled."""
        _check_permutation(perm, self.n)
        return HomTensor._trusted(self.n, self.out_degree, _relabelled(self.terms, perm))

    def contract(self) -> TruncatedTensor:
        """Sum of the terms whose argument leads the image, with both indices dropped."""
        if self.out_degree < 1:
            raise ValueError("a map of degree 0 has no slot to contract")
        out: dict[Index, Scalar] = {}
        for idx, c in self.terms.items():
            if idx[0] == idx[1]:
                key = idx[2:]
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
    heads: dict[int, list[tuple[Index, Scalar]]] = {}
    for idx, c in outer.terms.items():
        heads.setdefault(idx[0], []).append((idx[1:], c))
    acc: dict[Index, Scalar] = {}
    get = acc.get
    for idx, c in inner.terms.items():
        arg, tail = idx[:1], idx[2:]
        for oidx, oc in heads.get(idx[1], ()):
            key = arg + oidx + tail
            acc[key] = get(key, 0) + c * oc
    return HomTensor._trusted(inner.n, inner.out_degree + outer.out_degree - 1, acc)


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


class ExteriorElement(_Sparse):
    """An element of Lambda^q H, coefficients keyed by bitmask, bit i-1 for X_i."""

    _GRADE = "q"
    _FIELDS = ("n", "q", "terms")
    n: int
    q: int
    terms: Mapping[int, Scalar]

    def _check_shape(self, idx: Index) -> None:
        if len(idx) != self.q:
            raise ValueError(f"index {idx} has wrong length for degree {self.q}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"index {idx} is not strictly increasing")

    @staticmethod
    def _key(idx: Index) -> int | None:
        """The bitmask of a strictly increasing tuple of positive indices, else None."""
        return sum(1 << i - 1 for i in idx) if all(a < b for a, b in zip((0, *idx), idx)) else None

    @classmethod
    def unit(cls, n: int) -> ExteriorElement:
        return cls(n, 0, {(): 1})

    @classmethod
    def basis(cls, n: int, idx: Index) -> ExteriorElement:
        return cls(n, len(idx), {tuple(idx): 1})

    def sorted_terms(self) -> list[tuple[Index, Scalar]]:
        return sorted((_indices(mask), c) for mask, c in self.terms.items())

    def wedge(self, other: ExteriorElement) -> ExteriorElement:
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out: dict[int, Scalar] = {}
        get = out.get
        for a, c1 in self.terms.items():
            odd_above = _odd_above(a)
            for b, c2 in other.terms.items():
                if a & b:
                    continue
                c = c1 * c2
                out[a | b] = get(a | b, 0) + (-c if (odd_above & b).bit_count() & 1 else c)
        return ExteriorElement._trusted(self.n, self.q + other.q, out)

    def act(self, perm: tuple[int, ...]) -> ExteriorElement:
        """Relabel every index i as perm[i-1] and re-sort each tuple, with its sign."""
        _check_permutation(perm, self.n)
        out: dict[int, Scalar] = {}
        for mask, c in self.terms.items():
            # relabelled indices stay distinct, so the sort never finds a repeat
            key, sign = sort_sign(perm[i - 1] for i in _indices(mask))
            out[key] = sign * c
        return ExteriorElement._trusted(self.n, self.q, out)

    def to_json_dict(self) -> dict[str, Any]:
        return {"n": self.n, "q": self.q, "coords": self._json_terms()}

    def __repr__(self) -> str:
        return f"ExteriorElement(n={self.n}, q={self.q}, terms={dict(self.sorted_terms())})"


def alt_project(t: TruncatedTensor, q: int) -> ExteriorElement:
    """Project a homogeneous tensor onto Lambda^q: signed coefficient sum per
    increasing tuple, without dividing by q!."""
    if any(len(i) != q for i in t.terms):
        raise ValueError(f"tensor is not homogeneous of degree {q}")
    out: dict[int, Scalar] = {}
    for idx, c in t.terms.items():
        if (mask_sign := sort_sign(idx)) is not None:
            key, sign = mask_sign
            out[key] = out.get(key, 0) + sign * c
    return ExteriorElement._trusted(t.n, q, out)


def nested_traces(maps: Sequence[HomTensor]) -> dict[int, ExteriorElement]:
    """Tr N(U) in Lambda^|U| H for each nonempty set U of positions in maps,
    a list of maps H -> H^(x)2 of one rank, keyed by the bitmask of U.

    N({g}) = M_g, the matrix with entry (a, b) = sum_c maps[g][(b, a, c)] X_c,
    and N(U) = sum over g in U of (-1)^pos(g) M_g N(U - g), pos counting from
    0 in U.  As alt_project is an algebra map, Tr N(U) is the projected
    contraction of the signed sum over orderings of U of the maps nested
    through the first slot, the first outermost.
    """
    n = maps[0].n if maps else 0
    if any(t.n != n or t.out_degree != 2 for t in maps):
        raise ValueError("expected maps H -> H^(x)2 of one rank")
    # the nonzero entries of N(U) by row: {a: [(column, mask, coefficient)]}; N({}) = 1
    nested = {0: {a: [(a, 0, 1)] for a in range(1, n + 1)}}
    out: dict[int, ExteriorElement] = {}
    for mask in range(1, 1 << len(maps)):
        acc: dict[tuple[int, int, int], Scalar] = {}
        get = acc.get
        for pos, g in enumerate(g for g in range(len(maps)) if mask >> g & 1):
            inner = nested[mask ^ 1 << g]
            for (b, a, c), x in maps[g].terms.items():
                bit = 1 << c - 1
                for j, rest, y in inner.get(b, ()):
                    if not rest & bit:
                        # X_c, wedged on the left, moves past the indices of rest below it
                        key = (a, j, rest | bit)
                        odd = (pos + (rest & bit - 1).bit_count()) % 2
                        acc[key] = get(key, 0) + (-x * y if odd else x * y)
        rows, trace = {}, {}
        for (a, j, rest), c in acc.items():
            if c:
                rows.setdefault(a, []).append((j, rest, c))
                if a == j:
                    trace[rest] = trace.get(rest, 0) + c
        nested[mask] = rows
        out[mask] = ExteriorElement._trusted(n, mask.bit_count(), trace)
    return out


def exterior_basis(n: int, q: int) -> list[Index]:
    """All strictly increasing q-tuples in [1, n], lexicographically."""
    return [tuple(c) for c in combinations(range(1, n + 1), q)]
