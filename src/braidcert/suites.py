"""Named self-check suites with machine-readable reports.

Each suite runs a fixed family of identities at fixed sizes, seeded for
reproducibility, and reports one row per identity and size.  Every row
checks its cases in order and stops at the first failure: its `cases`
counts the cases checked, the failing one included, and its witness names
the failing case (None when the row passes).  The suites cover:

* lemmas                  -- closed-form values of tau1 on the elementary
                             and band generators, ranks 2 to 6;
* cocycle                 -- vanishing coboundaries of tau1 and of the
                             composite cochains on random braid tuples;
* primitivity             -- blockwise additivity of the composites over
                             products of braid groups, and the identical
                             vanishing of cross-block composites;
* expansion-independence  -- tau1 on pure braids does not see the choice
                             of expansion;
* independence-small      -- full-rank certificates at small (n, q).
"""

from __future__ import annotations

import random
from itertools import product as iter_product
from typing import Any, Callable, Iterable

from ._value import Value
from .braids import BraidWord, pure_gen_braid
from .certify import certificate
from .cochains import (
    block_layout,
    coboundary,
    composite_cochain,
    hp_cochain,
    projection_pullback,
    tau1,
    tau1_cochain,
)
from .magnus import MagnusExpansion
from .tensors import HomTensor, TruncatedTensor


class SuiteRow(Value):
    _FIELDS = ("name", "identity", "cases", "passed", "witness")

    def __init__(
        self, name: str, identity: str, cases: int, passed: bool, witness: str | None = None
    ) -> None:
        self.name = name
        self.identity = identity
        self.cases = cases
        self.passed = passed
        self.witness = witness

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "identity": self.identity,
            "cases": self.cases,
            "passed": self.passed,
            "witness": self.witness,
        }


class SuiteReport(Value):
    _FIELDS = ("suite", "seed", "rows")

    def __init__(self, suite: str, seed: int, rows: list[SuiteRow] | None = None) -> None:
        self.suite = suite
        self.seed = seed
        self.rows = [] if rows is None else rows

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
        }


def _random_braid(rng: random.Random, n: int, max_len: int) -> BraidWord:
    length = rng.randrange(max_len + 1)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(n, letters)


def _random_pure(rng: random.Random, n: int, max_gens: int = 4) -> BraidWord:
    beta = BraidWord.identity(n)
    for _ in range(rng.randrange(1, max_gens + 1)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        beta = beta * pure_gen_braid(n, i, j) ** rng.choice([-1, 1])
    return beta


def _random_custom(rng: random.Random, n: int) -> MagnusExpansion:
    tails = []
    for _ in range(n):
        terms = {
            idx: rng.randint(-2, 2)
            for idx in iter_product(range(1, n + 1), repeat=2)
            if rng.random() < 0.4
        }
        tails.append(TruncatedTensor(n, 2, terms))
    return MagnusExpansion.custom(n, 2, tails)


def _bracket_hom(n: int, i: int, j: int) -> TruncatedTensor:
    return TruncatedTensor(n, 2, {(i, j): 1, (j, i): -1})


def _row(
    name: str,
    identity: str,
    cases: Iterable[tuple],
    holds: Callable[..., bool],
    witness: Callable[..., str] = lambda *case: repr(case),
) -> SuiteRow:
    """Check holds(*case) for each case in turn; the first failure ends the row."""
    checked = 0
    for case in cases:
        checked += 1
        if not holds(*case):
            return SuiteRow(name, identity, checked, False, witness(*case))
    return SuiteRow(name, identity, checked, True)


def _hom(n: int, columns: dict[int, TruncatedTensor]) -> HomTensor:
    """The degree-2 HomTensor with the given nonzero columns, numbered from 1."""
    zero = TruncatedTensor.zero(n, 2)
    return HomTensor.from_columns(n, 2, [columns.get(j, zero) for j in range(1, n + 1)])


def run_lemmas(seed: int) -> SuiteReport:
    report = SuiteReport("lemmas", seed)
    for n in range(2, 7):
        theta = MagnusExpansion.standard(n, 2)
        report.rows.append(_row(
            f"elementary-generators-n{n}",
            "tau1(s_i) = l_i (x) (X_i X_{i+1} - X_{i+1} X_i)",
            ((i,) for i in range(1, n)),
            lambda i: tau1(theta, BraidWord.gen(n, i))
            == _hom(n, {i: _bracket_hom(n, i, i + 1)}),
            lambda i: f"s_{i} at n={n}",
        ))
        report.rows.append(_row(
            f"band-generators-n{n}",
            "tau1(A_ij) = (l_i - l_j) (x) (X_i X_j - X_j X_i)",
            ((i, j) for i in range(1, n) for j in range(i + 1, n + 1)),
            lambda i, j: tau1(theta, pure_gen_braid(n, i, j))
            == _hom(n, {i: _bracket_hom(n, i, j), j: -_bracket_hom(n, i, j)}),
            lambda i, j: f"A({i},{j}) at n={n}",
        ))
    return report


def run_cocycle(seed: int) -> SuiteReport:
    report = SuiteReport("cocycle", seed)
    rng = random.Random(seed)
    for n in range(2, 6):
        theta = MagnusExpansion.standard(n, 2)
        delta = coboundary(tau1_cochain(theta))
        report.rows.append(_row(
            f"tau1-cocycle-n{n}",
            "delta tau1 = 0",
            ((_random_braid(rng, n, 8), _random_braid(rng, n, 8)) for _ in range(16)),
            lambda g, h: delta(g, h).is_zero(),
        ))
        for p, cases in ((2, 8), (3, 2)):
            delta_p = coboundary(hp_cochain(theta, p))
            report.rows.append(_row(
                f"composite-cocycle-p{p}-n{n}",
                "delta h_p = 0",
                (tuple(_random_braid(rng, n, 8) for _ in range(p + 1)) for _ in range(cases)),
                lambda *gs: delta_p(*gs).is_zero(),
            ))
    return report


def run_primitivity(seed: int) -> SuiteReport:
    report = SuiteReport("primitivity", seed)
    rng = random.Random(seed)
    for n1, n2 in ((2, 2), (2, 3), (3, 3)):
        n = n1 + n2
        theta = MagnusExpansion.standard(n, 2)
        layout = block_layout((n1, n2), n)

        def sample() -> BraidWord:
            b1, b2 = _random_braid(rng, n1, 5), _random_braid(rng, n2, 5)
            return layout[0].apply(b1) * layout[1].apply(b2)

        for p in (1, 2, 3):
            total = hp_cochain(theta, p)
            first, second = (projection_pullback(total, k, layout) for k in (0, 1))
            report.rows.append(_row(
                f"block-additivity-p{p}-blocks{n1}x{n2}",
                "h_p restricted to a block product = sum of the block pullbacks",
                (tuple(sample() for _ in range(p)) for _ in range(4)),
                lambda *es: total(*es) == first(*es) + second(*es),
            ))
        t = tau1_cochain(theta)
        for p in (2, 3):
            # factors alternate between the two blocks, so every composite dies
            mixed = composite_cochain([projection_pullback(t, k % 2, layout) for k in range(p)])
            report.rows.append(_row(
                f"mixed-composite-vanishes-p{p}-blocks{n1}x{n2}",
                "composites of factors from different blocks vanish identically",
                (tuple(sample() for _ in range(p)) for _ in range(4)),
                lambda *es: mixed(*es).is_zero(),
            ))
    return report


def run_expansion_independence(seed: int) -> SuiteReport:
    report = SuiteReport("expansion-independence", seed)
    rng = random.Random(seed)
    for n in range(2, 6):
        std = MagnusExpansion.standard(n, 2)
        expansions = [_random_custom(rng, n) for _ in range(5)]
        report.rows.append(_row(
            f"pure-braid-independence-n{n}",
            "tau1 on pure braids does not depend on the expansion",
            ((g, k) for g in (_random_pure(rng, n) for _ in range(13)) for k in range(5)),
            lambda g, k: tau1(expansions[k], g) == tau1(std, g),
            lambda g, k: f"expansion {k} on {g!r}",
        ))
    return report


def run_independence_small(seed: int) -> SuiteReport:
    report = SuiteReport("independence-small", seed)
    for n, q in ((2, 1), (3, 1), (4, 2), (5, 2)):
        report.rows.append(_row(
            f"certificate-n{n}-q{q}",
            "the pairing matrix of the partition cochains has full row rank",
            [(certificate(n, q, seed=seed),)],
            lambda cert: cert.passed,
            lambda cert: f"rank {cert.rank} of {cert.expected_rank}",
        ))
    return report


SUITES: dict[str, Callable[[int], SuiteReport]] = {
    "lemmas": run_lemmas,
    "cocycle": run_cocycle,
    "primitivity": run_primitivity,
    "expansion-independence": run_expansion_independence,
    "independence-small": run_independence_small,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r}; known suites: {known}")
    return SUITES[name](seed)
