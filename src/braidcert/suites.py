"""Named self-check suites with machine-readable reports.

Each suite runs a fixed family of identities at fixed sizes, seeded for
reproducibility, and reports one row per identity and size with a
counterexample witness on failure.  The suites cover:

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
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Any, Callable

from .braids import BraidWord, pure_gen_braid
from .certify import certificate
from .cochains import (
    GroupElement,
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


@dataclass
class SuiteRow:
    name: str
    identity: str
    cases: int
    passed: bool
    witness: str | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "identity": self.identity,
            "cases": self.cases,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    rows: list[SuiteRow] = field(default_factory=list)

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


def _random_braid(rng: random.Random, n: int, max_len: int) -> GroupElement:
    length = rng.randrange(max_len + 1)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    return GroupElement(BraidWord(n, letters))


def _random_pure(rng: random.Random, n: int, max_gens: int = 4) -> GroupElement:
    beta = BraidWord.identity(n)
    for _ in range(rng.randrange(1, max_gens + 1)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        beta = beta * pure_gen_braid(n, i, j) ** rng.choice([-1, 1])
    return GroupElement(beta)


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


def run_lemmas(seed: int) -> SuiteReport:
    report = SuiteReport("lemmas", seed)
    for n in range(2, 7):
        theta = MagnusExpansion.standard(n, 2)
        bad: str | None = None
        cases = 0
        for i in range(1, n):
            cases += 1
            got = tau1(theta, GroupElement(BraidWord.gen(n, i)))
            cols = [TruncatedTensor.zero(n, 2) for _ in range(n)]
            cols[i - 1] = _bracket_hom(n, i, i + 1)
            if got != HomTensor(n, 2, tuple(cols)):
                bad = f"s_{i} at n={n}"
                break
        report.rows.append(
            SuiteRow(
                f"elementary-generators-n{n}",
                "tau1(s_i) = l_i (x) (X_i X_{i+1} - X_{i+1} X_i)",
                cases,
                bad is None,
                bad,
            )
        )
        bad = None
        cases = 0
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                cases += 1
                got = tau1(theta, GroupElement(pure_gen_braid(n, i, j)))
                cols = [TruncatedTensor.zero(n, 2) for _ in range(n)]
                cols[i - 1] = _bracket_hom(n, i, j)
                cols[j - 1] = -_bracket_hom(n, i, j)
                if got != HomTensor(n, 2, tuple(cols)):
                    bad = f"A({i},{j}) at n={n}"
                    break
            if bad:
                break
        report.rows.append(
            SuiteRow(
                f"band-generators-n{n}",
                "tau1(A_ij) = (l_i - l_j) (x) (X_i X_j - X_j X_i)",
                cases,
                bad is None,
                bad,
            )
        )
    return report


def run_cocycle(seed: int) -> SuiteReport:
    report = SuiteReport("cocycle", seed)
    rng = random.Random(seed)
    for n in range(2, 6):
        theta = MagnusExpansion.standard(n, 2)
        delta = coboundary(tau1_cochain(theta))
        bad: str | None = None
        cases = 16
        for _ in range(cases):
            g, h = _random_braid(rng, n, 8), _random_braid(rng, n, 8)
            if not delta(g, h).is_zero():
                bad = f"({g!r}, {h!r})"
                break
        report.rows.append(
            SuiteRow(
                f"tau1-cocycle-n{n}", "delta tau1 = 0", cases, bad is None, bad
            )
        )
        for p, cases in ((2, 8), (3, 2)):
            delta_p = coboundary(hp_cochain(theta, p))
            bad = None
            for _ in range(cases):
                gs = tuple(_random_braid(rng, n, 8) for _ in range(p + 1))
                if not delta_p(*gs).is_zero():
                    bad = repr(gs)
                    break
            report.rows.append(
                SuiteRow(
                    f"composite-cocycle-p{p}-n{n}",
                    "delta h_p = 0",
                    cases,
                    bad is None,
                    bad,
                )
            )
    return report


def run_primitivity(seed: int) -> SuiteReport:
    report = SuiteReport("primitivity", seed)
    rng = random.Random(seed)
    for n1, n2 in ((2, 2), (2, 3), (3, 3)):
        n = n1 + n2
        theta = MagnusExpansion.standard(n, 2)
        layout = block_layout((n1, n2), n)

        def sample() -> GroupElement:
            b1, b2 = _random_braid(rng, n1, 5), _random_braid(rng, n2, 5)
            return layout[0].apply(b1) * layout[1].apply(b2)

        for p in (1, 2, 3):
            total = hp_cochain(theta, p)
            pulled = [
                projection_pullback(hp_cochain(theta, p), k, layout) for k in (0, 1)
            ]
            bad: str | None = None
            cases = 4
            for _ in range(cases):
                es = tuple(sample() for _ in range(p))
                if total(*es) != pulled[0](*es) + pulled[1](*es):
                    bad = repr(es)
                    break
            report.rows.append(
                SuiteRow(
                    f"block-additivity-p{p}-blocks{n1}x{n2}",
                    "h_p restricted to a block product = sum of the block pullbacks",
                    cases,
                    bad is None,
                    bad,
                )
            )
        t = tau1_cochain(theta)
        for p in (2, 3):
            # factors alternate between the two blocks, so every composite dies
            factors = [projection_pullback(t, k % 2, layout) for k in range(p)]
            mixed = composite_cochain(factors)
            bad = None
            cases = 4
            for _ in range(cases):
                es = tuple(sample() for _ in range(p))
                if not mixed(*es).is_zero():
                    bad = repr(es)
                    break
            report.rows.append(
                SuiteRow(
                    f"mixed-composite-vanishes-p{p}-blocks{n1}x{n2}",
                    "composites of factors from different blocks vanish identically",
                    cases,
                    bad is None,
                    bad,
                )
            )
    return report


def run_expansion_independence(seed: int) -> SuiteReport:
    report = SuiteReport("expansion-independence", seed)
    rng = random.Random(seed)
    for n in range(2, 6):
        std = MagnusExpansion.standard(n, 2)
        expansions = [_random_custom(rng, n) for _ in range(5)]
        bad: str | None = None
        cases = 0
        for _ in range(13):
            g = _random_pure(rng, n)
            want = tau1(std, g)
            for k, theta in enumerate(expansions):
                cases += 1
                if tau1(theta, g) != want:
                    bad = f"expansion {k} on {g!r}"
                    break
            if bad:
                break
        report.rows.append(
            SuiteRow(
                f"pure-braid-independence-n{n}",
                "tau1 on pure braids does not depend on the expansion",
                cases,
                bad is None,
                bad,
            )
        )
    return report


def run_independence_small(seed: int) -> SuiteReport:
    report = SuiteReport("independence-small", seed)
    for n, q in ((2, 1), (3, 1), (4, 2), (5, 2)):
        cert = certificate(n, q, seed=seed)
        witness = None if cert.passed else f"rank {cert.rank} of {cert.expected_rank}"
        report.rows.append(
            SuiteRow(
                f"certificate-n{n}-q{q}",
                "the pairing matrix of the partition cochains has full row rank",
                1,
                cert.passed,
                witness,
            )
        )
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
