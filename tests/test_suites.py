"""Suite rows: a row stops at its first failing case, counts the cases it
checked and names the failing case."""

from __future__ import annotations

import random

import braidcert.suites as suites
from braidcert.suites import _random_braid, _row, run_suite


def counted(draws: list[int], total: int):
    for k in range(1, total + 1):
        draws.append(k)
        yield (k,)


def test_row_stops_at_the_first_failure_and_draws_no_further_case():
    for k in (1, 4, 10):
        draws: list[int] = []
        row = _row("r", "k is small", counted(draws, 10), lambda j: j != k, lambda j: f"j={j}")
        assert (row.cases, row.passed, row.witness) == (k, False, f"j={k}")
        assert draws == list(range(1, k + 1))


def test_row_default_witness_is_the_case_tuple():
    row = _row("r", "j differs from 2", counted([], 5), lambda j: j != 2)
    assert (row.cases, row.passed, row.witness) == (2, False, "(2,)")


def test_passing_row_checks_every_case_and_has_no_witness():
    draws: list[int] = []
    row = _row("r", "always", counted(draws, 7), lambda j: True)
    assert (row.cases, row.passed, row.witness) == (7, True, None)
    assert draws == list(range(1, 8))


class NonZero:
    def is_zero(self) -> bool:
        return False


def test_failing_cocycle_row_counts_the_cases_it_checked(monkeypatch):
    real = suites.coboundary
    seen: list[tuple] = []

    def rigged(u):
        delta = real(u)
        if seen:  # only the first coboundary, tau1's at n = 2, is rigged
            return delta

        def evaluate(*gs):
            seen.append(gs)
            return NonZero() if len(seen) == 3 else delta(*gs)

        return evaluate

    monkeypatch.setattr(suites, "coboundary", rigged)
    row = run_suite("cocycle", seed=5).rows[0]
    rng = random.Random(5)
    draws = [(_random_braid(rng, 2, 8), _random_braid(rng, 2, 8)) for _ in range(3)]
    g, h = draws[2]
    assert row.name == "tau1-cocycle-n2"
    assert (row.cases, row.passed) == (3, False)
    assert row.witness == f"({g!r}, {h!r})"
    assert [tuple(x.letters for x in gs) for gs in seen] == [
        tuple(x.letters for x in gs) for gs in draws
    ]
