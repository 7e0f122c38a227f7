"""Acceptance criteria, one test and one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen.  Every comparison is exact rational arithmetic; the only tolerances
are the wall-clock bounds stated per criterion.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from itertools import product as iter_product

from braidcert.braids import BraidWord, pure_gen_braid
from braidcert.certify import certificate, partition_cycles, partitions
from braidcert.chains import pair, parse_cycle, torus_cycle
from braidcert.cochains import hbar_cochain, tau1
from braidcert.magnus import MagnusExpansion
from braidcert.suites import run_suite
from braidcert.tensors import HomTensor, TruncatedTensor
from braidcert.words import FreeWord
from restriction_oracle import scalar_factor_check


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion-{number:02d}: {description}{suffix}")
    assert ok, f"criterion-{number:02d} failed: {description}{suffix}"


def bracket(n: int, i: int, j: int) -> TruncatedTensor:
    return TruncatedTensor(n, 2, {(i, j): 1, (j, i): -1})


def random_custom(rng: random.Random, n: int, cap: int) -> MagnusExpansion:
    tails = []
    for _ in range(n):
        terms = {
            idx: rng.randint(-2, 2)
            for m in range(2, cap + 1)
            for idx in iter_product(range(1, n + 1), repeat=m)
            if rng.random() < 0.3
        }
        tails.append(TruncatedTensor(n, cap, terms))
    return MagnusExpansion.custom(n, cap, tails)


def random_word(rng: random.Random, n: int, max_len: int) -> FreeWord:
    length = rng.randrange(max_len + 1)
    return FreeWord.reduce(
        n, [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(length)]
    )


def test_criterion_01_elementary_generator_values():
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(2, 7):
        theta = MagnusExpansion.standard(n, 2)
        for i in range(1, n):
            got = tau1(theta, BraidWord.gen(n, i))
            cols = [TruncatedTensor.zero(n, 2) for _ in range(n)]
            cols[i - 1] = bracket(n, i, i + 1)
            ok = ok and got == HomTensor.from_columns(n, 2, tuple(cols))
            checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "tau1 on elementary generators matches the closed form, n = 2..6",
        ok and elapsed < 1.0,
        f"{checked} generators, {elapsed:.3f}s < 1s",
    )


def test_criterion_02_band_generator_values():
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(2, 7):
        theta = MagnusExpansion.standard(n, 2)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                got = tau1(theta, pure_gen_braid(n, i, j))
                cols = [TruncatedTensor.zero(n, 2) for _ in range(n)]
                cols[i - 1] = bracket(n, i, j)
                cols[j - 1] = -bracket(n, i, j)
                ok = ok and got == HomTensor.from_columns(n, 2, tuple(cols))
                checked += 1
    elapsed = time.monotonic() - start
    report(
        2,
        "tau1 on band generators matches the closed form, n = 2..6",
        ok and elapsed < 5.0,
        f"{checked} generators, {elapsed:.3f}s < 5s",
    )


def test_criterion_03_cocycle_conditions():
    start = time.monotonic()
    rep = run_suite("cocycle", seed=0)
    cases = sum(row.cases for row in rep.rows)
    elapsed = time.monotonic() - start
    report(
        3,
        "delta tau1 = 0 and delta h_p = 0 on seeded random braid tuples",
        rep.passed and cases >= 100 and elapsed < 60.0,
        f"{cases} tuples >= 100, p <= 3, n <= 5, {elapsed:.2f}s < 60s",
    )


def test_criterion_04_expansion_axioms():
    start = time.monotonic()
    rng = random.Random(104)
    ok = True
    customs = 0
    for n in (2, 3):
        for cap in (2, 3, 4):
            expansions = [MagnusExpansion.standard(n, cap)]
            for _ in range(2):
                expansions.append(random_custom(rng, n, cap))
                customs += 1
            for theta in expansions:
                one = TruncatedTensor.one(n, cap)
                ok = ok and theta.value(FreeWord.identity(n)) == one
                for _ in range(6):
                    a = random_word(rng, n, 12)
                    b = random_word(rng, n, 12)
                    ok = ok and theta.value(a * b) == theta.value(a) * theta.value(b)
                    ok = ok and theta.value(a.inverse()) * theta.value(a) == one
                    v = theta.value(a)
                    ok = ok and v.component(0) == one.component(0)
                    # oracle: the signed exponent count of each generator
                    exps = {(i,): 0 for i in range(1, n + 1)}
                    for l in a.letters:
                        exps[(abs(l),)] += 1 if l > 0 else -1
                    ok = ok and v.component(1) == TruncatedTensor(n, cap, exps)
    elapsed = time.monotonic() - start
    report(
        4,
        "expansions are normalised homomorphisms with exact inverses",
        ok and customs >= 5 and elapsed < 30.0,
        f"standard plus {customs} custom expansions, words <= 12, caps <= 4, "
        f"{elapsed:.2f}s < 30s",
    )


def test_criterion_05_expansion_independence_on_pure_braids():
    start = time.monotonic()
    rep = run_suite("expansion-independence", seed=0)
    cases = sum(row.cases for row in rep.rows)
    elapsed = time.monotonic() - start
    # 13 pure braids per rank across 4 ranks, 5 expansions each
    report(
        5,
        "tau1 on pure braids is identical across custom expansions",
        rep.passed and cases >= 250,
        f"52 pure braids x 5 expansions = {cases} comparisons, {elapsed:.2f}s",
    )


def test_criterion_06_blockwise_primitivity():
    start = time.monotonic()
    rep = run_suite("primitivity", seed=0)
    elapsed = time.monotonic() - start
    report(
        6,
        "h_p restricted to block products is additive and mixed composites vanish",
        rep.passed,
        f"blocks up to (3,3), p <= 3, {elapsed:.2f}s",
    )


def test_criterion_07_nonvanishing_pairings():
    start = time.monotonic()
    theta2 = MagnusExpansion.standard(2, 2)
    z = torus_cycle([pure_gen_braid(2, 1, 2)])
    got = pair(hbar_cochain(theta2, 1), z)
    first = got == TruncatedTensor(2, 1, {(1,): 1, (2,): 1})

    theta3 = MagnusExpansion.standard(3, 2)
    candidates = partition_cycles((2,), 3, depth=2)
    values = [
        pair(hbar_cochain(theta3, 2, exterior=True), torus_cycle(parse_cycle(c, 3)))
        for c in candidates
    ]
    second = len(candidates) == 2 and any(not v.is_zero() for v in values)
    elapsed = time.monotonic() - start
    report(
        7,
        "hbar_1 pairs to X1 + X2 on the band torus; an hbar_2 catalog pairing is nonzero",
        first and second and elapsed < 10.0,
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_08_certificates():
    start = time.monotonic()
    ok = True
    details = []
    for n, q in ((2, 1), (3, 1), (4, 1), (4, 2), (5, 2)):
        cert = certificate(n, q)
        ok = ok and cert.passed and not cert.triangular_violations
        details.append(f"({n},{q})={cert.verdict}")
    elapsed = time.monotonic() - start
    stretch = certificate(6, 3)
    stretch_ok = stretch.verdict in ("pass", "inconclusive-catalog")
    stretch_elapsed = time.monotonic() - start - elapsed
    report(
        8,
        "independence certificates pass at the required sizes",
        ok and elapsed < 600.0 and stretch_ok,
        ", ".join(details)
        + f", {elapsed:.2f}s < 600s; stretch (6,3)={stretch.verdict} "
        f"rank {stretch.rank}/{stretch.expected_rank} in {stretch_elapsed:.2f}s",
    )


def test_criterion_09_restriction_scalar_for_all_small_partitions():
    start = time.monotonic()
    rng = random.Random(109)
    ok = True
    tested = []
    saw_repeat_factor_two = False
    for n in range(2, 6):
        theta = MagnusExpansion.standard(n, 2)
        for q in (1, 2):
            if q >= n:
                continue
            for parts in partitions(q, n - q):
                good, witnesses = scalar_factor_check(theta, parts, n, rng)
                nonzero = any(not left.is_zero() for left, _ in witnesses)
                ok = ok and good and nonzero
                tested.append((n, parts))
                if parts == (1, 1):
                    saw_repeat_factor_two = True
    elapsed = time.monotonic() - start
    report(
        9,
        "restricted partition cochains equal the scaled product of their factors",
        ok and saw_repeat_factor_two,
        f"{len(tested)} partitions with q <= 2, n <= 5, includes (1,1), "
        f"{elapsed:.2f}s",
    )


def test_criterion_10_byte_identical_reports():
    start = time.monotonic()
    cert_a = json.dumps(certificate(5, 2, seed=3).to_json_dict())
    cert_b = json.dumps(certificate(5, 2, seed=3).to_json_dict())
    suite_a = json.dumps(run_suite("cocycle", seed=3).to_json_dict())
    suite_b = json.dumps(run_suite("cocycle", seed=3).to_json_dict())
    cmd = [
        sys.executable, "-m", "braidcert.cli",
        "independence", "--n", "4", "--q", "2", "--seed", "3",
    ]
    cli_runs = [
        subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)
    ]
    elapsed = time.monotonic() - start
    report(
        10,
        "repeated runs with one seed produce byte-identical reports",
        cert_a == cert_b and suite_a == suite_b and cli_runs[0] == cli_runs[1],
        f"in-process certificate and suite, plus CLI subprocess, {elapsed:.2f}s",
    )
