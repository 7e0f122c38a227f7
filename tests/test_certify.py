"""Partitions, catalogs, ranks, certificates.

Rank computations are cross-checked against a plain rational Gaussian
elimination oracle; partition enumeration against brute force over tuples;
the set-partition pairing against the literal bar-complex pair on the
torus cycle.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, permutations, product as iter_product
from pathlib import Path

import pytest

from braidcert import certify as certify_module
from braidcert import chains as chains_module
from braidcert import cli
from braidcert import tensors as tensors_module
from braidcert.braids import BraidWord, full_twist, pure_gen_braid
from braidcert.certify import (
    Certificate,
    certificate,
    exact_rank,
    partition_cycles,
    partition_layout,
    partitions,
    torus_pairings,
)
from braidcert.chains import pair, parse_cycle, torus_cycle
from braidcert.cochains import GroupElement, tau1
from braidcert.magnus import MagnusExpansion
from braidcert.tensors import nested_traces
import restriction_oracle
from restriction_oracle import hbar_partition_cochain, multiplicity_factor, scalar_factor_check
from test_chains import random_commuting_set
from test_cochains import random_custom

F = Fraction

CERT_GRID = [(5, 2), (6, 3), (7, 3), (8, 3), (8, 4)]
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cert-grid"


# partitions


def brute_partitions(total: int, slots: int) -> set[tuple[int, ...]]:
    return {
        tup
        for tup in iter_product(range(total + 1), repeat=slots)
        if sum(tup) == total and all(a >= b for a, b in zip(tup, tup[1:]))
    }


def test_partitions_match_brute_force():
    for total in range(0, 7):
        for slots in range(0, 5):
            got = partitions(total, slots)
            assert set(got) == brute_partitions(total, slots)
            assert len(set(got)) == len(got)


def test_partitions_are_ordered_largest_first():
    assert partitions(2, 2) == [(2, 0), (1, 1)]
    assert partitions(3, 3) == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]
    assert partitions(4, 2) == [(4, 0), (3, 1), (2, 2)]


def test_partitions_of_many_slots_match_brute_force_in_order():
    # at most `total` parts are nonzero, so the brute force runs on that many
    # slots and pads with zeros; each slot once cost a level of recursion
    for total, slots, count in ((1, 5000, 1), (2, 3000, 2)):
        zeros = (0,) * (slots - total)
        expected = sorted((tup + zeros for tup in brute_partitions(total, total)), reverse=True)
        got = partitions(total, slots)
        assert len(got) == count
        assert got == expected


def test_multiplicity_factor_frozen_values():
    assert multiplicity_factor((1, 1)) == 2
    assert multiplicity_factor((2, 1, 0)) == 1
    assert multiplicity_factor((2, 2, 1)) == 2
    assert multiplicity_factor((3, 3, 3)) == 6
    assert multiplicity_factor((0, 0)) == 1


def test_partition_layout_tiles_the_strands():
    layout = partition_layout((2, 1, 0), 6)
    assert [(e.offset, e.size) for e in layout] == [(0, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        partition_layout((2, 1), 6)


# rank


def rank_oracle(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_exact_rank_matches_gaussian_oracle():
    rng = random.Random(71)
    for _ in range(60):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 6)
        rows = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        assert exact_rank(rows) == rank_oracle(rows)


def test_exact_rank_detects_dependent_rows():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    assert exact_rank(rows) == 2
    assert exact_rank([[F(0), F(0)]]) == 0
    assert exact_rank([]) == 0


def test_exact_rank_ignores_interleaved_zero_columns():
    rng = random.Random(74)
    for _ in range(60):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 6)
        dense = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        is_zero = [True] * rng.randint(1, 6) + [False] * n_cols
        rng.shuffle(is_zero)
        padded = []
        for row in dense:
            values = iter(row)
            padded.append([F(0) if z else next(values) for z in is_zero])
        assert exact_rank(padded) == exact_rank(dense) == rank_oracle(dense)
    assert exact_rank([[F(0)] * 4, [F(0)] * 4]) == 0


# catalogs


GRAMMAR_GRID = [(4, 2), (5, 2), (6, 3), (7, 3), (8, 3), (8, 4)]


def test_partition_cycles_round_trip_through_grammar():
    # the catalog lists each block's elements in block order; the shuffle of the
    # block tori is the reference for the torus of the union that both build
    checked = 0
    for n, q in GRAMMAR_GRID:
        for parts in partitions(q, n - q):
            for cand in partition_cycles(parts, n, depth=3):
                assert parse_cycle(cand.descriptor, n) == cand.elements
                chain = torus_cycle(cand.elements)
                assert chain.is_cycle()
                cuts = list(accumulate(p for p in parts if p))
                blocks = [cand.elements[a:b] for a, b in zip([0] + cuts, cuts)]
                assert reduce(chains_module.shuffle, map(torus_cycle, blocks)) == chain
                checked += 1
    assert checked == 48


def test_grammar_builds_the_catalog_torus_without_shuffling(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the grammar builds one torus")

    monkeypatch.setattr(chains_module, "shuffle", refuse)
    monkeypatch.setattr(chains_module, "embed_chain", refuse)
    descriptors = 0
    for n, q in GRAMMAR_GRID:
        for parts in partitions(q, n - q):
            for cand in partition_cycles(parts, n, depth=3):
                assert parse_cycle(cand.descriptor, n) == cand.elements
                descriptors += 1
    assert descriptors == 48
    # the README's crossed example, byte for byte
    argv = ["pair", "--n", "3", "--partition", "2", "cross:{3:torus:A(1,2)|twist(3)}"]
    assert cli.main(argv) == 0
    coords = [{"idx": [1, 3], "c": "2/1"}, {"idx": [2, 3], "c": "2/1"}]
    payload = {"n": 3, "q": 2, "coords": coords}
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_partition_cycles_priority_order_for_pairs():
    # in a block of three strands the adjacent band generators come first
    cands = partition_cycles((2, 0), 4, depth=3)
    descriptors = [c.descriptor for c in cands]
    assert descriptors[0] == "cross:{3:torus:A(1,2)|twist(3)}"
    assert descriptors[1] == "cross:{3:torus:A(2,3)|twist(3)}"


@pytest.mark.parametrize("part", [1, 2, 3, 4, 5])
def test_every_block_catalog_holds_a_commuting_tuple(part):
    # A(1,2), twist(3), ..., twist(part + 1) commute pairwise, so the search
    # for commuting part-tuples in a block of size part + 1 is never empty
    size = part + 1
    nested = [GroupElement(pure_gen_braid(size, 1, 2))]
    nested += [GroupElement(full_twist(size, k)) for k in range(3, size + 1)]
    assert len(nested) == part
    assert all(a.commutes_with(b) for a, b in combinations(nested, 2))
    assert certify_module._commuting_tuples(part, 1)


def test_partition_cycles_depth_limits_count():
    assert len(partition_cycles((2, 0), 4, depth=1)) == 1
    assert len(partition_cycles((2, 0), 4, depth=2)) == 2


def test_certificate_searches_each_block_catalog_once(monkeypatch):
    # (8, 4) has twelve nonzero parts across its partitions but only the
    # distinct parts 1..4, so blocks of sizes 2..5
    sizes = []
    original = certify_module._block_elements

    def counting(size):
        sizes.append(size)
        return original(size)

    monkeypatch.setattr(certify_module, "_block_elements", counting)
    certify_module._commuting_tuples.cache_clear()
    assert certificate(8, 4).passed
    assert sorted(sizes) == [2, 3, 4, 5]


def test_block_catalog_search_decides_each_pair_once(monkeypatch):
    # only the block elements count: the embedded cycle elements are plain
    # GroupElements built afresh by BlockEmbedding.apply
    calls = []

    class Counting(GroupElement):
        __slots__ = ()

        def commutes_with(self, other):
            calls.append(frozenset((self, other)))
            return super().commutes_with(other)

    original = certify_module._block_elements
    monkeypatch.setattr(
        certify_module,
        "_block_elements",
        lambda size: [(name, Counting(g.braid)) for name, g in original(size)],
    )
    certify_module._commuting_tuples.cache_clear()
    try:
        for n, q in CERT_GRID:
            for parts in partitions(q, n - q):
                partition_cycles(parts, n, depth=3)
    finally:
        certify_module._commuting_tuples.cache_clear()
    assert len(calls) == len(set(calls)) == 50


def test_catalog_candidates_commute_in_the_ambient_group():
    # commutation is decided only inside each block; the ambient products,
    # compared through the faithful action, are the oracle
    pairs = set()
    for n, q, depth in [(n, q, 3) for n, q in CERT_GRID] + [(10, 5, 6)]:
        for parts in partitions(q, n - q):
            for cand in partition_cycles(parts, n, depth):
                pairs.update(combinations(cand.elements, 2))
    for a, b in pairs:
        assert a * b == b * a, (a, b)
    assert len(pairs) > 100


# the set-partition pairing against the literal bar-complex pairing


def literal_pairings(theta, elements, rows):
    z = torus_cycle(elements)
    return [pair(hbar_partition_cochain(theta, mu), z) for mu in rows]


def test_torus_pairings_match_pair_on_every_cert_grid_cycle():
    checked = 0
    for n, q in CERT_GRID:
        theta = MagnusExpansion.standard(n, 2)
        rows = partitions(q, n - q)
        for lam in rows:
            for cand in partition_cycles(lam, n, depth=3):
                assert torus_pairings(theta, cand.elements, rows) == literal_pairings(
                    theta, cand.elements, rows
                )
                checked += len(rows)
    # rows times cycles per size
    assert checked == 2 * 4 + 3 * 7 + 3 * 7 + 3 * 7 + 5 * 19


def test_torus_pairings_match_pair_on_random_commuting_sets():
    rng = random.Random(75)
    rows_checked = repeats = identities = nonzero = 0
    for trial in range(40):
        n = rng.randint(3, 7)
        elems = random_commuting_set(rng, n)
        q = len(elems)
        theta = random_custom(rng, n) if trial % 2 else MagnusExpansion.standard(n, 2)
        rows = partitions(q, n - q) if q <= n else []
        got = torus_pairings(theta, elems, rows)
        expected = literal_pairings(theta, elems, rows)
        assert got == expected
        rows_checked += len(rows)
        repeats += len(set(elems)) < q
        identities += any(g.is_identity for g in elems)
        nonzero += sum(not v.is_zero() for v in got)
    assert rows_checked >= 60 and repeats and identities and nonzero >= 10


def test_sets_meeting_two_blocks_have_zero_trace_under_a_custom_tail():
    # each catalog element is pure on its block, so its tau1 lives on the
    # block's strands whatever the tail, and N(U) vanishes once U meets two blocks
    rng = random.Random(76)
    spanning = nonzero = 0
    for parts, n in [((2, 1, 0), 6), ((2, 2, 0, 0), 8), ((1, 1, 1, 0), 7)]:
        theta = random_custom(rng, n)
        block = [k for k, p in enumerate(parts) for _ in range(p)]
        for cand in partition_cycles(parts, n, depth=2):
            traces = nested_traces([tau1(theta, g) for g in cand.elements])
            for mask, value in traces.items():
                if len({block[g] for g in range(len(block)) if mask >> g & 1}) > 1:
                    assert value.is_zero(), (cand.descriptor, mask)
                    spanning += 1
                else:
                    nonzero += not value.is_zero()
    assert spanning >= 40 and nonzero >= 20


DIFFERENTIAL_ROWS = [(2, 1), (1, 2), (1, 1), (2, 2), (1, 0, 1), (3, 1), (1, 3)]


def cli_pairing(capsys, row, elements):
    """`braidcert pair` on the torus of the elements: exit code, stdout, stderr."""
    flag = ["--p", str(row[0])] if len(row) == 1 else ["--partition", ",".join(map(str, row))]
    cycle = "torus:" + "|".join(str(g.braid) for g in elements)
    code = cli.main(["pair", "--n", str(elements[0].n), *flag, cycle])
    out, err = capsys.readouterr()
    return code, out, err


def literal_output(elements, row):
    theta = MagnusExpansion.standard(elements[0].n, 2)
    try:
        value = literal_pairings(theta, elements, [row])[0]
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    return 0, json.dumps(value.to_json_dict(), indent=2) + "\n", ""


def test_pair_command_matches_literal_pairings(capsys):
    # the command's exterior value (degree check, zero rule, set-partition sum)
    # against the bar-complex pairing: on random commuting sets, on catalog
    # cycles with their elements raised to powers and shuffled, and on non-pure
    # tori, where a degenerate torus is zero and any other is refused
    rng = random.Random(77)
    inputs = [random_commuting_set(rng, n) for n in range(3, 8) for _ in range(6)]
    catalog = [((1, 1), 4), ((2, 1), 5), ((2, 2), 6), ((3, 1), 6), ((3, 1, 0), 7), ((1, 1, 1), 6)]
    for parts, n in catalog:
        for cand in partition_cycles(parts, n, depth=3):
            elems = [GroupElement(g.braid ** rng.choice([-2, -1, 1, 2])) for g in cand.elements]
            rng.shuffle(elems)
            inputs.append(elems)
    s1, one = GroupElement(BraidWord(3, (1,))), GroupElement(BraidWord.identity(3))
    inputs += [[s1, s1], [one, s1], [s1]]
    seen = Counter()
    for elems in inputs:
        for row in [(len(elems),)] + DIFFERENTIAL_ROWS:
            got = cli_pairing(capsys, row, elems)
            assert got == literal_output(elems, row), (row, elems)
            seen["refused" if got[0] else "nonzero" if '"c"' in got[1] else "zero"] += 1
            seen[row] += '"c"' in got[1]
    assert seen["refused"] >= 200 and seen["zero"] >= 100 and seen["nonzero"] >= 30
    assert all(seen[row] >= 2 for row in DIFFERENTIAL_ROWS), seen


def test_torus_values_do_not_depend_on_the_order_of_the_parts():
    # swapping parts a and b signs the cup by (-1)^(ab) and the wedge of the
    # values by (-1)^(ab) again, so on a torus hbar_(a,b) = hbar_(b,a); a row
    # given in reverse order therefore pairs to the same value
    nonzero = 0
    for parts, n in [((2, 1), 5), ((3, 1), 6), ((2, 1, 1), 7)]:
        theta = MagnusExpansion.standard(n, 2)
        rows = sorted(set(permutations(parts)))
        for cand in partition_cycles(parts, n, depth=3):
            values = literal_pairings(theta, cand.elements, rows)
            assert values == [values[0]] * len(rows), cand.descriptor
            assert torus_pairings(theta, cand.elements, rows) == values
            nonzero += not values[0].is_zero()
    assert nonzero >= 4


def test_torus_pairings_reject_elements_acting_on_homology():
    theta = MagnusExpansion.standard(3, 2)
    s1 = GroupElement(BraidWord(3, (1,)))
    with pytest.raises(ValueError, match="acts nontrivially on homology"):
        torus_pairings(theta, [s1], [(1, 0)])


def test_certificate_builds_no_bar_chain(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate path builds no bar chain")

    def refuse_nesting(*args, **kwargs):
        raise AssertionError("the certificate path nests no HomTensor")

    monkeypatch.setattr(chains_module, "pair", refuse)
    monkeypatch.setattr(chains_module.BarChain, "__init__", refuse)
    monkeypatch.setattr(tensors_module, "compose_first_slot", refuse_nesting)
    monkeypatch.setattr(tensors_module.HomTensor, "contract", refuse_nesting)
    capsys.readouterr()
    assert cli.main(["independence", "--n", "8", "--q", "4"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "independence-n8-q4.out").read_bytes()


# certificates


def test_certificate_small_cases_pass():
    for n, q in [(2, 1), (3, 1), (4, 2)]:
        cert = certificate(n, q)
        assert cert.passed
        assert cert.rank == cert.expected_rank == len(cert.partitions)
        assert not cert.triangular_violations


def test_certificate_frontier_ten_five_at_depth_six():
    cert = certificate(10, 5, catalog_depth=6)
    assert cert.passed
    assert cert.rank == cert.expected_rank == 7
    assert not cert.triangular_violations


def test_certificate_eleven_five_at_depth_six():
    cert = certificate(11, 5, catalog_depth=6)
    assert cert.passed
    assert cert.rank == cert.expected_rank == 7
    assert not cert.triangular_violations


def test_certificate_q_zero_trivially_passes():
    cert = certificate(3, 0)
    assert cert.passed
    assert cert.partitions == [] and cert.rank == 0


def test_certificate_rejects_bad_degrees():
    with pytest.raises(ValueError):
        certificate(3, 4)
    with pytest.raises(ValueError):
        certificate(3, -1)


def test_certificate_rejects_catalog_depth_below_one():
    for depth in (0, -1):
        with pytest.raises(ValueError, match="catalog depth"):
            certificate(5, 2, catalog_depth=depth)


def test_certificate_json_is_deterministic():
    a = certificate(4, 2).to_json_dict()
    b = certificate(4, 2).to_json_dict()
    assert json.dumps(a) == json.dumps(b)
    assert a["verdict"] == "pass"
    assert a["triangular_ok"] is True
    assert a["partitions"] == [[2, 0], [1, 1]]
    assert all("/" in entry for row in a["matrix"] for entry in row)


def test_certificate_matrix_row_shape():
    cert = certificate(4, 2)
    n_cycles = sum(len(c) for c in cert.cycles.values())
    n_basis = 6  # increasing pairs in four letters
    assert all(len(row) == n_cycles * n_basis for row in cert.matrix)


# the restriction scalar


def test_scalar_factor_on_singleton_partition():
    rng = random.Random(72)
    theta = MagnusExpansion.standard(3, 2)
    ok, witnesses = scalar_factor_check(theta, (2,), 3, rng)
    assert ok
    assert any(not left.is_zero() for left, _ in witnesses)


def test_scalar_factor_sees_the_repeat_factor_two():
    # lambda = (1,1): the restriction equals twice the cup of the pullbacks
    rng = random.Random(73)
    theta = MagnusExpansion.standard(4, 2)
    ok, witnesses = scalar_factor_check(theta, (1, 1), 4, rng)
    assert ok
    assert any(not left.is_zero() for left, _ in witnesses)
    # dropping the factor must break the identity on some witness
    from braidcert.braids import pure_gen_braid
    from braidcert.cochains import GroupElement, hbar_cochain, projection_pullback
    from restriction_oracle import cup
    from braidcert.certify import partition_layout as layout_of
    from braidcert.chains import pair, torus_cycle

    layout = layout_of((1, 1), 4)
    lhs = hbar_partition_cochain(theta, (1, 1))
    rhs = cup(
        projection_pullback(hbar_cochain(theta, 1, exterior=True), 0, layout),
        projection_pullback(hbar_cochain(theta, 1, exterior=True), 1, layout),
    )
    a = GroupElement(pure_gen_braid(4, 1, 2))  # A(1,2) in the first block
    b = GroupElement(pure_gen_braid(4, 3, 4))  # A(3,4) in the second block
    z = torus_cycle([a, b])
    assert pair(lhs, z) == 2 * pair(rhs, z)
    assert pair(lhs, z) != pair(rhs, z)


def test_scalar_factor_holds_at_every_part_size(monkeypatch):
    # q = 3 and 4 reach blocks of four and five strands, where a band A(i,j)
    # with j > 3 does not commute with twist(3), and the factor 3! of (1,1,1)
    rng = random.Random(113)
    cases = {}
    for n in range(4, 8):
        theta = MagnusExpansion.standard(n, 2)
        for q in (3, 4):
            for parts in partitions(q, n - q):
                cases[n, parts] = scalar_factor_check(theta, parts, n, rng)
    assert len(cases) == 17
    assert all(ok for ok, _ in cases.values())

    def seen(n, parts):
        return any(not left.is_zero() for left, _ in cases[n, parts][1])

    assert seen(6, (1, 1, 1))
    assert any(seen(n, parts) for n, parts in cases if max(parts) >= 3)
    monkeypatch.setattr(restriction_oracle, "multiplicity_factor", lambda parts: 1)
    theta = MagnusExpansion.standard(6, 2)
    ok, _ = scalar_factor_check(theta, (1, 1, 1), 6, random.Random(113))
    assert not ok
