"""Partitions, catalogs, ranks, certificates.

Rank computations are cross-checked against a plain rational Gaussian
elimination oracle; partition enumeration against brute force over tuples;
the set-partition pairing against the literal bar-complex pair on the
torus cycle, and the unordered set-partition sum against the ordered one.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, combinations, permutations, product as iter_product
from pathlib import Path

import pytest

from braidcert import certify as certify_module
from braidcert import chains as chains_module
from braidcert import cli
from braidcert import tensors as tensors_module
from braidcert.braids import BraidWord, full_twist, parse_braid, pure_gen_braid
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
from braidcert.cochains import tau1
from braidcert.magnus import MagnusExpansion
from braidcert.tensors import ExteriorElement, exterior_basis, nested_traces
import restriction_oracle
from restriction_oracle import hbar_partition_cochain, multiplicity_factor, scalar_factor_check
from test_chains import random_commuting_set
from test_cochains import random_custom

F = Fraction

CERT_GRID = [(5, 2), (6, 3), (7, 3), (8, 3), (8, 4)]
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cert-grid"
standard = cache(MagnusExpansion.standard)


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


def embedded_catalog(parts, n, depth):
    """Each catalog cycle's elements in the order of partition_cycles, embedded
    here from the block catalogs along the layout of the partition."""
    layout = [e for p, e in zip(parts, partition_layout(parts, n)) if p]
    tuples = [certify_module._commuting_tuples(p, depth) for p in parts if p]
    return [
        tuple(e.apply(g) for e, combo in zip(layout, choice) for _, g in combo)
        for choice in iter_product(*tuples)
    ]


def test_partition_cycles_round_trip_through_grammar():
    # the catalog lists each block's elements in block order; the shuffle of the
    # block tori is the reference for the torus of the union that both build
    checked = 0
    for n, q in GRAMMAR_GRID:
        for parts in partitions(q, n - q):
            descriptors = partition_cycles(parts, n, depth=3)
            embedded = embedded_catalog(parts, n, 3)
            assert len(descriptors) == len(embedded)
            for descriptor, elements in zip(descriptors, embedded):
                parsed = parse_cycle(descriptor, n)
                assert [g.letters for g in parsed] == [g.letters for g in elements]
                chain = torus_cycle(parsed)
                assert chain.is_cycle()
                cuts = list(accumulate(p for p in parts if p))
                blocks = [parsed[a:b] for a, b in zip([0] + cuts, cuts)]
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
            embedded = embedded_catalog(parts, n, 3)
            for descriptor, elements in zip(partition_cycles(parts, n, depth=3), embedded):
                assert parse_cycle(descriptor, n) == elements
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
    descriptors = partition_cycles((2, 0), 4, depth=3)
    assert descriptors[0] == "cross:{3:torus:A(1,2)|twist(3)}"
    assert descriptors[1] == "cross:{3:torus:A(2,3)|twist(3)}"


@pytest.mark.parametrize("part", [1, 2, 3, 4, 5])
def test_every_block_catalog_holds_a_commuting_tuple(part):
    # A(1,2), twist(3), ..., twist(part + 1) commute pairwise, so the search
    # for commuting part-tuples in a block of size part + 1 is never empty
    size = part + 1
    nested = [pure_gen_braid(size, 1, 2)]
    nested += [full_twist(size, k) for k in range(3, size + 1)]
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


def filtered_tuples(part, depth):
    """The catalog search as a filter over every combination, in lexicographic order."""
    elements = certify_module._block_elements(part + 1)
    commutes = cache(lambda i, j: elements[i][1].commutes_with(elements[j][1]))
    found = []
    for combo in combinations(range(len(elements)), part):
        if all(commutes(i, j) for i, j in combinations(combo, 2)):
            found.append(tuple(elements[i] for i in combo))
            if len(found) == depth:
                break
    return tuple(found)


def names(tuples):
    return [[name for name, _ in combo] for combo in tuples]


@pytest.mark.parametrize("part", range(1, 8))
def test_commuting_prefix_search_matches_the_combinations_filter(part):
    # the first d tuples of the filter are its answer at depth d
    expected = filtered_tuples(part, 6)
    for depth in range(1, 7):
        got = certify_module._commuting_tuples(part, depth)
        assert names(got) == names(expected[:depth])
        assert all(
            a == b for combo, want in zip(got, expected) for (_, a), (_, b) in zip(combo, want)
        )
    assert len(expected) == {1: 1, 2: 3, 3: 5}.get(part, 6)


def test_commuting_prefix_search_reaches_part_nine_quickly():
    # the filter over all 9-subsets of the block's 53 elements took minutes
    start = time.perf_counter()
    tuples = certify_module._commuting_tuples(9, 3)
    assert time.perf_counter() - start < 1.0
    assert len(tuples) == 3 and all(len(combo) == 9 for combo in tuples)
    assert all(a.commutes_with(b) for combo in tuples for (_, a), (_, b) in combinations(combo, 2))


def test_block_catalog_search_decides_each_pair_once(monkeypatch):
    # the search decides one pair the combinations filter never reaches: at
    # part 4 it extends a prefix by the block's last element, twist(5),
    # deciding its pairs before finding no element left to complete the
    # tuple, while the filter never forms a 4-tuple in which twist(5) is third
    calls = []
    original = BraidWord.commutes_with

    def counting(self, other):
        calls.append(frozenset((self, other)))
        return original(self, other)

    monkeypatch.setattr(BraidWord, "commutes_with", counting)
    certify_module._commuting_tuples.cache_clear()
    try:
        for n, q in CERT_GRID:
            for parts in partitions(q, n - q):
                partition_cycles(parts, n, depth=3)
    finally:
        certify_module._commuting_tuples.cache_clear()
    assert len(calls) == len(set(calls)) == 51


def test_catalog_candidates_commute_in_the_ambient_group():
    # commutation is decided only inside each block; the ambient products of
    # the embedded elements, compared as braids, are the oracle
    pairs = set()
    for n, q, depth in [(n, q, 3) for n, q in CERT_GRID] + [(10, 5, 6)]:
        for parts in partitions(q, n - q):
            for elements in embedded_catalog(parts, n, depth):
                pairs.update(combinations(elements, 2))
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
            for descriptor in partition_cycles(lam, n, depth=3):
                elements = parse_cycle(descriptor, n)
                assert torus_pairings(theta, elements, rows) == literal_pairings(
                    theta, elements, rows
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
        for descriptor in partition_cycles(parts, n, depth=2):
            traces = nested_traces([tau1(theta, g) for g in parse_cycle(descriptor, n)])
            for mask, value in traces.items():
                if len({block[g] for g in range(len(block)) if mask >> g & 1}) > 1:
                    assert value.is_zero(), (descriptor, mask)
                    spanning += 1
                else:
                    nonzero += not value.is_zero()
    assert spanning >= 40 and nonzero >= 20


DIFFERENTIAL_ROWS = [(2, 1), (1, 2), (1, 1), (2, 2), (1, 0, 1), (3, 1), (1, 3)]


def cli_pairing(capsys, row, elements):
    """`braidcert pair` on the torus of the elements: exit code, stdout, stderr."""
    flag = ["--p", str(row[0])] if len(row) == 1 else ["--partition", ",".join(map(str, row))]
    cycle = "torus:" + "|".join(str(g) for g in elements)
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
        for descriptor in partition_cycles(parts, n, depth=3):
            elems = [g ** rng.choice([-2, -1, 1, 2]) for g in parse_cycle(descriptor, n)]
            rng.shuffle(elems)
            inputs.append(elems)
    s1, one = BraidWord(3, (1,)), BraidWord.identity(3)
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
        for descriptor in partition_cycles(parts, n, depth=3):
            elements = parse_cycle(descriptor, n)
            values = literal_pairings(theta, elements, rows)
            assert values == [values[0]] * len(rows), descriptor
            assert torus_pairings(theta, elements, rows) == values
            nonzero += not values[0].is_zero()
    assert nonzero >= 4


def test_torus_pairings_reject_elements_acting_on_homology():
    theta = MagnusExpansion.standard(3, 2)
    s1 = BraidWord(3, (1,))
    with pytest.raises(ValueError, match="acts nontrivially on homology"):
        torus_pairings(theta, [s1], [(1, 0)])


def test_rows_that_do_not_fit_the_torus_pair_to_zero():
    # a row's nonzero parts must sum to the number of elements; an empty torus
    # pairs with the empty row to the unit
    theta = MagnusExpansion.standard(3, 2)
    values = torus_pairings(theta, tower(2), [(1,), (3,), (2, 2), (), (1, 1, 1), (2,), (1, 1)])
    assert values[:5] == [ExteriorElement.zero(3, 2)] * 5
    assert not values[5].is_zero() and not values[6].is_zero()
    assert torus_pairings(theta, [], [(), (1,)]) == [
        ExteriorElement.unit(3),
        ExteriorElement.zero(3, 0),
    ]


# the unordered set-partition sum against the ordered one


def ordered_pairings(theta, elements, rows):
    """<hbar_mu, T(elements)> by the ordered set-partition sum: a layer per
    part of mu, each holding the signed wedge sums of the parts so far by the
    mask of the elements they use, each new part wedged on the right."""
    n, q, full = theta.n, len(elements), (1 << len(elements)) - 1
    sized = {}  # the nonzero B(U) by |U|
    for mask, value in nested_traces([tau1(theta, g) for g in elements]).items():
        if not value.is_zero():
            sized.setdefault(mask.bit_count(), []).append((mask, value))
    out = []
    for mu in rows:
        parts = [m for m in mu if m]
        layer = dict(sized.get(parts[0], ())) if parts else {0: ExteriorElement.unit(n)}
        for m in parts[1:]:
            grown = {}
            for used, value in layer.items():
                # one inversion per used element listed before a smaller one
                odd_above = tensors_module._odd_above(used)
                for mask, block in sized.get(m, ()):
                    if used & mask:
                        continue
                    term = value.wedge(block)
                    if (odd_above & mask).bit_count() & 1:
                        term = -term
                    grown[used | mask] = grown[used | mask] + term if used | mask in grown else term
            layer = grown
        out.append(layer.get(full, ExteriorElement.zero(n, q)))
    return out


def tower(p):
    """The nested torus A(1,2), twist(3), ..., twist(p + 1) at rank p + 1."""
    names = ["A(1,2)"] + [f"twist({k})" for k in range(3, p + 2)]
    return [parse_braid(name, p + 1) for name in names]


@pytest.mark.parametrize("p", range(1, 8))
def test_torus_pairings_match_the_ordered_sum_on_the_tower(p):
    theta = standard(p + 1, 2)
    rows = partitions(p, p) + [tuple(reversed(nu)) for nu in partitions(p, p)]
    got = torus_pairings(theta, tower(p), rows)
    assert got == ordered_pairings(theta, tower(p), rows)
    assert all(not v.is_zero() for v in got)


def test_torus_pairings_match_the_ordered_sum_on_every_catalog_tuple():
    checked = nonzero = 0
    for p in range(1, 7):
        theta = standard(p + 1, 2)
        rows = partitions(p, p)
        for combo in certify_module._commuting_tuples(p, 6):
            elements = [g for _, g in combo]
            got = torus_pairings(theta, elements, rows)
            assert got == ordered_pairings(theta, elements, rows), [name for name, _ in combo]
            checked += len(rows)
            nonzero += sum(not v.is_zero() for v in got)
    # 1, 3, 5, 6, 6 and 6 tuples of 1, 2, 3, 5, 7 and 11 rows
    assert checked == 1 + 3 * 2 + 5 * 3 + 6 * 5 + 6 * 7 + 6 * 11 and nonzero >= 30


@pytest.mark.parametrize("p", range(2, 8))
def test_tower_pairs_to_the_closed_form(p):
    # <hbar_p, T_p> = p! (X_1 + X_2) ^ X_3 ^ ... ^ X_(p+1), every row is a
    # multiple of it, and the row of all ones is (p!)^2 times it
    n, rows = p + 1, partitions(p, p)
    values = dict(zip(rows, torus_pairings(standard(n, 2), tower(p), rows)))
    rest = tuple(range(3, n + 1))
    form = ExteriorElement(n, p, {(1, *rest): 1, (2, *rest): 1})
    assert values[rows[0]] == math.factorial(p) * form
    assert values[(1,) * p] == math.factorial(p) ** 2 * form
    for nu, v in values.items():
        assert v == v.coefficient((1, *rest)) * form, nu


def one_ordering_traces(maps):
    """The terms of Tr N'(U) for every nonempty U, keyed by mask, where
    N'(U) = |U| M_min(U) N'(U - min U): the recurrence of nested_traces with
    the one transition at the lowest position of U, so that
    Tr N'(U) = |U|! Tr(M_u1 ... M_uk) over U in ascending order."""
    n = maps[0].n
    nested = {0: {a: [(a, 0, 1)] for a in range(1, n + 1)}}
    out = {}
    for mask in range(1, 1 << len(maps)):
        g = (mask & -mask).bit_length() - 1
        size = mask.bit_count()
        acc = Counter()
        for (b, a, c), x in maps[g].terms.items():
            bit = 1 << c - 1
            for j, rest, y in nested[mask ^ 1 << g].get(b, ()):
                if not rest & bit:
                    odd = (rest & bit - 1).bit_count() % 2
                    acc[a, j, rest | bit] += size * (-x * y if odd else x * y)
        rows, trace = {}, Counter()
        for (a, j, rest), c in acc.items():
            if c:
                rows.setdefault(a, []).append((j, rest, c))
                if a == j:
                    trace[rest] += c
        nested[mask] = rows
        out[mask] = {rest: c for rest, c in trace.items() if c}
    return out


def test_one_ordering_gives_every_nested_trace():
    # ROADMAP 13's collapse, a conjecture pinned here and not used by src/:
    # B(U) = |U|! Tr(M_u1 ... M_uk), one ordering instead of all |U|! of them.
    # tau1 of a pure braid does not depend on the expansion, so the standard
    # one stands for all; the tower up to p = 6 is also taken shuffled
    rng = random.Random(67)
    tori = [tower(p) for p in range(1, 8)] + [rng.sample(tower(p), p) for p in range(1, 7)]
    for p in range(1, 7):
        tori += [[g for _, g in combo] for combo in certify_module._commuting_tuples(p, 6)]
    for elements in tori:
        maps = [tau1(standard(elements[0].n, 2), g) for g in elements]
        full = nested_traces(maps)
        assert {mask: v.terms for mask, v in full.items()} == one_ordering_traces(maps)
    assert len(tori) == 13 + 1 + 3 + 5 + 6 + 6 + 6


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


# block-factored pairings against the ambient set-partition sum


def ambient_certificate(n, q, depth):
    """The certificate with every cycle paired at ambient rank: torus_pairings
    on the elements parse_cycle reads from each cycle's descriptor, under one
    standard expansion of rank n, with its rank and triangularity table taken
    from a dense matrix laid out here, one segment of exterior coordinates per
    cycle, zero columns included; returned with that matrix."""
    theta = standard(n, 2)
    parts_list = partitions(q, n - q) if q else []
    basis = exterior_basis(n, q)
    cycles = {lam: partition_cycles(lam, n, depth) for lam in parts_list}
    values = {
        lam: [torus_pairings(theta, parse_cycle(c, n), parts_list) for c in cycles[lam]]
        for lam in parts_list
    }
    column = {sum(1 << i - 1 for i in idx): k for k, idx in enumerate(basis)}
    matrix = [[] for _ in parts_list]
    for i, row in enumerate(matrix):
        for v in (v for lam in parts_list for v in values[lam]):
            segment = [0] * len(basis)
            for mask, c in v[i].terms.items():
                segment[column[mask]] = c
            row += segment
    rank = exact_rank(matrix)
    violations = [
        {"row": list(mu), "cycle_partition": list(lam), "cycle": c}
        for i, mu in enumerate(parts_list)
        for lam in parts_list[i + 1:]
        for c, v in zip(cycles[lam], values[lam])
        if not v[i].is_zero()
    ]
    verdict = "pass" if rank == len(parts_list) else "inconclusive-catalog"
    pairings = [[v[i] for lam in parts_list for v in values[lam]] for i in range(len(parts_list))]
    cert = Certificate(
        n, q, depth, 0, parts_list, cycles, pairings, rank, len(parts_list), verdict, violations
    )
    return cert, matrix


AMBIENT_CONFIGS = [
    (n, q, 3)
    for n, q in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3), (8, 4), (9, 4), (10, 5)]
] + [(10, 5, 6), (11, 5, 6), (12, 6, 3)]


@pytest.mark.parametrize("n, q, depth", AMBIENT_CONFIGS)
def test_block_tables_give_the_ambient_certificate(n, q, depth):
    ambient, matrix = ambient_certificate(n, q, depth)
    got = certificate(n, q, depth).to_json_dict()
    assert got == ambient.to_json_dict()
    assert got["matrix"] == [[f"{x.numerator}/{x.denominator}" for x in row] for row in matrix]


def random_layout(rng, q):
    """A composition of q into parts of at most 4, in random order, with up to
    two one-strand blocks (zero parts) placed among them."""
    parts = []
    while sum(parts) < q:
        parts.append(rng.randint(1, min(4, q - sum(parts))))
    for _ in range(rng.randint(0, 2)):
        parts.insert(rng.randint(0, len(parts)), 0)
    return tuple(parts)


def test_block_pairings_match_ambient_pairings_on_random_layouts():
    # each block carries a random catalog tuple of depth 6; the union of the
    # block traces, each moved to its block's elements and strands, must pair
    # every partition of q as the ambient set-partition sum does
    rng = random.Random(78)
    rows_checked = nonzero = repeated = unsorted = zeros = 0
    for _ in range(60):
        q = rng.randint(1, 6)
        parts = random_layout(rng, q)
        n = sum(p + 1 for p in parts)
        picks = [
            (p, e, rng.randrange(len(certify_module._commuting_tuples(p, 6))))
            for p, e in zip(parts, partition_layout(parts, n))
            if p
        ]
        elements = [
            e.apply(g) for p, e, k in picks for _, g in certify_module._commuting_tuples(p, 6)[k]
        ]
        union, first = [], 0
        for p, e, k in picks:
            for mask, v in certify_module._block_traces(p, 6)[k]:
                shifted = {tuple(e.offset + a for a in idx): c for idx, c in v.sorted_terms()}
                union.append((mask << first, ExteriorElement(n, v.q, shifted)))
            first += p
        rows = partitions(q, q)
        got = certify_module._partition_sums(n, q, union, rows)
        assert got == torus_pairings(standard(n, 2), elements, rows), parts
        rows_checked += len(rows)
        nonzero += sum(not v.is_zero() for v in got)
        blocks = [p for p in parts if p]
        repeated += len(set(blocks)) < len(blocks)
        unsorted += blocks != sorted(blocks, reverse=True)
        zeros += 0 in parts
    assert rows_checked >= 250 and nonzero >= 100 and repeated >= 15 and unsorted >= 8
    assert zeros >= 20


def test_cert_grid_builds_each_block_table_once(monkeypatch):
    # parts 1, 2, 3 and 4 hold 1, 3, 3 and 3 catalog tuples at depth 3; each
    # tuple's block traces are computed once, and every other use is a lookup
    ranks = []
    original = certify_module.nested_traces

    def counting(maps):
        ranks.append(maps[0].n)
        return original(maps)

    monkeypatch.setattr(certify_module, "nested_traces", counting)
    certify_module._block_traces.cache_clear()
    for n, q in CERT_GRID:
        assert certificate(n, q).passed
    assert sorted(Counter(ranks).items()) == [(2, 1), (3, 3), (4, 3), (5, 3)]


def test_certificate_pairs_only_at_block_rank(monkeypatch):
    # (8, 4) has blocks of at most five strands, and no ambient-rank tau1 or trace
    ranks = Counter()
    real_tau1, real_traces = certify_module.tau1, certify_module.nested_traces

    def tau1_at(theta, g):
        ranks["tau1", theta.n] += 1
        return real_tau1(theta, g)

    def traces_at(maps):
        ranks["traces", maps[0].n] += 1
        return real_traces(maps)

    monkeypatch.setattr(certify_module, "tau1", tau1_at)
    monkeypatch.setattr(certify_module, "nested_traces", traces_at)
    certify_module._block_traces.cache_clear()
    assert certificate(8, 4).passed
    assert {key for key in ranks} == {(f, n) for f in ("tau1", "traces") for n in (2, 3, 4, 5)}


def test_diagonal_entry_is_the_repeat_factor_times_the_block_wedge():
    # mu = lambda splits into lambda's blocks only one part per block, so its
    # entry on the first cycle of lambda is multiplicity_factor(lambda) times
    # the wedge of the single-part block values, each shifted to its strands
    factors = Counter()
    nonzero = 0
    for n, q in [(6, 3), (8, 4), (9, 4)]:
        cert = certificate(n, q)
        basis = exterior_basis(n, q)
        matrix = cert.to_json_dict()["matrix"]
        firsts = list(accumulate((len(cert.cycles[lam]) for lam in cert.partitions), initial=0))
        for i, lam in enumerate(cert.partitions):
            wedge = ExteriorElement.unit(n)
            for p, e in zip(lam, partition_layout(lam, n)):
                if p:
                    combo = certify_module._commuting_tuples(p, 3)[0]
                    v = torus_pairings(standard(p + 1, 2), [g for _, g in combo], [(p,)])[0]
                    shifted = {tuple(e.offset + a for a in idx): c for idx, c in v.sorted_terms()}
                    wedge = wedge.wedge(ExteriorElement(n, p, shifted))
            expected = multiplicity_factor(lam) * wedge
            nonzero += not expected.is_zero()
            assert cert.pairings[i][firsts[i]] == expected, lam
            segment = matrix[i][firsts[i] * len(basis):(firsts[i] + 1) * len(basis)]
            assert segment == [f"{x.numerator}/{x.denominator}"
                               for x in map(expected.coefficient, basis)], lam
            factors[multiplicity_factor(lam)] += 1
    assert set(factors) == {1, 2, 6, 24} and nonzero >= 8


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
    assert len(cert.pairings) == len(cert.partitions) == 2
    assert all(len(row) == n_cycles for row in cert.pairings)
    assert all(len(row) == n_cycles * n_basis for row in cert.to_json_dict()["matrix"])


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
    from braidcert.cochains import hbar_cochain, projection_pullback
    from restriction_oracle import cup
    from braidcert.certify import partition_layout as layout_of
    from braidcert.chains import pair, torus_cycle

    layout = layout_of((1, 1), 4)
    lhs = hbar_partition_cochain(theta, (1, 1))
    rhs = cup(
        projection_pullback(hbar_cochain(theta, 1, exterior=True), 0, layout),
        projection_pullback(hbar_cochain(theta, 1, exterior=True), 1, layout),
    )
    a = pure_gen_braid(4, 1, 2)  # A(1,2) in the first block
    b = pure_gen_braid(4, 3, 4)  # A(3,4) in the second block
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
