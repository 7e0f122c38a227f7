"""The value types: frozenness, field-wise equality and hashing, exact reprs.

README's "Library use" states which types are immutable, which compare
with == and which are hashable; failing suite rows print reprs as their
witnesses.  A fresh interpreter checks that importing the CLI loads
neither dataclasses nor the bar complex.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import braidcert
from braidcert import (
    BarChain,
    BlockEmbedding,
    BraidWord,
    Certificate,
    Cochain,
    EndoMap,
    ExteriorElement,
    FreeWord,
    HomTensor,
    SuiteReport,
    TruncatedTensor,
)
from braidcert.suites import SuiteRow
from test_words import identity_map


def _zero():
    return TruncatedTensor.zero(2, 1)


def _evaluate(g):
    return _zero()


def _certificate(**changes) -> Certificate:
    fields = dict(
        n=2, q=1, catalog_depth=3, seed=0, partitions=[(1,)],
        cycles={(1,): ["cross:{2:torus:A(1,2)}"]},
        pairings=[[ExteriorElement(2, 1, {(1,): 1})]], rank=1, expected_rank=1,
        verdict="pass", triangular_violations=[],
    )
    fields.update(changes)
    return Certificate(*fields.values())


# (value, an equal value built apart, an unequal value of the same type)
FROZEN = {
    "FreeWord": (FreeWord(3, (1, -2)), FreeWord(3, [1, -2]), FreeWord(4, (1, -2))),
    "EndoMap": (identity_map(2), EndoMap(2, [FreeWord(2, (1,)), FreeWord(2, (2,))]),
                EndoMap(2, (FreeWord(2, (2,)), FreeWord(2, (1,))))),
    "BraidWord": (BraidWord(3, (1, -2)), BraidWord(3, [1, -2]), BraidWord(3, (1, 2))),
    "BlockEmbedding": (BlockEmbedding(1, 2, 4), BlockEmbedding(1, 2, 4), BlockEmbedding(0, 2, 4)),
    "Cochain": (Cochain(1, 2, _zero, _evaluate), Cochain(1, 2, _zero, _evaluate),
                Cochain(1, 3, _zero, _evaluate)),
    "TruncatedTensor": (TruncatedTensor(2, 2, {(1,): 1}), TruncatedTensor(2, 2, {(1,): 1, (2,): 0}),
                        TruncatedTensor(2, 3, {(1,): 1})),
    "HomTensor": (HomTensor(2, 1, {(1, 2): 3}), HomTensor(2, 1, {(1, 2): Fraction(6, 2)}),
                  HomTensor(2, 1, {(2, 1): 3})),
    "ExteriorElement": (ExteriorElement(3, 2, {(1, 3): -1}), ExteriorElement(3, 2, {(1, 3): -1}),
                        ExteriorElement(3, 2, {(1, 2): -1})),
    "BarChain": (BarChain(1, {(BraidWord(2, (1, 1)),): 2}), BarChain(1, {(BraidWord(2, (1, 1)),): 2}),
                 BarChain(1, {(BraidWord(2, (1, 1)),): 1})),
}
HASHABLE = {"FreeWord", "EndoMap", "BraidWord", "BlockEmbedding", "Cochain"}
MUTABLE = {
    "Certificate": (_certificate(), _certificate(), _certificate(rank=0)),
    "SuiteRow": (SuiteRow("a", "b", 1, True), SuiteRow("a", "b", 1, True, None),
                 SuiteRow("a", "b", 1, True, "w")),
    "SuiteReport": (SuiteReport("s", 0, [SuiteRow("a", "b", 1, True)]),
                    SuiteReport("s", 0, [SuiteRow("a", "b", 1, True)]), SuiteReport("s", 0)),
}


def _first_field(value) -> str:
    return next(iter(vars(value)))


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values_refuse_assignment_and_deletion(name):
    value = FROZEN[name][0]
    for field in ("n", "degree", "offset"):
        if hasattr(value, field):
            break
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 7)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", sorted(FROZEN) + sorted(MUTABLE))
def test_values_compare_by_type_and_fields(name):
    value, twin, other = {**FROZEN, **MUTABLE}[name]
    assert value == twin and not value != twin and value is not twin
    assert value != other and not value == other
    assert value != object() and value != None  # noqa: E711


def test_tensor_shapes_with_equal_fields_are_not_equal():
    assert TruncatedTensor(2, 1, {(1,): 1}) != ExteriorElement(2, 1, {(1,): 1})
    assert HomTensor.zero(2, 1) != TruncatedTensor.zero(2, 1)
    assert FreeWord(3, (1,)) != BraidWord(3, (1,))


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_hashability_is_as_documented(name):
    value, twin, _ = FROZEN[name]
    if name in HASHABLE:
        assert hash(value) == hash(twin)
        assert {value: 1}[twin] == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_reports_are_mutable_and_unhashable(name):
    value, twin, _ = MUTABLE[name]
    with pytest.raises(TypeError):
        hash(value)
    field = _first_field(value)
    setattr(twin, field, "changed")
    assert getattr(twin, field) == "changed" and value != twin


def test_braid_word_caches_its_key_and_permutation_on_the_word():
    g = BraidWord(3, (1, -2))
    assert "key" not in vars(g) and "perm" not in vars(g)
    key, perm = g.key, g.perm
    assert vars(g)["key"] is key and g.key is key
    assert vars(g)["perm"] is perm and perm == (2, 3, 1)
    assert g == BraidWord(3, (1, -2)) and hash(g) == hash(key)


def test_reprs_are_exact():
    row = SuiteRow("a", "b", 1, False, "w")
    assert [repr(FROZEN[name][0]) for name in sorted(FROZEN) if name != "Cochain"] == [
        "BarChain(degree=1, terms={(BraidWord(n=2, letters=(1, 1)),): 2})",
        "BlockEmbedding(offset=1, size=2, ambient=4)",
        "BraidWord(n=3, letters=(1, -2))",
        "EndoMap(n=2, images=(FreeWord(n=2, letters=(1,)), FreeWord(n=2, letters=(2,))))",
        "ExteriorElement(n=3, q=2, terms={(1, 3): -1})",
        "FreeWord(n=3, letters=(1, -2))",
        "HomTensor(n=2, out_degree=1, terms={(1, 2): 3})",
        "TruncatedTensor(n=2, cap=2, terms={(1,): 1})",
    ]
    assert repr(TruncatedTensor(2, 2, {(1,): 1, (2, 1): Fraction(1, 2)})) == (
        "TruncatedTensor(n=2, cap=2, terms={(1,): 1, (2, 1): Fraction(1, 2)})"
    )
    assert repr(Cochain(1, 2, _zero, _evaluate)) == (
        f"Cochain(degree=1, n=2, zero_value={_zero!r}, evaluate={_evaluate!r})"
    )
    assert repr(row) == "SuiteRow(name='a', identity='b', cases=1, passed=False, witness='w')"
    assert repr(SuiteReport("s", 0, [row])) == (
        "SuiteReport(suite='s', seed=0, rows=[SuiteRow(name='a', identity='b', cases=1, "
        "passed=False, witness='w')])"
    )
    assert repr(_certificate()) == (
        "Certificate(n=2, q=1, catalog_depth=3, seed=0, partitions=[(1,)], "
        "cycles={(1,): ['cross:{2:torus:A(1,2)}']}, "
        "pairings=[[ExteriorElement(n=2, q=1, terms={(1,): 1})]], rank=1, expected_rank=1, "
        "verdict='pass', triangular_violations=[])"
    )


def test_defaults_are_fresh_per_value():
    a, b = SuiteReport("s", 0), SuiteReport("s", 0)
    a.rows.append(SuiteRow("a", "b", 1, True))
    assert b.rows == [] and SuiteRow("a", "b", 1, True).witness is None
    assert TruncatedTensor(2, 1).terms == {} and BarChain(2).terms == {}


IMPORTED_MODULES = """
import sys
{}
print(" ".join(sorted(sys.modules)))
"""
# the standard library modules braidcert imports, so that what the
# interpreter's site packages load is in the baseline as well
STDLIB = (
    "argparse contextlib fractions functools itertools json math numbers operator os "
    "random re typing weakref"
)


def _modules_after(statement: str) -> set[str]:
    src = str(Path(braidcert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", IMPORTED_MODULES.format(statement)],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(run.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_the_bar_complex():
    baseline = _modules_after(f"import {', '.join(STDLIB.split())}")
    loaded = _modules_after("import braidcert.cli")
    assert "braidcert.cli" in loaded
    assert not {"dataclasses", "braidcert.chains"} & (loaded - baseline)


def test_bar_complex_names_load_on_first_use():
    loaded = _modules_after(
        "import braidcert\n"
        "assert 'braidcert.chains' not in sys.modules\n"
        "from braidcert import torus_cycle, pair\n"
        "from braidcert.chains import torus_cycle as tc, pair as p\n"
        "assert (torus_cycle, pair) == (tc, p)"
    )
    assert "braidcert.chains" in loaded
