"""CLI output against the benchmark's golden files, byte for byte (criterion 10).

The goldens under perfbench/golden/ were made once from the seed code and
every benchmark run checks against them; here the same argv run in-process
through braidcert.cli.main, so an output change fails tier-1 too.  The
golden files are only read.  The argv come from perfbench/workloads.py,
imported the way tests/test_tracer.py imports the tracer.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from braidcert import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

GOLDEN_ITEMS = [
    (workload, item)
    for workload, build in (("cert-grid", workloads.cert_grid), ("suites-mix", workloads.suites_mix))
    for item in build(workloads.DEFAULT_SEED)
]
# xi on the short words of each word-growth family: the long ones belong to the benchmark.
# tau1 on every word, which a sum over letters makes cheap at any length.
WORD_ITEMS = [
    item
    for label, n, period, _ in workloads.FAMILIES
    for k in (1, 2, 3)
    for rotation in range(len(period))
    for item in workloads.word_variant(label, n, period, k, rotation)
    if item.argv[0] == "xi"
] + [item for item in workloads.all_word_variants() if item.argv[0] == "tau1"]


def run_cli(argv, capsys) -> bytes:
    capsys.readouterr()
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize(
    "workload, item", GOLDEN_ITEMS, ids=[item.name for _, item in GOLDEN_ITEMS]
)
def test_output_matches_golden_bytes(workload, item, capsys):
    golden = workloads.Golden(workload).bytes(item.name)
    assert golden is not None, f"no golden file for {item.name}"
    assert run_cli(item.argv, capsys) == golden


@pytest.mark.parametrize("item", WORD_ITEMS, ids=[item.name for item in WORD_ITEMS])
def test_word_output_matches_golden_digest(item, capsys):
    digest = workloads.Golden("word-growth").digest(item.name)
    assert digest is not None, f"no golden digest for {item.name}"
    assert hashlib.sha256(run_cli(item.argv, capsys)).hexdigest() == digest
