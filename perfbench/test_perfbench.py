"""Tests of the benchmark itself: output checks, tracer counters and the run contract.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys

import pytest

from run import BENCH_DIR, run_pass
from tracer import layer_times, read_spans
from workloads import GOLDEN_DIR, WORKLOADS, Golden, word_growth

# the layers each workload is chosen to exercise
EXERCISED = {
    "cert-grid": ("words", "tensors", "cochains", "chains", "certify", "cli"),
    "suites-mix": ("magnus", "tensors", "suites", "cli"),
    "word-growth": ("words", "braids", "magnus", "cli"),
}


def fail_ratio(result: dict) -> float:
    return len(result["failed"]) / len(result["items"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_flipped_golden_byte_fails_the_item(tmp_path, workload):
    items = WORKLOADS[workload](0)[:1]
    assert fail_ratio(run_pass(items, Golden(workload))) == 0

    corrupted = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, corrupted)
    target = corrupted / workload / f"{items[0].name}.out"
    offset = 5
    if items[0].expect == "digest":
        target = corrupted / f"{workload}.sha256"
        offset = target.read_text().index(f"  {items[0].name}\n") - 1
    data = bytearray(target.read_bytes())
    data[offset] ^= 1
    target.write_bytes(bytes(data))
    assert fail_ratio(run_pass(items, Golden(workload, corrupted))) > 0


def test_every_seed_asks_only_for_outputs_with_a_golden():
    golden = Golden("word-growth")
    for seed in range(50):
        for item in word_growth(seed):
            assert item.expect != "digest" or golden.digest(item.name) is not None, item.name


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for workload in EXERCISED:
        spans = tmp_path_factory.mktemp("spans") / f"{workload}.bin"
        out[workload] = (run_pass(WORKLOADS[workload](0), Golden(workload), spans), spans)
    return out


@pytest.mark.parametrize("workload", list(EXERCISED))
def test_traced_pass_keeps_outputs_and_counts_every_exercised_layer(traced, workload):
    result, _ = traced[workload]
    assert result["failed"] == []
    layers = result["layers"]
    for layer in EXERCISED[workload]:
        metrics = {k: v for k, v in layers.items() if k.startswith(layer + ".")}
        assert metrics, layer
        assert all(v > 0 for v in metrics.values()), metrics


def test_traced_counts_repeat_exactly(traced, tmp_path):
    first, _ = traced["word-growth"]
    again = run_pass(word_growth(0), Golden("word-growth"), tmp_path / "spans.bin")
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in again["layers"].items() if not k.endswith("_s")}


def test_spans_file_gives_back_the_self_times(traced):
    result, spans = traced["cert-grid"]
    self_s, inclusive = layer_times(*read_spans(str(spans)))
    assert self_s["words"] == result["layers"]["words.self_s"]
    assert inclusive["cli.main"] == result["layers"]["cli.main_s"]


def test_without_the_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cert-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
