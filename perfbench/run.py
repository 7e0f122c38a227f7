"""braidcert benchmark: cold-process CLI workloads with every output checked.

    python3 perfbench/run.py --workload cert-grid --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; braidcert is imported from ``src/``.

Each pass runs one workload's items, in order, in a fresh worker process
(``worker.py``), so the ``artin_action`` lru_cache, the Magnus word cache and the
``tau1`` cache start empty as they do for a real CLI call.  One worker runs at a
time.  A run first times bare worker start-ups for ``setup_s``, then makes passes
until ``--seconds`` would be exceeded (at least one), and reports medians over them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``tracer.py`` plus the tracing
overhead.  Every output is checked either way (see ``workloads.py``); failures count
in ``failed``, and ``failed / attempted`` is the fail ratio.

The last stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record -- provenance, every sample and the argv of every
item -- goes to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Golden, Item

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 15  # bare start-ups per run, besides the one of each pass
PASS_TIMEOUT_S = 150
COUNT_UNITS = {"words.letters_substituted": "letters", "words.peak_image_len": "letters",
               "tensors.peak_terms": "terms", "cochains.tau1_hit_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def start_worker(items: list[Item], spans: Path | None) -> tuple[subprocess.Popen, float]:
    """Spawn a worker with its job and wait for ``ready``; return it and its setup time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = {"items": [[item.name, list(item.argv)] for item in items],
           "spans": None if spans is None else str(spans)}
    start = time.perf_counter()
    # unbuffered, so reading the ready line takes nothing that communicate() must see
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, bufsize=0,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line != b"ready\n":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"worker did not start:\n{err.decode(errors='replace')}")
    return proc, setup


def finish_worker(proc: subprocess.Popen) -> dict:
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.decode(errors='replace')}")
    return json.loads(out.decode("utf-8").splitlines()[-1])


def setup_probe() -> float:
    proc, setup = start_worker([], None)
    finish_worker(proc)
    return setup


def run_pass(items: list[Item], golden: Golden, spans: Path | None = None) -> dict:
    """One pass in a fresh worker, with every item's output checked."""
    proc, setup = start_worker(items, spans)
    result = finish_worker(proc)
    result["setup_s"] = setup
    result["slowest_item_s"] = max(r["seconds"] for r in result["items"])
    result["stdout_bytes"] = sum(len(r["stdout"].encode("utf-8")) for r in result["items"])
    failed = []
    for item, record in zip(items, result["items"]):
        if not golden.check(item, record["code"], record["stdout"]):
            failed.append(item.name)
    result["failed"] = failed
    for record in result["items"]:  # the checked text is not kept in the record
        del record["stdout"]
    return result


def provenance(workload: str, seed: int, items: list[Item]) -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        in_checkout = top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT
        commit = lines[1] if in_checkout else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "items": [{"name": item.name, "argv": list(item.argv)} for item in items],
    }


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = WORKLOADS[workload](seed)
    golden = Golden(workload)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}.bin" if trace else None
    begin = time.perf_counter()

    setup_probe()  # discarded: the first start-up in a fresh checkout compiles bytecode
    setups = [] if trace else [setup_probe() for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_pass(items, golden))
        if trace:
            traced.append(run_pass(items, golden, spans))
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break

    passes = plain + traced
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    if trace:
        metrics = {name: (value, unit) for name, value, unit in layer_metrics(traced)}
        metrics["cli.stdout_bytes"] = (plain[0]["stdout_bytes"], "bytes")
        metrics["trace.overhead_s"] = (median_of(traced, "wall_s") - median_of(plain, "wall_s"), "s")
    else:
        setups += [p["setup_s"] for p in plain]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (median_of(plain, "wall_s"), "s"),
            "cpu_s": (median_of(plain, "cpu_s"), "s"),
            "slowest_item_s": (median_of(plain, "slowest_item_s"), "s"),
            "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB"),
        }
    record = {
        "provenance": provenance(workload, seed, items),
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "setup_samples_s": setups,
        "passes": plain,
        "traced_passes": traced,
    }
    out = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def layer_metrics(traced: list[dict]) -> list[tuple[str, float, str]]:
    """Counts from the first traced pass (they repeat exactly), medians of the times."""
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, value in other["layers"].items():
            if not name.endswith("_s") and value != first[name]:
                raise BenchError(f"traced count {name} differs between passes: "
                                 f"{first[name]} vs {value}")
    out = []
    for name, value in first.items():
        if name.endswith("_s"):
            out.append((name, statistics.median(p["layers"][name] for p in traced), "s"))
        else:
            out.append((name, value, COUNT_UNITS.get(name, "count")))
    return out


def report(workload: str, record: dict) -> None:
    print(f"{workload}: {record['attempted']} items, {record['failed']} failed "
          f"(fail_ratio {record['fail_ratio']:.4f})", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for p in record["passes"] + record["traced_passes"]:
        if p["failed"]:
            print(f"  FAILED: {', '.join(p['failed'])}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "braidcert" / "cli.py").is_file():
        print(f"error: no braidcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, record)
            attempted += record["attempted"]
            failed += record["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in record["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
