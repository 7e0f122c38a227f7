"""Regenerate the golden outputs from the braidcert sources in this checkout.

    python3 perfbench/make_golden.py

Writes ``golden/cert-grid/*.out`` and ``golden/suites-mix/*.out`` (the suites at the
default seed) byte for byte, and ``golden/word-growth.sha256`` with the digest of every
xi and tau1 output any seed can ask for.  Run it only when an output change is
intended; the goldens are what every benchmark run checks against.
"""

import hashlib

from run import finish_worker, start_worker
from workloads import DEFAULT_SEED, GOLDEN_DIR, all_word_variants, cert_grid, suites_mix


def outputs(items):
    proc, _ = start_worker(items, None)
    records = finish_worker(proc)["items"]
    for item, record in zip(items, records):
        if record["code"] != 0:
            raise SystemExit(f"{item.name} exited with {record['code']}:\n{record['stderr']}")
        yield item, record["stdout"].encode("utf-8")


def main() -> None:
    for workload, items in (("cert-grid", cert_grid(DEFAULT_SEED)),
                            ("suites-mix", suites_mix(DEFAULT_SEED))):
        target = GOLDEN_DIR / workload
        target.mkdir(parents=True, exist_ok=True)
        for item, data in outputs(items):
            (target / f"{item.name}.out").write_bytes(data)
    lines = [f"{hashlib.sha256(data).hexdigest()}  {item.name}\n"
             for item, data in outputs(all_word_variants())]
    (GOLDEN_DIR / "word-growth.sha256").write_text("".join(lines))


if __name__ == "__main__":
    main()
