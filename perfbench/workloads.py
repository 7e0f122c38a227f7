"""The benchmark's workloads: braidcert argv items built from a seed, and their checks.

Each item is one CLI invocation.  How its stdout is checked:

* "golden"  -- byte for byte against ``golden/<workload>/<name>.out``;
* "digest"  -- sha256 against the line for ``name`` in ``golden/word-growth.sha256``;
* "literal" -- against the item's own expected text.

Every item must also exit with code 0.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0

CERT_GRID = ((5, 2), (6, 3), (7, 3), (8, 3), (8, 4))
SUITES = ("lemmas", "cocycle", "primitivity", "expansion-independence", "independence-small")
# pseudo-Anosov families: (label, strands, letters of one period, largest power)
FAMILIES = (("a", 3, (1, -2), 7), ("b", 4, (1, 2, -3), 5))


@dataclass(frozen=True)
class Item:
    name: str
    argv: tuple[str, ...]
    expect: str
    literal: str | None = None


def _braid_text(letters: tuple[int, ...]) -> str:
    return " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in letters)


def cert_grid(seed: int) -> list[Item]:
    # certificate() ignores the seed, so the grid is fixed
    return [
        Item(f"independence-n{n}-q{q}", ("independence", "--n", str(n), "--q", str(q)), "golden")
        for n, q in CERT_GRID
    ]


def suites_mix(seed: int) -> list[Item]:
    # The suites run at the default seed whatever the workload seed: the cost of a
    # suite varies up to fourfold with its seed (expansion-independence takes 1.1 s
    # at seed 4 and 5.0 s at seed 0), which would swamp any change between commits.
    return [
        Item(f"check-{suite}", ("check", "--suite", suite, "--seed", str(DEFAULT_SEED)), "golden")
        for suite in SUITES
    ]


def _rotated(period: tuple[int, ...], k: int, rotation: int) -> tuple[int, ...]:
    word = period * k
    return word[rotation:] + word[:rotation]


def word_variant(label: str, n: int, period: tuple[int, ...], k: int, rotation: int) -> list[Item]:
    """xi and tau1 on one rotation of period^k; braid-eq gets its seeded rewrite separately."""
    text = _braid_text(_rotated(period, k, rotation))
    tag = f"{label}{k}-r{rotation}"
    return [
        Item(f"xi-{tag}", ("xi", "--n", str(n), text), "digest"),
        Item(f"tau1-{tag}", ("tau1", "--n", str(n), text), "digest"),
    ]


def word_growth(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items: list[Item] = []
    for label, n, period, top in FAMILIES:
        for k in range(1, top + 1):
            rotation = rng.randrange(len(period))
            items += word_variant(label, n, period, k, rotation)
            letters = _rotated(period, k, rotation)
            # s_i s_{i+1} s_i s_{i+1}^-1 s_i^-1 s_{i+1}^-1 is trivial in B_n but not freely
            # trivial, so the right side is another word for the same braid.  It goes in
            # front: later, it would multiply the size of every image it passes through.
            i = rng.randrange(1, n - 1)
            relator = (i, i + 1, i, -(i + 1), -i, -(i + 1))
            if rng.random() < 0.5:
                relator = tuple(-l for l in reversed(relator))
            rewritten = relator + letters
            expected = json.dumps({"n": n, "equal": True}, indent=2) + "\n"
            items.append(
                Item(
                    f"braid-eq-{label}{k}-r{rotation}",
                    ("braid-eq", "--n", str(n), _braid_text(letters), _braid_text(rewritten)),
                    "literal",
                    expected,
                )
            )
    return items


def all_word_variants() -> list[Item]:
    """Every xi and tau1 item any seed can produce: the goldens of word-growth."""
    return [
        item
        for label, n, period, top in FAMILIES
        for k in range(1, top + 1)
        for rotation in range(len(period))
        for item in word_variant(label, n, period, k, rotation)
    ]


WORKLOADS = {"cert-grid": cert_grid, "suites-mix": suites_mix, "word-growth": word_growth}


class Golden:
    """Expected outputs, read from a golden directory on first use."""

    def __init__(self, workload: str, root: Path = GOLDEN_DIR):
        self.dir = root / workload
        self.digest_file = root / f"{workload}.sha256"
        self._digests: dict[str, str] | None = None

    def bytes(self, name: str) -> bytes | None:
        path = self.dir / f"{name}.out"
        return path.read_bytes() if path.is_file() else None

    def digest(self, name: str) -> str | None:
        if self._digests is None:
            self._digests = {}
            if self.digest_file.is_file():
                for line in self.digest_file.read_text().splitlines():
                    value, key = line.split()
                    self._digests[key] = value
        return self._digests.get(name)

    def check(self, item: Item, code: object, stdout: str) -> bool:
        if code != 0:
            return False
        if item.expect == "golden":
            return stdout.encode("utf-8") == self.bytes(item.name)
        if item.expect == "digest":
            return hashlib.sha256(stdout.encode("utf-8")).hexdigest() == self.digest(item.name)
        if item.expect == "literal":
            return stdout == item.literal
        raise ValueError(f"unknown check {item.expect!r}")
