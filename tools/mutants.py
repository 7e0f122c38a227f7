"""Run the mutant catalog: each mutant must make one of its named tests fail.

    python3 tools/mutants.py

Run from anywhere; the repository is the parent of this file's directory.  For
each entry of MUTANTS the script copies ``src/`` to a temporary directory,
replaces the entry's old text by its new text in the named file, and runs the
entry's pytest node ids, one after another, against the copy.  A mutant is
killed when a test fails.

Exit codes: 0 when every mutant is killed, 1 when any survives (each survivor
is named), 2 when an entry is stale: its old text does not occur exactly once
in its file, or its tests could not be run.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids expected to kill it


MUTANTS = [
    Mutant(
        "partition sum drops the repeat factor prod_p mult_mu(p)!",
        "src/braidcert/certify.py",
        "repeats * value",
        "value",
        ("tests/test_certify.py::test_tower_pairs_to_the_closed_form",
         "tests/test_certify.py::test_torus_pairings_match_the_ordered_sum_on_the_tower"),
    ),
    Mutant(
        "partition sum drops the listing sign",
        "src/braidcert/certify.py",
        "(-c if odd else c)",
        "c",
        ("tests/test_certify.py::test_torus_pairings_match_the_ordered_sum_on_every_catalog_tuple",
         "tests/test_certify.py::test_torus_pairings_match_the_ordered_sum_on_the_tower"),
    ),
    Mutant(
        "partition sum lists any part first, not the one holding the lowest free element",
        "src/braidcert/certify.py",
        "by_low.get(free & -free, ())",
        "(b for part in by_low.values() for b in part)",
        ("tests/test_certify.py::test_torus_pairings_match_the_ordered_sum_on_the_tower",),
    ),
    Mutant(
        "certificate JSON prints a zero coordinate as 0, not 0/1",
        "src/braidcert/certify.py",
        'segment = ["0/1"] * len(basis)',
        'segment = ["0"] * len(basis)',
        ("tests/test_golden.py::test_output_matches_golden_bytes",
         "tests/test_certify.py::test_block_tables_give_the_ambient_certificate"),
    ),
    Mutant(
        "certificate rank takes its columns from the first row only",
        "src/braidcert/certify.py",
        "for row in pairings for c, v in enumerate(row)",
        "for row in pairings[:1] for c, v in enumerate(row)",
        ("tests/test_certify.py::test_block_tables_give_the_ambient_certificate",),
    ),
    Mutant(
        "triangularity table also reads the diagonal cycles",
        "src/braidcert/certify.py",
        "if k > i and not v.is_zero()",
        "if k >= i and not v.is_zero()",
        ("tests/test_certify.py::test_certificate_small_cases_pass",
         "tests/test_certify.py::test_block_tables_give_the_ambient_certificate"),
    ),
    Mutant(
        "tau1 counts an inverse letter +1 instead of -1",
        "src/braidcert/cochains.py",
        "counts[b, a] = counts.get((b, a), 0) - 1",
        "counts[b, a] = counts.get((b, a), 0) + 1",
        ("tests/test_cochains.py::test_tau1_matches_word_path_oracle",
         "tests/test_cochains.py::test_tau1_on_band_products_matches_both_oracles"),
    ),
    Mutant(
        "tau1 counts an inverse letter at its strands before the swap, not after",
        "src/braidcert/cochains.py",
        "counts[b, a] = counts.get((b, a), 0) - 1",
        "counts[a, b] = counts.get((a, b), 0) - 1",
        ("tests/test_cochains.py::test_tau1_matches_word_path_oracle",
         "tests/test_cochains.py::test_tau1_on_band_products_matches_both_oracles"),
    ),
    Mutant(
        "tau1 adds a generator's two terms once, whatever its count",
        "src/braidcert/cochains.py",
        """            terms[a, a, b] = get((a, a, b), 0) + m
            terms[a, b, a] = get((a, b, a), 0) - m""",
        """            terms[a, a, b] = get((a, a, b), 0) + (1 if m > 0 else -1)
            terms[a, b, a] = get((a, b, a), 0) - (1 if m > 0 else -1)""",
        ("tests/test_cochains.py::test_tau1_matches_word_path_oracle",
         "tests/test_cochains.py::test_tau1_through_free_cancellations_matches_both_oracles"),
    ),
    Mutant(
        "tau1's two-term key is one strand off",
        "src/braidcert/cochains.py",
        "a, b = perm[i - 1], perm[i]",
        "a, b = perm[i - 1], perm[i - 2]",
        ("tests/test_cochains.py::test_tau1_matches_word_path_oracle",),
    ),
    Mutant(
        "tau1's tail coboundary has its sign flipped",
        "src/braidcert/cochains.py",
        """            terms[j, a, b] = get((j, a, b), 0) + c
            key = (perm[j - 1], perm[a - 1], perm[b - 1])
            terms[key] = get(key, 0) - c""",
        """            terms[j, a, b] = get((j, a, b), 0) - c
            key = (perm[j - 1], perm[a - 1], perm[b - 1])
            terms[key] = get(key, 0) + c""",
        ("tests/test_cochains.py::test_tau1_changes_with_the_expansion_by_the_tail_coboundary",
         "tests/test_cochains.py::test_tau1_matches_word_path_oracle"),
    ),
    Mutant(
        "tau1 relabels the tail by the inverse permutation",
        "src/braidcert/cochains.py",
        "key = (perm[j - 1], perm[a - 1], perm[b - 1])",
        "key = tuple(perm.index(x) + 1 for x in (j, a, b))",
        ("tests/test_cochains.py::test_tau1_changes_with_the_expansion_by_the_tail_coboundary",),
    ),
    Mutant(
        "tau1 leaves the argument index of the tail unrelabelled",
        "src/braidcert/cochains.py",
        "key = (perm[j - 1], perm[a - 1], perm[b - 1])",
        "key = (j, perm[a - 1], perm[b - 1])",
        ("tests/test_cochains.py::test_tau1_matches_word_path_oracle_at_cap_three",
         "tests/test_cochains.py::test_tau1_changes_with_the_expansion_by_the_tail_coboundary"),
    ),
    Mutant(
        "expansion tails are read at degree 3, not 2",
        "src/braidcert/magnus.py",
        "[v.component(2) for v in self.gen_values]",
        "[v.component(3) for v in self.gen_values]",
        ("tests/test_magnus.py::test_tails_are_the_degree_two_parts_of_the_generator_values",),
    ),
    Mutant(
        "catalog search checks a new element against all but the first chosen one",
        "src/braidcert/certify.py",
        "if all(commutes(i, j) for i in chosen):",
        "if all(commutes(i, j) for i in chosen[1:]):",
        ("tests/test_certify.py::test_commuting_prefix_search_matches_the_combinations_filter",),
    ),
    Mutant(
        "frozen values accept assignment",
        "src/braidcert/_value.py",
        'raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")',
        "object.__setattr__(self, name, value)",
        ("tests/test_values.py::test_frozen_values_refuse_assignment_and_deletion",),
    ),
    Mutant(
        "value equality compares only the first field",
        "src/braidcert/_value.py",
        "return self._field_values(self) == self._field_values(other)",
        "return self._field_values(self)[0] == self._field_values(other)[0]",
        ("tests/test_values.py::test_values_compare_by_type_and_fields",),
    ),
    Mutant(
        "substitution stops cancelling at the seam after one letter",
        "src/braidcert/words.py",
        "while out and k < len(image) and out[-1] == -image[k]:",
        "if out and k < len(image) and out[-1] == -image[k]:",
        ("tests/test_words.py::test_substitution_matches_reducing_the_raw_concatenation",),
    ),
]


def stale(mutant: Mutant) -> str | None:
    """Why the entry cannot be applied, or None."""
    path = ROOT / mutant.file
    if not mutant.file.startswith("src/") or not path.is_file():
        return f"no file {mutant.file} under src/"
    count = path.read_text(encoding="utf-8").count(mutant.old)
    return None if count == 1 else f"old text occurs {count} times in {mutant.file}"


def run(mutant: Mutant) -> bool:
    """Apply the mutant to a copy of src/ and run its tests; True if one fails."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.file
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        for node in mutant.tests:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            if proc.returncode == 1:
                return True
            if proc.returncode != 0:
                raise RuntimeError(f"{node} could not run (pytest exit {proc.returncode})")
    return False


def main() -> int:
    for mutant in MUTANTS:
        if (why := stale(mutant)) is not None:
            print(f"stale: {mutant.name}: {why}")
            return 2
    survivors = []
    for mutant in MUTANTS:
        try:
            killed = run(mutant)
        except RuntimeError as exc:
            print(f"stale: {mutant.name}: {exc}")
            return 2
        print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    if survivors:
        print("surviving mutants: " + "; ".join(survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
