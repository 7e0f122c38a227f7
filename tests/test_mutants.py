"""The mutant catalog of tools/mutants.py cannot go stale unnoticed.

Running the catalog takes a pytest run per mutant, so tier-1 checks only that
every entry still applies: its old text occurs exactly once in its file under
src/, and each test named to kill it exists.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_once_and_names_existing_tests():
    assert len(mutants.MUTANTS) >= 3
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert mutants.stale(m) is None, m.name
        assert m.old != m.new and m.tests, m.name
        for node in m.tests:
            path, _, name = node.partition("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", source, re.M), node
