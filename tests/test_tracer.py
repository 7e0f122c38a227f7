"""The benchmark's tracer (perfbench/tracer.py) still finds every name it wraps.

The tracer patches braidcert functions and methods by name from outside, so
deleting or renaming one of them would otherwise only show up when the
benchmark runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import braidcert.cli  # noqa: F401  (the tracer wraps cli.main in the loaded module)
from braidcert import cochains, words

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    before = (cochains.tau1, words.AutPair.compose)
    tracer = Tracer()
    try:
        tracer.install()
        assert cochains.tau1 is not before[0]
        assert words.AutPair.compose is not before[1]
    finally:
        tracer.uninstall()
    assert (cochains.tau1, words.AutPair.compose) == before
