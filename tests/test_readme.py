"""README's Library-use example runs and prints what its comments claim."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_prints_what_it_claims(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # each print(...) line ends in a comment giving the line it prints
    claimed = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert claimed
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == claimed
