"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs():
    section = README.read_text().split("\n## Library entry points\n", 1)[1].split("\n## ")[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: dict = {}
    exec(compile(block, f"{README.name} (Library entry points)", "exec"), names)
    assert names["report"].passed and names["inv"].passed
    assert names["rec"].outcome.kind == "converged"
    assert names["grid"].passed and names["checks"].passed
    assert names["ctrl"].system.name == names["cfg"].system_id
