"""README.md's quick start runs as printed, so it keeps up with the API."""

import re
from pathlib import Path

from emergent_irq.core import identity_names

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    out = capsys.readouterr().out.split()
    assert all(name in out for name in identity_names())
