"""The package surface: the README's library example runs as printed, and
every exported name resolves."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_example_prints_one(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("module", ["maxplanar", "maxplanar.planarity", "maxplanar.planarity.api"])
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
