"""Every ```python block of README.md, indented ones included, runs against
the current API."""

import re
import textwrap
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = [
    textwrap.dedent(code)
    for _indent, code in re.findall(r"^( *)```python\n(.*?)^\1```", README.read_text(), re.S | re.M)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {})
