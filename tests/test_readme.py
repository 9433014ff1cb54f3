"""Every ```python block of README.md, indented ones included, runs against
the current API, and the "Scenario file" section shows every field of the
scenario schema."""

import re
import textwrap
from pathlib import Path

import pytest
import yaml

from conftest import field_name, schema_fields
from tactilesim.scenario import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = [
    textwrap.dedent(code)
    for _indent, code in re.findall(r"^( *)```python\n(.*?)^\1```", README.read_text(), re.S | re.M)
]
SCENARIO_SECTION = README.read_text().split("\n## Scenario file\n")[1].split("\n#")[0]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code, capsys, monkeypatch):
    # The examples name files relative to the repository root.
    monkeypatch.chdir(README.parent)
    exec(compile(code, str(README), "exec"), {})


def key_paths(node, path=()):
    """The key paths of a parsed YAML tree."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from key_paths(item, path + (i,))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))


def test_scenario_section_shows_every_field():
    (block,) = re.findall(r"^```yaml\n(.*?)^```", SCENARIO_SECTION, re.S | re.M)
    example = yaml.safe_load(block)
    parse_scenario(example)
    shown = set(key_paths(example))
    fields = [(path, id(section), path[-1]) for path, section, _kind in schema_fields()]
    # fc and bc share one table: a field of it is shown once either shows it.
    named = {(table, key) for path, table, key in fields if path in shown}
    assert [field_name(path) for path, table, key in fields if (table, key) not in named] == []
