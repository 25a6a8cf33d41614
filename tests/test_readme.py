"""README's command lines name only flags the CLI accepts, and its Python
examples parse and import only names that exist."""

import ast
import importlib
import re
from pathlib import Path

from handgeo.cli import _OPTIONS, REQUIRED

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text=None):
    """The `handgeo <command> ...` lines of README's sh blocks (or text's)."""
    text = README.read_text(encoding="utf-8") if text is None else text
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("handgeo ")]


def missing_required(text):
    """(line, key) of every README command line in text that names neither
    a required key of its command nor --config."""
    missing = []
    for line in readme_commands(text):
        flags = set(re.findall(r"(?<!\S)--([a-z][a-z-]*)", line))
        if "config" not in flags:
            missing += [(line, key) for key, (_, default, _) in _OPTIONS[line.split()[1]].items()
                        if default is REQUIRED and key.replace("_", "-") not in flags]
    return missing


def test_every_readme_command_names_its_required_flags():
    assert missing_required(README.read_text(encoding="utf-8")) == []


def test_a_command_line_without_a_required_flag_is_caught():
    text = README.read_text(encoding="utf-8")
    line = "handgeo eval --features features.csv"
    stale = text.replace(line + " --out report/", line)
    assert stale != text
    assert missing_required(stale) == [(line, "out")]


def test_every_readme_flag_is_a_key_of_its_command():
    lines = readme_commands()
    assert len(lines) >= 5
    for line in lines:
        command = line.split()[1]
        assert command in _OPTIONS, line
        for flag in re.findall(r"(?<!\S)--[a-z][a-z-]*", line):
            key = flag[2:].replace("-", "_")
            assert key in _OPTIONS[command] or flag in ("--config", "--help"), (line, flag)


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def missing_imports(text):
    """(module, name) of every `from handgeo... import name` in text's Python
    blocks that the module does not have; a block that does not parse raises
    SyntaxError."""
    missing = []
    for block in python_blocks(text):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("handgeo"):
                module = importlib.import_module(node.module)
                missing += [(node.module, a.name) for a in node.names
                            if not hasattr(module, a.name)]
    return missing


def test_every_readme_python_example_imports_only_names_that_exist():
    text = README.read_text(encoding="utf-8")
    assert len(python_blocks(text)) >= 4
    assert missing_imports(text) == []


def test_an_example_importing_a_deleted_name_is_caught():
    text = README.read_text(encoding="utf-8")
    stale = text.replace("from handgeo.synthgen import CorpusSettings",
                         "from handgeo.synthgen import CorpusSettings, load_corpus", 1)
    assert stale != text
    assert missing_imports(stale) == [("handgeo.synthgen", "load_corpus")]
