"""README's command lines name only flags the CLI accepts."""

import re
from pathlib import Path

from handgeo.cli import _OPTIONS

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The `handgeo <command> ...` lines of README's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("handgeo ")]


def test_every_readme_flag_is_a_key_of_its_command():
    lines = readme_commands()
    assert len(lines) >= 5
    for line in lines:
        command = line.split()[1]
        assert command in _OPTIONS, line
        for flag in re.findall(r"(?<!\S)--[a-z][a-z-]*", line):
            key = flag[2:].replace("-", "_")
            assert key in _OPTIONS[command] or flag in ("--config", "--help"), (line, flag)
