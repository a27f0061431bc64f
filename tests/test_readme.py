"""README.md's python blocks run in order, in one namespace, as documented;
its config blocks load and its CLI commands parse."""

import os
import re

import pytest

from quenchsim.quenchlab import load_config
from quenchsim.quenchlab.cli import _build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # blocks that write outputs write them here
    monkeypatch.delenv("QUENCHSIM_OUTDIR", raising=False)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_config_blocks_load():
    """Every documented config key is one load_config takes."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```ini\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    for block in blocks:
        load_config(block)


def _cli_commands(text):
    """Every ``quenchsim`` command of the sh blocks, once without its
    ``[...]`` optional groups and once with each group's first alternative,
    and every inline code span that is a ``quenchsim`` command."""
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("quenchsim "):
                yield re.sub(r"\[[^]]*\](\.\.\.)?", "", line)
                yield re.sub(r"\|\S+", "", re.sub(r"\[([^]]*)\](\.\.\.)?", r"\1", line))
    yield from re.findall(r"`(quenchsim [^`]*)`", text)


def test_readme_cli_commands_parse():
    """Parse only: nothing is run, so a stale flag is what this catches."""
    with open(README, encoding="utf-8") as fh:
        commands = list(_cli_commands(fh.read()))
    assert len(commands) >= 7
    parser = _build_parser()
    for command in commands:
        try:
            parser.parse_args(command.split()[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
