"""README.md's python blocks run in order, in one namespace, as documented."""

import os
import re

from quenchsim.quenchlab import load_config

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
