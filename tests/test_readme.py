"""README.md's Python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    # one namespace in reading order: a later block builds on names an earlier one made
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"{README.name} python block {i}", "exec"), namespace)
