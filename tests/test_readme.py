"""The README's code runs as written."""

import re

from conftest import DATA_DIR

README = DATA_DIR.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
