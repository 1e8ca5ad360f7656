"""Every python code block in README.md runs as written.

A block that calls the library with a stale signature, or trips a numpy
overflow or invalid operation (RuntimeWarning, raised as an error here),
fails its test.
"""

import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(code, {"__name__": f"readme_block_{index}"})
