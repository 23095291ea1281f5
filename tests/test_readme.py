"""The README's Python API example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    api = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", api, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert float(out.getvalue()) == 1.0  # the default set decodes without error
