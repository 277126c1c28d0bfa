"""The README's Library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    mean, stderr = (float(v) for v in out.getvalue().strip()[1:-1].split(","))
    assert mean > 0.0 and stderr > 0.0
