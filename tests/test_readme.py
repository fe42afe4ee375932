"""The README's library example runs against the current API, so a
renamed or deleted name that the README still documents fails here."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    for code in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, str(README), "exec"), {"__name__": "readme"})
