"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    section = section[:section.find("\n## ", 1)]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
