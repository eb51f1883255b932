"""README's "Library use" snippet runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_snippet():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs(capsys):
    # It transports the frame over a perturbed run and prints the
    # degeneracy verdict, which is a pass on this grid.
    exec(compile(_library_use_snippet(), str(README), "exec"), {})
    assert capsys.readouterr().out == "True\n"
