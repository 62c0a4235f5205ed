"""The README's library quick tour runs as written, so API drift fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_tour_runs():
    exec(compile(quick_tour(), str(README), "exec"), {})
