"""The README's library quick start, run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_source():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start():
    # E8~1{1}: 239 elements, 14 maxima, the first parametrized one
    # alpha2@wall2 of dimension 20, and every check passing
    scope: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_source(), str(README), "exec"), scope)
    poset, items = scope["poset"], scope["maxima_parametrization"](scope["poset"])
    assert scope["ctx"].spec.describe() == "E8~1 odd={1}"
    assert (len(poset), len(poset.maxima)) == (239, 14)
    assert (items[0].label, items[0].dimension) == ("alpha2@wall2", 20)
    results = scope["verify_all"](poset)
    assert results and all(r.passed for r in results), [r.line() for r in results]
    lines = out.getvalue().splitlines()
    assert lines[0] == "239 14"
    assert lines[2] == "alpha2@wall2 20"
    assert len(lines) == 2 + len(items)
