"""Every ```python block of README.md runs as written, each in a fresh
namespace, and each ``print(...)  # value`` line prints that value (a
trailing "..." marks a prefix).  A block indented under a list item is
dedented first."""
import contextlib
import io
import pathlib
import re
import textwrap

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = [textwrap.dedent(body) for _, body in re.findall(
    r"^( *)```python\n(.*?)^\1```", README.read_text(encoding="utf-8"), re.M | re.S)]


def test_readme_has_both_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    code = BLOCKS[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"README.md python block {index}", "exec"), {"__name__": "readme"})
    claims = [line.split("#", 1)[1].strip() for line in code.splitlines()
              if line.startswith("print(") and "#" in line]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(claims)
    for claim, line in zip(claims, printed):
        assert line.startswith(claim.removesuffix("...")) if claim.endswith("...") \
            else line == claim, (claim, line)
