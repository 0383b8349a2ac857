"""The README's library example runs, and prints what its comments say.

Each fenced `python` block under "Library example" runs on its own, in a
temporary directory since one block writes `corpus.json`.  A line
`print(...)  # value` must print `value` whenever the comment is a Python
literal (`ast.literal_eval`); a comment that is not one is prose."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
PRINT_RE = re.compile(r"^\s*print\(.*\)\s*#\s*(?P<comment>.*)$")


def library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_the_library_example_has_blocks():
    assert library_blocks()


@pytest.mark.parametrize("index", range(len(library_blocks())))
def test_the_library_example_prints_its_comments(index, tmp_path, monkeypatch):
    block = library_blocks()[index]
    monkeypatch.chdir(tmp_path)
    printed = []

    def record(*args, **kwargs):
        assert not kwargs
        printed.append(" ".join(map(str, args)))

    exec(compile(block, f"README.md library block {index}", "exec"), {"print": record})
    lines = [ln for ln in block.splitlines() if ln.lstrip().startswith("print(")]
    assert len(printed) == len(lines)  # each print line runs once, in order
    checked = 0
    for line, out in zip(lines, printed):
        m = PRINT_RE.match(line)
        if not m:
            continue
        try:
            expected = ast.literal_eval(m.group("comment"))
        except (ValueError, SyntaxError):
            continue
        assert out == str(expected), line
        checked += 1
    assert checked
