"""The documented entry points: the README quick start and the package exports."""

import contextlib
import io
import re
from pathlib import Path

import plbag

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_what_its_comments_state():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    # the comments: label 1 is predicted, label 2 is eliminated at k = 2
    assert out.getvalue() == "1\n2\n"


def test_every_export_resolves():
    assert len(set(plbag.__all__)) == len(plbag.__all__)
    for name in plbag.__all__:
        assert hasattr(plbag, name), name
    namespace = {}
    exec("from plbag import *", namespace)
    assert set(plbag.__all__) <= namespace.keys()
