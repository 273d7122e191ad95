"""The documented entry points: the README quick start and the package exports."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import plbag
from plbag.bench_cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("plaknn", "knn_index", "baselines", "core", "synth", "theory", "preprocess", "bench_cli")


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


def test_readme_module_names_resolve():
    # every dotted name such as `knn_index.search` or `plaknn._batch_rows`
    # in the README is an attribute of its plbag module
    pattern = rf"(?<![\w/])(?:{'|'.join(MODULES)})(?:\.\w+)+"
    names = sorted(set(re.findall(pattern, README.read_text())))
    assert "knn_index.search" in names
    for name in names:
        module, *attrs = name.split(".")
        value = importlib.import_module(f"plbag.{module}")
        for attr in attrs:
            assert hasattr(value, attr), name
            value = getattr(value, attr)


def _options(text):
    return set(re.findall(r"--[\w-]+", text)) - {"--help"}


def _help(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(argv + ["--help"])
    return out.getvalue()


def test_readme_cli_synopsis_matches_the_parser():
    # the first bash block under "## CLI" lists each subcommand with its options
    section = README.read_text().split("## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    synopsis = {line.split()[1]: _options(line) for line in block.splitlines()}
    (subcommands,) = re.findall(r"\{([\w,]+)\}", _help([]))[:1]
    assert sorted(synopsis) == sorted(subcommands.split(","))
    for sub, documented in synopsis.items():
        assert documented == _options(_help([sub])), sub
