"""Fuzzed input for the three file parsers the CLI reads.

Every call must either return or raise the parser's own error type
(``ConfigError`` for configs, ``DataFormatError`` for datasets and
distributions), which ``bench`` maps to exit 2 or 3 with one line.  Inputs
mix the formats' own tokens, so most examples get past the first line, with
arbitrary text and bytes.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plbag.bench_cli import ConfigError, load_distribution, parse_config
from plbag.core import DataFormatError, LabelSpace, load_dataset

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)

NUMBERS = st.sampled_from(
    ["0", "1", "-1", "2", "3", "12", "13", "64", "65", "100", "0.5", "1.0", "1e-9", "1e308",
     "1e999", "-0.0", "nan", "inf", "-inf", "1_0", "0x10", "99999999999999999999999", " 7 ", ""]
)


def _junk(alphabet: str) -> st.SearchStrategy[str]:
    return st.text(st.sampled_from(alphabet), max_size=12)


def _raw() -> st.SearchStrategy[bytes]:
    return st.one_of(st.text(max_size=200).map(lambda s: s.encode("utf-8")), st.binary(max_size=200))


def _parse(parser, data: bytes, allowed: type[Exception]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            parser(path)
        except allowed:
            pass


@st.composite
def _mutated(draw, lines: list[str], token: st.SearchStrategy[str]) -> bytes:
    """A well-formed file with up to two of its tokens or lines changed."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["token", "token", "drop", "repeat", "junk"]))
        if op == "token":
            words = lines[at].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(token)
            lines[at] = " ".join(words)
        elif op == "drop":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
        else:
            lines.insert(at, draw(_junk("=[]#,;.\t abglx01")))
    return "\n".join(lines).encode()


# -- config files -----------------------------------------------------------

CONFIG_VALUES = {
    "scenario": ["two_gaussians", "gaussian_clusters", "nope"],
    "methods": ["plaknn", "plaknn,fixed_k,aknn", "fixed_k,", ",", "knn"],
    "noise_grid": ["0.0", "0.0,0.2", "0.0,,1.5", "nan"],
    "timings": ["true", "no", "maybe"],
    "mode": ["pointwise", "uniform", "other"],
    "variant": ["vision", "realworld", "none", "other"],
}
CONFIG_SECTIONS = {
    "experiment": ["dataset", "fixed_k", "train_fraction", "repetitions", "base_seed", "n_samples"],
    "plaknn": ["c1", "delta", "T", "d0"],
    "synth": ["n_clusters", "alpha_max", "noise_nu", "seed"],
    "pipeline": ["smoothing_alpha", "smoothing_k", "density_k"],
}
CONFIG_TOKEN = st.one_of(NUMBERS, *(st.sampled_from(v) for v in CONFIG_VALUES.values()),
                         st.sampled_from(["=", "[plaknn]", "[x]", "bogus", "#"]))


@st.composite
def config_text(draw) -> bytes:
    lines = ["[experiment]", "scenario = two_gaussians"]
    for section, keys in CONFIG_SECTIONS.items():
        if section != "experiment":
            lines.append(f"[{section}]")
        extra = {"experiment": ["methods", "noise_grid", "timings"], "plaknn": ["mode"],
                 "pipeline": ["variant"]}.get(section, [])
        for key in draw(st.lists(st.sampled_from(keys + extra), max_size=4, unique=True)):
            if key in CONFIG_VALUES:
                value = draw(st.sampled_from(CONFIG_VALUES[key]))
            else:
                value = draw(st.one_of(st.integers(-1, 20).map(str), NUMBERS))
            lines.append(f"{key} = {value}")
    return draw(_mutated(lines, CONFIG_TOKEN))


@FUZZ
@given(st.one_of(config_text(), _raw()))
def test_parse_config_fuzz(data):
    _parse(parse_config, data, ConfigError)


# -- dataset CSV ------------------------------------------------------------

CSV_TOKEN = st.one_of(
    NUMBERS,
    st.sampled_from(["1;2", "1;100", "2;;3", ";", "-3", "1;65", "\"1;2\"", "\"x", "bag", ",", "y"]),
    _junk(",;\"'\r 0129.e-"),
)


@st.composite
def csv_text(draw) -> bytes:
    d = draw(st.integers(1, 3))
    has_truth = draw(st.booleans())
    lines = [" ".join([f"x{i + 1}," for i in range(d)] + ["bag"] + ([",y"] if has_truth else []))]
    for _ in range(draw(st.integers(0, 5))):
        row = [repr(draw(st.floats(-1e6, 1e6))) + "," for _ in range(d)]
        row.append(";".join(map(str, draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))))
        if has_truth:
            row.append(f",{draw(st.integers(1, 4))}")
        lines.append(" ".join(row))
    # tokens are joined by spaces so that a mutation can swap one; the CSV
    # reader keeps a leading space in a field, which the parser strips
    return draw(_mutated(lines, CSV_TOKEN))


@FUZZ
@given(st.one_of(csv_text(), _raw()), st.sampled_from([None, 2, 3, 64]))
def test_load_dataset_fuzz(data, c):
    space = None if c is None else LabelSpace(c)
    _parse(lambda path: load_dataset(path, space), data, DataFormatError)


# -- distribution files -----------------------------------------------------

DIST_TOKEN = st.one_of(
    NUMBERS,
    st.sampled_from(["atom", "labels", "location", "mass", "probs", "bagrow", "bagdefault",
                     "identity", "1;2", "0", "5", ";", "1;99999999999999", "x"]),
)


@st.composite
def distribution_text(draw) -> bytes:
    c = draw(st.integers(2, 4))
    n_atoms = draw(st.integers(1, 3))
    lines = [f"labels {c}"]
    for a in range(n_atoms):
        probs = [0.0] * c
        probs[draw(st.integers(0, c - 1))] = 1.0
        lines += ["atom", f"location {a}", f"mass {1 / n_atoms!r}", "probs " + " ".join(map(str, probs))]
        if draw(st.booleans()):
            lines.append("bagdefault identity")
        for y in draw(st.lists(st.integers(1, c), max_size=2, unique=True)):
            row = ["0"] * c
            row[y - 1] = "1"
            lines.append(f"bagrow {y} " + " ".join(row))
    return draw(_mutated(lines, DIST_TOKEN))


@FUZZ
@given(st.one_of(distribution_text(), _raw()))
def test_load_distribution_fuzz(data):
    _parse(load_distribution, data, DataFormatError)
