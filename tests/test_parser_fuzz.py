"""Fuzzed input for the three file parsers the CLI reads.

Every call must either return or raise the parser's own error type
(``ConfigError`` for configs, ``DataFormatError`` for datasets and
distributions), which ``bench`` maps to exit 2 or 3 with one line.  Inputs
mix the formats' own tokens, so most examples get past the first line, with
arbitrary text and bytes.

``parse_config`` derives its keys and conversions from the config
dataclasses; ``parse_config_oracle`` spells every key out by hand, as the
parser once did.  On every config input both must return equal configs or
raise ``ConfigError`` with the same message.  ``load_distribution`` and
``load_distribution_oracle``, which collects each block's directives in a
dict and builds its atom when the next block starts, are held to the same
rule on distribution files.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plbag import preprocess
from plbag.bench_cli import (
    MAX_BAG_TABLE_BYTES,
    ConfigError,
    ExperimentConfig,
    load_distribution,
    parse_config,
)
from plbag.core import (
    MAX_ENUMERABLE_LABELS,
    Atom,
    BagGenMatrix,
    DataFormatError,
    DiscreteDistribution,
    LabelDistribution,
    LabelSpace,
    load_dataset,
)
from plbag.plaknn import PlaknnConfig
from plbag.synth import SynthBagConfig

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


_ORACLE_KEYS = {
    "experiment": {
        "scenario",
        "dataset",
        "methods",
        "fixed_k",
        "noise_grid",
        "train_fraction",
        "repetitions",
        "base_seed",
        "n_samples",
        "timings",
    },
    "plaknn": {"c1", "delta", "T", "mode", "d0"},
    "synth": {"n_clusters", "alpha_max", "noise_nu", "seed"},
    "pipeline": {"variant", "smoothing_alpha", "smoothing_k", "density_k"},
}


def _oracle_sections(path: Path) -> dict[str, dict[str, str]]:
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: unreadable text: {exc}") from None
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _ORACLE_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _ORACLE_KEYS[current]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value.strip()
    return sections


def _bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")


def _float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from None


def parse_config_oracle(path) -> ExperimentConfig:
    """One ``if`` per key, in the order the dataclasses declare them."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    sections = _oracle_sections(path)

    exp = sections.get("experiment", {})
    kwargs: dict = {}
    if "scenario" in exp:
        kwargs["scenario"] = exp["scenario"]
    if "dataset" in exp:
        kwargs["dataset"] = exp["dataset"]
    if "methods" in exp:
        kwargs["methods"] = tuple(m.strip() for m in exp["methods"].split(",") if m.strip())
    if "fixed_k" in exp:
        kwargs["fixed_k"] = _int(exp["fixed_k"], "fixed_k")
    if "noise_grid" in exp:
        kwargs["noise_grid"] = tuple(
            _float(v.strip(), "noise_grid") for v in exp["noise_grid"].split(",") if v.strip()
        )
    if "train_fraction" in exp:
        kwargs["train_fraction"] = _float(exp["train_fraction"], "train_fraction")
    if "repetitions" in exp:
        kwargs["repetitions"] = _int(exp["repetitions"], "repetitions")
    if "base_seed" in exp:
        kwargs["base_seed"] = _int(exp["base_seed"], "base_seed")
    if "n_samples" in exp:
        kwargs["n_samples"] = _int(exp["n_samples"], "n_samples")
    if "timings" in exp:
        kwargs["timings"] = _bool(exp["timings"], "timings")

    pl = sections.get("plaknn", {})
    plaknn_kwargs: dict = {}
    if "c1" in pl:
        plaknn_kwargs["c1"] = _float(pl["c1"], "c1")
    if "delta" in pl:
        plaknn_kwargs["delta"] = _float(pl["delta"], "delta")
    if "T" in pl:
        plaknn_kwargs["T"] = _int(pl["T"], "T")
    if "mode" in pl:
        plaknn_kwargs["mode"] = pl["mode"]
    if "d0" in pl:
        plaknn_kwargs["d0"] = _int(pl["d0"], "d0")
    try:
        kwargs["plaknn"] = PlaknnConfig(**plaknn_kwargs)
    except ValueError as exc:
        raise ConfigError(f"section [plaknn]: {exc}") from exc

    sy = sections.get("synth", {})
    synth_kwargs: dict = {}
    if "n_clusters" in sy:
        synth_kwargs["n_clusters"] = _int(sy["n_clusters"], "n_clusters")
    if "alpha_max" in sy:
        synth_kwargs["alpha_max"] = _float(sy["alpha_max"], "alpha_max")
    if "noise_nu" in sy:
        synth_kwargs["noise_nu"] = _float(sy["noise_nu"], "noise_nu")
    if "seed" in sy:
        synth_kwargs["seed"] = _int(sy["seed"], "seed")
    try:
        kwargs["synth"] = SynthBagConfig(**synth_kwargs)
    except ValueError as exc:
        raise ConfigError(f"section [synth]: {exc}") from exc

    pipe = sections.get("pipeline", {})
    variant = pipe.get("variant", "none")
    if variant == "none":
        if set(pipe) - {"variant"}:
            raise ConfigError("pipeline keys given but variant is 'none'")
        kwargs["pipeline"] = None
    else:
        overrides: dict = {}
        if "smoothing_alpha" in pipe:
            overrides["smoothing_alpha"] = _float(pipe["smoothing_alpha"], "smoothing_alpha")
        if "smoothing_k" in pipe:
            overrides["smoothing_k"] = _int(pipe["smoothing_k"], "smoothing_k")
        if "density_k" in pipe:
            overrides["density_k"] = _int(pipe["density_k"], "density_k")
        try:
            if variant == "vision":
                kwargs["pipeline"] = preprocess.PipelineConfig.for_variant("vision", **overrides)
            elif variant == "realworld":
                kwargs["pipeline"] = preprocess.PipelineConfig.for_variant("realworld", **overrides)
            else:
                raise ConfigError(f"unknown pipeline variant {variant!r}")
        except ValueError as exc:
            raise ConfigError(f"section [pipeline]: {exc}") from exc

    return ExperimentConfig(**kwargs)


def _outcome(parser, path: Path):
    try:
        return parser(path)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _agree(data: bytes) -> bool:
    """Both parsers give the same outcome on ``data``; True if it parsed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_bytes(data)
        got = _outcome(parse_config, path)
        assert got == _outcome(parse_config_oracle, path)
    return isinstance(got, ExperimentConfig)


def _floats(lo: float, hi: float) -> st.SearchStrategy[str]:
    return st.floats(lo, hi).map(repr)


def _ints(lo: int, hi: int) -> st.SearchStrategy[str]:
    return st.integers(lo, hi).map(str)


def _joined(item: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.lists(item, min_size=1, max_size=3).map(",".join)


VALID_VALUES = {
    "experiment": {
        "scenario": st.sampled_from(["two_gaussians", "gaussian_clusters"]),
        "methods": _joined(st.sampled_from(["plaknn", "aknn", "fixed_k"])),
        "fixed_k": _ints(1, 30),
        "noise_grid": _joined(_floats(0.0, 1.0)),
        "train_fraction": _floats(0.05, 0.95),
        "repetitions": _ints(1, 50),
        "base_seed": _ints(0, 10**6),
        "n_samples": _ints(10, 5000),
        "timings": st.sampled_from(["true", "false", "yes", "no", "1", "0", "TRUE"]),
    },
    "plaknn": {
        "c1": _floats(0.01, 5.0),
        "delta": _floats(0.01, 0.99),
        "T": _ints(1, 500),
        "mode": st.sampled_from(["pointwise", "uniform"]),
        "d0": _ints(1, 20),
    },
    "synth": {
        "n_clusters": _ints(1, 10),
        "alpha_max": _floats(0.0, 1.0),
        "noise_nu": _floats(0.0, 1.0),
        "seed": _ints(0, 100),
    },
    "pipeline": {
        "variant": st.sampled_from(["vision", "realworld", "vision", "realworld", "none"]),
        "smoothing_alpha": _floats(0.0, 1.0),
        "smoothing_k": _ints(1, 100),
        "density_k": _ints(1, 200),
    },
}

# values that fail conversion or validation, for about one key in twenty
BAD_VALUE = st.one_of(NUMBERS, st.sampled_from(["many", "other", "", "0.0,,2", "nan"]))


@st.composite
def well_formed_config(draw) -> bytes:
    """Every section with a random subset of its keys, shuffled, mostly valid."""
    sections = draw(st.permutations(list(VALID_VALUES)))
    lines = []
    for section in sections:
        lines.append(f"[{section}]")
        keys = draw(st.lists(st.sampled_from(list(VALID_VALUES[section])), unique=True))
        if section == "experiment" and "scenario" not in keys:
            keys.append("scenario")
        if section == "pipeline" and "variant" not in keys and draw(st.booleans()):
            keys = []
        for key in draw(st.permutations(keys)):
            bad = draw(st.integers(0, 19)) == 0
            value = draw(BAD_VALUE if bad else VALID_VALUES[section][key])
            lines.append(f"{key} = {value}")
    return "\n".join(lines).encode()


@FUZZ
@given(st.one_of(config_text(), _raw()))
def test_parse_config_fuzz(data):
    _agree(data)


def test_parse_config_matches_oracle_on_well_formed_input():
    parsed = []

    @FUZZ
    @given(well_formed_config())
    def check(data):
        parsed.append(_agree(data))

    check()
    assert sum(parsed) >= len(parsed) / 4, f"{sum(parsed)} of {len(parsed)} parsed"


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


def load_distribution_oracle(path: Path) -> DiscreteDistribution:
    """The distribution file parser as a block-state machine, with the same
    messages as ``load_distribution``."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: unreadable text: {exc}") from None
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or lines[0][1].split()[0] != "labels":
        raise DataFormatError(f"{path}: first directive must be 'labels <c>'")
    try:
        c = int(lines[0][1].split()[1])
    except (IndexError, ValueError):
        raise DataFormatError(f"{path}: malformed labels directive") from None
    if not 2 <= c <= MAX_ENUMERABLE_LABELS:
        raise DataFormatError(f"{path}: labels must be in 2..{MAX_ENUMERABLE_LABELS}, got {c}")
    n_atoms = sum(1 for _, line in lines[1:] if line.split()[0] == "atom")
    table_bytes = n_atoms * ((1 << c) - 1) * c * 8
    if table_bytes > MAX_BAG_TABLE_BYTES:
        raise DataFormatError(
            f"{path}: {n_atoms} atoms with {c} labels need {table_bytes} bytes of bag "
            f"tables, over the limit of {MAX_BAG_TABLE_BYTES}"
        )
    atoms = []
    block = None

    def finish_block():
        if block is None:
            return
        for req in ("location", "mass", "probs"):
            if req not in block:
                raise DataFormatError(f"{path}: atom block missing '{req}'")
        entries = np.zeros(((1 << c) - 1, c))
        for mask, row in block["rows"].items():
            entries[mask - 1] = row
        if block["identity_default"]:
            for y in range(1, c + 1):
                if entries[:, y - 1].sum() == 0.0:
                    entries[(1 << (y - 1)) - 1, y - 1] = 1.0
        try:
            atoms.append(Atom(
                location=np.array(block["location"]),
                mass=block["mass"],
                label_dist=LabelDistribution(np.array(block["probs"])),
                baggen=BagGenMatrix(entries),
            ))
        except ValueError as exc:
            raise DataFormatError(f"{path}: invalid atom: {exc}") from exc

    for lineno, line in lines[1:]:
        parts = line.split()
        word = parts[0]
        if word == "atom":
            finish_block()
            block = {"rows": {}, "identity_default": False}
            continue
        if block is None:
            raise DataFormatError(f"{path}:{lineno}: directive outside an atom block")
        try:
            if word == "location":
                block["location"] = [float(v) for v in parts[1:]]
            elif word == "mass":
                block["mass"] = float(parts[1])
            elif word == "probs":
                block["probs"] = [float(v) for v in parts[1:]]
            elif word == "bagdefault":
                if parts[1] != "identity":
                    raise DataFormatError(f"{path}:{lineno}: unknown bagdefault {parts[1]!r}")
                block["identity_default"] = True
            elif word == "bagrow":
                labels = [int(v) for v in parts[1].split(";")]
                if any(not 1 <= y <= c for y in labels):
                    raise DataFormatError(f"{path}:{lineno}: bad bag spec {parts[1]!r}")
                mask = 0
                for y in labels:
                    mask |= 1 << (y - 1)
                values = [float(v) for v in parts[2:]]
                if len(values) != c:
                    raise DataFormatError(f"{path}:{lineno}: expected {c} probabilities")
                block["rows"][mask] = values
            else:
                raise DataFormatError(f"{path}:{lineno}: unknown directive {word!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, DataFormatError):
                raise
            raise DataFormatError(f"{path}:{lineno}: malformed directive") from exc
    finish_block()
    if not atoms:
        raise DataFormatError(f"{path}: no atoms")
    try:
        return DiscreteDistribution(tuple(atoms), LabelSpace(c))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _distribution_outcome(parser, path: Path):
    """The atoms' bytes, or the parser's error message."""
    try:
        d = parser(path)
    except DataFormatError as exc:
        return str(exc)
    return [(a.location.tobytes(), a.mass, a.label_dist.probs.tobytes(), a.baggen.entries.tobytes())
            for a in d.atoms]


BAG_TOKEN = st.sampled_from(["0", "1", "0.5", "0.25", "1e-13", "-1e-13", "x", "nan"])


@st.composite
def shuffled_blocks(draw) -> bytes:
    """Blocks with directives missing, repeated or out of range, in any order."""
    c = draw(st.integers(2, 4))
    n_atoms = draw(st.integers(0, 3))
    lines = [f"labels {c}"]
    for a in range(n_atoms):
        body = [
            f"location {a}",
            f"mass {draw(st.sampled_from(['1', '0.5', repr(1 / max(n_atoms, 1)), '2']))}",
            "probs " + " ".join(draw(st.sampled_from(["1", "0", "0.5"])) for _ in range(c)),
            "bagdefault " + draw(st.sampled_from(["identity", "uniform", ""])),
        ]
        body = draw(st.lists(st.sampled_from(body), max_size=5))
        for _ in range(draw(st.integers(0, 4))):
            label = st.one_of(st.integers(0, c + 1).map(str), st.sampled_from(["x", ""]))
            labels = ";".join(draw(st.lists(label, min_size=1, max_size=3)))
            values = " ".join(draw(BAG_TOKEN) for _ in range(draw(st.integers(c - 1, c + 1))))
            body.append(f"bagrow {labels} {values}")
        lines += ["atom"] + draw(st.permutations(body))
    return draw(_mutated(lines, DIST_TOKEN))


@FUZZ
@given(st.one_of(distribution_text(), shuffled_blocks(), _raw()))
# a label out of range before one that does not parse
@example(b"labels 2\natom\nlocation 0\nmass 1\nprobs 1 0\nbagrow 3;x 0 1\n")
# label 1's column sums to 0 but is not all zero: bagdefault fills it
@example(b"labels 2\natom\nlocation 0\nmass 1\nprobs 1 0\nbagdefault identity\n"
         b"bagrow 2 1e-13 0\nbagrow 1;2 -1e-13 0\n")
def test_load_distribution_matches_oracle(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        assert (_distribution_outcome(load_distribution, path)
                == _distribution_outcome(load_distribution_oracle, path))
