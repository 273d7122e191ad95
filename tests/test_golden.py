"""Byte-level lock on ``bench run`` and ``bench theory`` output.

Each ``bench run`` directory under ``golden/`` holds a ``config.cfg`` and the
``results.csv``, ``summary.csv`` and ``predictions.csv`` that ``bench run
--dump-predictions`` wrote for it.  A refactor that changes any label,
iteration count or error rate changes these bytes.  Dataset paths in the
configs are relative to ``golden/``.

``golden/theory`` holds a small distribution file with the report that
``bench theory --csv`` printed for it (``report.txt``) and the CSV it wrote
(``advantage.csv``).  A refactor that changes any alignment verdict or any
digit of an advantage, p or gamma changes these bytes.

After an intended behaviour change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plbag.bench_cli import emit, main, parse_config, run

GOLDEN = Path(__file__).parent / "golden"
CASES = ("two_gaussians", "relaxed_two_gaussians", "gaussian_clusters", "vision_csv")
OUTPUTS = ("results.csv", "summary.csv", "predictions.csv")
THEORY = GOLDEN / "theory"


def _run_case(name: str, out: Path) -> None:
    config = parse_config(GOLDEN / name / "config.cfg")
    if config.dataset is not None:
        config = replace(config, dataset=str(GOLDEN / config.dataset))
    emit(run(config, dump_predictions=True), out)


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(name, tmp_path):
    _run_case(name, tmp_path)
    for fname in OUTPUTS:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def _run_theory(out: Path) -> None:
    """``bench theory --dist distribution.txt --csv advantage.csv`` into ``out``."""
    stdout = io.StringIO()
    argv = ["theory", "--dist", str(THEORY / "distribution.txt"), "--csv", str(out / "advantage.csv")]
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    (out / "report.txt").write_bytes(stdout.getvalue().encode())


def test_theory_matches_golden(tmp_path):
    _run_theory(tmp_path)
    for fname in ("report.txt", "advantage.csv"):
        assert (tmp_path / fname).read_bytes() == (THEORY / fname).read_bytes(), fname


def _write_vision_dataset(path: Path) -> None:
    """Four Gaussian classes in 8 dimensions with cluster-varying bags."""
    from plbag.core import LabelSpace, save_dataset
    from plbag.synth import SynthBagConfig, make_bags

    rng = np.random.default_rng(20)
    means = 1.5 * rng.standard_normal((4, 8))
    truths = rng.integers(1, 5, size=300)
    features = means[truths - 1] + rng.standard_normal((300, 8))
    data = make_bags(
        features, truths, LabelSpace(4), SynthBagConfig(n_clusters=3, alpha_max=0.6, seed=21)
    )
    save_dataset(data, path)


def regenerate() -> None:
    _write_vision_dataset(GOLDEN / "vision_csv" / "bags.csv")
    for name in CASES:
        _run_case(name, GOLDEN / name)
    _run_theory(THEORY)


if __name__ == "__main__":
    sys.exit(regenerate())
