"""Byte-level lock on ``bench run`` and ``bench theory`` output.

Each ``bench run`` directory under ``golden/`` holds a ``config.cfg`` and the
``results.csv``, ``summary.csv`` and ``predictions.csv`` that ``bench run
--dump-predictions`` wrote for it, with the summary lines it printed
(``stdout.txt``).  A refactor that changes any label, iteration count or
error rate, or the way a number is printed, changes these bytes.  The runs
start in ``golden/``, so dataset paths in the configs are relative to it.

``realworld_csv`` runs the ``realworld`` pipeline on integer-grid features
in which most rows repeat exactly, so every neighbor search of the pipeline
meets exact duplicates.

``vision_small_k`` runs the ``vision`` pipeline in 12 dimensions with
neighbor counts (``smoothing_k``, ``density_k``, ``T``, ``fixed_k``) small
against its 400 training rows, some of them exact repeats, so that every
neighbor search of the run takes ``knn_index``'s prefiltered path.

``vision_deep`` runs the ``vision`` pipeline in 8 dimensions with 560
training rows, ``fixed_k`` = 10 and ``T`` = 100.  17 (560 // 32) is the
deepest search ``knn_index`` prefilters, and plaknn or aknn need more than
17 neighbors for 100 and 95 of the 140 test points in repetitions 0 and 1
(counted over both noise levels).  30 of the 700 rows are exact repeats.

``golden/synth`` holds two ``bench synth`` configs with the datasets they
wrote: ``two_gaussians`` (the scenario's own bag process, with anchor noise)
and ``gaussian_clusters`` (the cluster-varying ``make_bags`` process).

``golden/theory`` holds a small distribution file with the report that
``bench theory --csv`` printed for it (``report.txt``) and the CSV it wrote
(``advantage.csv``).  A refactor that changes any alignment verdict or any
digit of an advantage, p or gamma changes these bytes.

``golden/headline`` holds the ``results.csv`` and ``summary.csv`` of the
acceptance runs of criteria 05, 06 and 07 (``tests/test_acceptance.py``),
T = 400 on up to 8,000 points, with their own ``versions.txt``.  They have
no ``config.cfg``: the acceptance tests build their configs and compare the
files, and ``PYTHONPATH=src python tests/test_acceptance.py`` rewrites them.

``golden/versions.txt`` names the Python and numpy versions that wrote the
files.  Their bytes depend on numpy's random streams and summation order,
which numpy does not keep fixed across versions, so a mismatch names both
the recorded and the running versions.

After an intended behaviour change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from plbag.bench_cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = (
    "two_gaussians",
    "relaxed_two_gaussians",
    "gaussian_clusters",
    "vision_csv",
    "realworld_csv",
    "vision_small_k",
    "vision_deep",
)
OUTPUTS = ("results.csv", "summary.csv", "predictions.csv", "stdout.txt")
THEORY = GOLDEN / "theory"
SYNTH = GOLDEN / "synth"
SYNTH_CASES = ("two_gaussians", "gaussian_clusters")
VERSIONS = GOLDEN / "versions.txt"


def _versions() -> str:
    """The running Python and numpy versions, as ``versions.txt`` holds them."""
    return f"python {platform.python_version()}\nnumpy {np.__version__}\n"


def _assert_golden(path: Path, golden: Path, versions: Path | None = None) -> None:
    """``path`` holds ``golden``'s bytes; a mismatch names the versions that
    wrote the goldens (``versions``, else ``versions.txt``) and the running
    ones."""
    if path.read_bytes() != golden.read_bytes():
        recorded = ", ".join((versions or VERSIONS).read_text().splitlines())
        running = ", ".join(_versions().splitlines())
        pytest.fail(
            f"{golden.relative_to(GOLDEN)} differs from its golden;"
            f" goldens written with {recorded}, running {running}"
        )


def _main(argv: list[str]) -> bytes:
    """What ``bench`` prints for ``argv`` when started in ``golden/``."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return stdout.getvalue().encode()


def _run_case(name: str, out: Path) -> None:
    """``bench run --dump-predictions`` of ``name``'s config into ``out``."""
    argv = ["run", "--config", f"{name}/config.cfg", "--out", str(out), "--dump-predictions"]
    (out / "stdout.txt").write_bytes(_main(argv))


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(name, tmp_path):
    _run_case(name, tmp_path)
    for fname in OUTPUTS:
        _assert_golden(tmp_path / fname, GOLDEN / name / fname)


def test_small_k_searches_are_all_prefiltered(tmp_path, monkeypatch):
    from plbag import knn_index

    def full_search(*args):
        raise AssertionError("a neighbor search took the full path")

    # the full path (and a dense tile's fallback) is the one caller of the
    # distance kernel in a bench run on a dataset
    monkeypatch.setattr(knn_index, "sq_distance_chunk", full_search)
    _run_case("vision_small_k", tmp_path)
    _assert_golden(tmp_path / "results.csv", GOLDEN / "vision_small_k" / "results.csv")


def _run_synth(name: str, out: Path) -> None:
    """``bench synth`` of ``synth/<name>.cfg`` into ``out/<name>.csv``."""
    _main(["synth", "--config", f"synth/{name}.cfg", "--out", str(out / f"{name}.csv")])


@pytest.mark.parametrize("name", SYNTH_CASES)
def test_synth_matches_golden(name, tmp_path):
    _run_synth(name, tmp_path)
    _assert_golden(tmp_path / f"{name}.csv", SYNTH / f"{name}.csv")


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
        _assert_golden(tmp_path / fname, THEORY / fname)


def test_a_mismatch_names_the_recorded_and_running_versions(tmp_path, monkeypatch):
    recorded = tmp_path / "versions.txt"
    recorded.write_text("python 3.10.0\nnumpy 1.24.0\n")
    monkeypatch.setattr(sys.modules[__name__], "VERSIONS", recorded)
    (tmp_path / "report.txt").write_text("not the golden report\n")
    with pytest.raises(pytest.fail.Exception) as failure:
        _assert_golden(tmp_path / "report.txt", THEORY / "report.txt")
    message = str(failure.value)
    assert "theory/report.txt" in message
    assert "python 3.10.0, numpy 1.24.0" in message
    assert f"python {platform.python_version()}, numpy {np.__version__}" in message


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


def _write_realworld_dataset(path: Path) -> None:
    """Three classes on an integer grid in 3 dimensions, so most feature rows
    repeat exactly, with cluster-varying bags."""
    from plbag.core import LabelSpace, save_dataset
    from plbag.synth import SynthBagConfig, make_bags

    rng = np.random.default_rng(30)
    means = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    truths = rng.integers(1, 4, size=150)
    features = np.round(means[truths - 1] + 0.8 * rng.standard_normal((150, 3))) + 0.0
    data = make_bags(
        features, truths, LabelSpace(3), SynthBagConfig(n_clusters=3, alpha_max=0.5, seed=31)
    )
    save_dataset(data, path)


def _write_small_k_dataset(path: Path) -> None:
    """Five Gaussian classes in 12 dimensions, 40 of the 500 rows repeated
    exactly, with cluster-varying bags."""
    from plbag.core import LabelSpace, save_dataset
    from plbag.synth import SynthBagConfig, make_bags

    rng = np.random.default_rng(40)
    means = 1.2 * rng.standard_normal((5, 12))
    truths = rng.integers(1, 6, size=500)
    features = means[truths - 1] + rng.standard_normal((500, 12))
    features[460:] = features[:40]
    truths[460:] = truths[:40]
    data = make_bags(
        features, truths, LabelSpace(5), SynthBagConfig(n_clusters=4, alpha_max=0.5, seed=41)
    )
    save_dataset(data, path)


def _write_deep_dataset(path: Path) -> None:
    """Four Gaussian classes in 8 dimensions, 30 of the 700 rows repeated
    exactly, with cluster-varying bags."""
    from plbag.core import LabelSpace, save_dataset
    from plbag.synth import SynthBagConfig, make_bags

    rng = np.random.default_rng(50)
    means = 1.5 * rng.standard_normal((4, 8))
    truths = rng.integers(1, 5, size=700)
    features = means[truths - 1] + rng.standard_normal((700, 8))
    features[670:] = features[:30]
    truths[670:] = truths[:30]
    data = make_bags(
        features, truths, LabelSpace(4), SynthBagConfig(n_clusters=4, alpha_max=0.6, seed=51)
    )
    save_dataset(data, path)


def regenerate() -> None:
    _write_vision_dataset(GOLDEN / "vision_csv" / "bags.csv")
    _write_realworld_dataset(GOLDEN / "realworld_csv" / "bags.csv")
    _write_small_k_dataset(GOLDEN / "vision_small_k" / "bags.csv")
    _write_deep_dataset(GOLDEN / "vision_deep" / "bags.csv")
    for name in CASES:
        _run_case(name, GOLDEN / name)
    for name in SYNTH_CASES:
        _run_synth(name, SYNTH)
    _run_theory(THEORY)
    VERSIONS.write_text(_versions())


if __name__ == "__main__":
    sys.exit(regenerate())
