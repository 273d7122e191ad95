import contextlib
import csv
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plbag import baselines, bench_cli, knn_index, plaknn, preprocess
from plbag.baselines import aknn_batch, fixed_k_batch
from plbag.bench_cli import (
    ConfigError,
    ExperimentConfig,
    PredictionRow,
    ResultRow,
    RunResult,
    SummaryRow,
    emit,
    load_distribution,
    main,
    parse_config,
    run,
    theory_report,
)
from plbag.core import DataFormatError, LabelSpace, PartialDataset, load_dataset, save_dataset
from plbag.plaknn import PlaknnConfig, classify_batch_detail
from plbag.synth import SCENARIOS, SynthBagConfig, make_bags, remove_truth_noise


FULL_CONFIG = """
# comment line
[experiment]
scenario = two_gaussians
methods = plaknn,fixed_k
fixed_k = 5
noise_grid = 0.0,0.2
train_fraction = 0.75
repetitions = 2
base_seed = 42
n_samples = 80
timings = false

[plaknn]
c1 = 0.5
delta = 0.1
T = 20
mode = pointwise

[synth]
n_clusters = 3
alpha_max = 0.6

[pipeline]
variant = none
"""

MISALIGNED_DIST = """
# single-point scenario with bag frequencies (0.6, 0.5, 0.4)
labels 3
atom
location 0.0
mass 1.0
probs 0 0 1
bagdefault identity
bagrow 1 0 0 0.1
bagrow 1;2 0 0 0.5
bagrow 3 0 0 0.4
"""


class TestParseConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(FULL_CONFIG)
        cfg = parse_config(path)
        assert cfg.scenario == "two_gaussians"
        assert cfg.methods == ("plaknn", "fixed_k")
        assert cfg.noise_grid == (0.0, 0.2)
        assert cfg.plaknn == PlaknnConfig(T=20)
        assert cfg.synth.n_clusters == 3
        assert cfg.pipeline is None

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nscenario = two_gaussians\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nscenario = a\nscenario = b\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nscenario = two_gaussians\nrepetitions = many\n")
        with pytest.raises(ConfigError, match="repetitions"):
            parse_config(path)

    def test_nan_c1(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nscenario = two_gaussians\n[plaknn]\nc1 = nan\n")
        with pytest.raises(ConfigError, match="c1"):
            parse_config(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"[experiment]\nscenario = \xff\n")
        with pytest.raises(ConfigError, match="exp.cfg"):
            parse_config(path)

    def test_source_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=None, dataset=None)
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="two_gaussians", dataset="x.csv")

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="sorting_hat"):
            ExperimentConfig(scenario="two_gaussians", methods=("sorting_hat",))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    @staticmethod
    def _error(tmp_path, text: str) -> str:
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        return str(info.value)

    def test_values_convert_in_field_order(self, tmp_path):
        # repetitions comes first in the file, fixed_k first in ExperimentConfig
        text = "[experiment]\nscenario = two_gaussians\nrepetitions = many\nfixed_k = lots\n"
        assert self._error(tmp_path, text) == "key 'fixed_k': expected an integer, got 'lots'"

    def test_synth_is_built_before_pipeline(self, tmp_path):
        text = "[pipeline]\nvariant = none\nsmoothing_k = 3\n[synth]\nn_clusters = 0\n"
        assert self._error(tmp_path, text) == "section [synth]: n_clusters must be >= 1, got 0"

    def test_variant_none_rejects_keys_before_converting(self, tmp_path):
        text = "[experiment]\nscenario = two_gaussians\n[pipeline]\nvariant = none\nsmoothing_k = x\n"
        assert self._error(tmp_path, text) == "pipeline keys given but variant is 'none'"

    def test_error_prefixes(self, tmp_path):
        text = "[experiment]\nscenario = two_gaussians\n[pipeline]\nvariant = grayscale\n"
        expected = "section [pipeline]: unknown pipeline variant 'grayscale'"
        assert self._error(tmp_path, text) == expected
        text = "[experiment]\nscenario = two_gaussians\nfixed_k = 0\n"
        assert self._error(tmp_path, text) == "fixed_k must be >= 1, got 0"

    def test_readme_block_lists_every_key_with_its_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "exp.cfg"
        path.write_text(block)
        assert parse_config(path) == ExperimentConfig(scenario="two_gaussians")
        for keys in bench_cli._SECTION_FIELDS.values():
            for key in keys:
                assert re.search(rf"\b{key} = ", block), key

    @pytest.mark.parametrize("key", ["plaknn", "synth", "pipeline"])
    def test_section_fields_are_not_experiment_keys(self, tmp_path, key):
        text = f"[experiment]\nscenario = two_gaussians\n{key} = x\n"
        message = self._error(tmp_path, text)
        assert message.endswith(f":3: unknown key {key!r} in section [experiment]")


def tiny_config(**overrides):
    base = dict(
        scenario="two_gaussians",
        methods=("plaknn", "fixed_k"),
        fixed_k=5,
        noise_grid=(0.0,),
        repetitions=2,
        base_seed=7,
        n_samples=60,
        plaknn=PlaknnConfig(T=15),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRun:
    def test_shapes_and_row_order(self):
        result = run(tiny_config(noise_grid=(0.0, 0.5)))
        assert len(result.rows) == 2 * 2 * 2  # methods x noise x reps
        keys = [(r.method, r.noise, r.repetition) for r in result.rows]
        assert keys == sorted(keys)
        assert len(result.summary) == 4
        for row in result.rows:
            assert 0.0 <= row.error_rate <= 1.0
            assert row.n_train == 48

    def test_mean_iterations_only_for_elimination_method(self):
        result = run(tiny_config())
        for row in result.rows:
            if row.method == "plaknn":
                assert row.mean_iterations is not None and row.mean_iterations >= 1
            else:
                assert row.mean_iterations is None

    def test_unanimous_singleton_dataset_has_zero_error(self, tmp_path):
        # ten identical-class points with singleton bags: nothing to confuse
        lines = ["x1,x2,bag,y"] + [f"{i / 10},{(i * 7 % 10) / 10},1,1" for i in range(10)]
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(lines) + "\n")
        cfg = ExperimentConfig(
            dataset=str(path),
            methods=("plaknn",),
            repetitions=1,
            plaknn=PlaknnConfig(T=5),
        )
        result = run(cfg)
        assert result.rows[0].error_rate == 0.0

    def test_cluster_scenario_uses_bag_generator(self):
        cfg = ExperimentConfig(
            scenario="gaussian_clusters",
            methods=("fixed_k",),
            fixed_k=3,
            repetitions=1,
            n_samples=60,
            base_seed=3,
        )
        result = run(cfg)
        assert len(result.rows) == 1

    def test_dataset_requires_truths(self, tmp_path):
        path = tmp_path / "nolabels.csv"
        path.write_text("x1,bag\n0.0,1\n1.0,2\n")
        cfg = ExperimentConfig(dataset=str(path), repetitions=1)
        with pytest.raises(DataFormatError):
            run(cfg)

    def test_predictions_recount_matches_error_rate(self):
        result = run(tiny_config(), dump_predictions=True)
        assert len(result.predictions) == len(result.rows)
        for row, (truths, labels) in zip(result.rows, result.predictions):
            assert labels.dtype == np.uint8 and labels.shape == truths.shape != (0,)
            recount = int(np.count_nonzero(truths != labels)) / len(labels)
            assert recount == pytest.approx(row.error_rate, abs=1e-12)


class TestEmit:
    def test_single_row_results(self, tmp_path):
        result = RunResult(
            rows=[ResultRow("plaknn", 0.0, 0, 7, 48, 0.125, 3.5, 12.0)],
            summary=[SummaryRow("plaknn", 0.0, 0.125, 0.0, 1)],
            predictions=None,
        )
        emit(result, tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "plaknn,0,0,7,48,0.125,3.5,"

    def test_summary_has_method_by_noise_rows(self, tmp_path):
        result = run(tiny_config(noise_grid=(0.0, 0.1, 0.2)))
        emit(result, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3

    def test_reemission_identical(self, tmp_path):
        result = run(tiny_config())
        emit(result, tmp_path / "a")
        emit(result, tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config()
        emit(run(cfg), tmp_path / "a")
        emit(run(cfg), tmp_path / "b")
        for name in ("results.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_timings_column_populated_on_request(self, tmp_path):
        # every job books its own time, so a job whose time went to another
        # one reads 0
        cfg = tiny_config(methods=ALL_METHODS, noise_grid=(0.0, 0.3))
        emit(run(cfg), tmp_path / "timed", timings=True)
        emit(run(cfg), tmp_path / "plain")
        timed, plain = (
            list(csv.DictReader((tmp_path / d / "results.csv").read_text().splitlines()))
            for d in ("timed", "plain")
        )
        assert len(timed) == len(plain) == 3 * 2 * cfg.repetitions
        for got, want in zip(timed, plain):
            wall = float(got.pop("wall_time_ms"))
            assert math.isfinite(wall) and wall > 0.0
            assert want.pop("wall_time_ms") == ""
            assert got == want


class TestDistributionFile:
    def test_parse_and_report(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text(MISALIGNED_DIST)
        d = load_distribution(path)
        assert d.n_atoms == 1 and d.label_space.c == 3
        report = theory_report(d)
        assert "dist_label_aligned=false" in report
        assert "reconstructible=true" in report

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("labels 3\natom\nmass 1.0\nprobs 0 0 1\n")
        with pytest.raises(DataFormatError):
            load_distribution(path)

    def test_rejects_bad_columns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "labels 2\natom\nlocation 0\nmass 1\nprobs 0.5 0.5\nbagrow 1 0.5 0\n"
        )
        with pytest.raises(DataFormatError):
            load_distribution(path)

    def test_rejects_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"labels 2\natom\xff\n")
        with pytest.raises(DataFormatError, match="bad.txt"):
            load_distribution(path)


def run_cli(*args):
    # the child imports the same plbag as this process, installed or not
    src = str(Path(bench_cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "plbag.bench_cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestCli:
    def test_run_roundtrip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FULL_CONFIG)
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "results.csv").exists() and (out / "summary.csv").exists()
        assert "mean_error" in proc.stdout

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\nscenario = two_gaussians\nwhoops = 1\n")
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "whoops" in proc.stderr

    def test_data_error_exit_code(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\ndataset = missing.csv\nrepetitions = 1\n")
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3

    def test_synth_emits_loadable_dataset(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nscenario = two_gaussians\nn_samples = 40\nbase_seed = 5\n"
        )
        out = tmp_path / "synth.csv"
        proc = run_cli("synth", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        data = load_dataset(out)
        assert data.n == 40 and data.truths is not None

    def test_theory_command(self, tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text(MISALIGNED_DIST)
        csv_out = tmp_path / "adv.csv"
        proc = run_cli("theory", "--dist", str(dist), "--csv", str(csv_out))
        assert proc.returncode == 0, proc.stderr
        assert "dist_label_aligned=false" in proc.stdout
        assert csv_out.exists()
        assert "RuntimeWarning" not in proc.stderr

    def test_theory_bad_file_exit_code(self, tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text("labels 3\natom\n")
        proc = run_cli("theory", "--dist", str(dist))
        assert proc.returncode == 3

    def test_theory_csv_into_missing_directory(self, tmp_path, capsys):
        # the CSV is written first, so a path it cannot open prints no report
        dist = tmp_path / "dist.txt"
        dist.write_text(MISALIGNED_DIST)
        code = main(["theory", "--dist", str(dist), "--csv", str(tmp_path / "no" / "adv.csv")])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("data error:")

    def test_T_warning_waits_until_the_output_is_written(self, tmp_path):
        # T = 100 against 48 training points: the run warns once its files
        # are written, and an --out it cannot create prints one error line
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nscenario = two_gaussians\nn_samples = 60\nrepetitions = 1\n"
            "[plaknn]\nT = 100\n"
        )
        (tmp_path / "afile").write_text("")
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "afile" / "x"))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("data error:")
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0 and (tmp_path / "out" / "results.csv").exists()
        assert proc.stderr.count("RuntimeWarning") == 1
        assert "RuntimeWarning: iteration cap T=100 exceeds the 48" in proc.stderr.splitlines()[0]

    def test_T_warning_names_a_file_outside_the_package(self, tmp_path):
        # run as ``python -m plbag.bench_cli`` the harness's module is
        # ``__main__``; the warning still skips it and names the code that
        # ran the module, not a line of the package
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nscenario = two_gaussians\nn_samples = 60\nrepetitions = 1\n"
            "[plaknn]\nT = 100\n"
        )
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        where = re.match(r"(.*):\d+: RuntimeWarning: iteration cap", proc.stderr)
        assert where is not None, proc.stderr
        package = Path(bench_cli.__file__).parent.resolve()
        assert not Path(where[1]).resolve().is_relative_to(package), where[1]


class TestNeighborCountsAgainstSplit:
    """A 6-row dataset splits into 5 training points: k values above that
    end in exit 2 with one line, before any job runs."""

    def _run(self, tmp_path, capsys, extra):
        data = tmp_path / "six.csv"
        rows = "".join(f"{i}.0,{i % 2 + 1},{i % 2 + 1}\n" for i in range(6))
        data.write_text("x1,bag,y\n" + rows)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[experiment]\ndataset = {data}\nrepetitions = 1\n{extra}")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        return code, err

    def test_fixed_k_above_training_split(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "methods = plaknn,fixed_k\nfixed_k = 10\n")
        assert code == 2 and "fixed_k = 10" in err

    def test_pipeline_k_above_training_split(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "[pipeline]\nvariant = vision\n")
        assert code == 2 and "50" in err


class TestLoaderBoundary:
    """Label counts out of range and non-finite numbers end in exit 3 with
    one line, no traceback."""

    @staticmethod
    def _main(capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:")
        return code, err

    @pytest.mark.parametrize("c", [1, 65, 30])
    def test_distribution_label_count(self, tmp_path, capsys, c):
        # c = 30 is rejected before the (2^c - 1, c) bag table is allocated
        dist = tmp_path / "dist.txt"
        dist.write_text(f"labels {c}\natom\nlocation 0\nmass 1\nbagdefault identity\n")
        code, err = self._main(capsys, ["theory", "--dist", str(dist)])
        assert code == 3 and f"got {c}" in err

    def test_distribution_bag_tables_bounded(self, tmp_path, capsys):
        # 100 atoms with 12 labels would hold 39 MB of (4095, 12) bag tables
        # from a 7 KB file; it is refused before the first table is built
        block = "atom\nlocation {i}\nmass 0.01\nprobs 1 0 0 0 0 0 0 0 0 0 0 0\nbagdefault identity\n"
        dist = tmp_path / "dist.txt"
        dist.write_text("labels 12\n" + "".join(block.format(i=i) for i in range(100)))
        tracemalloc.start()
        try:
            code, err = self._main(capsys, ["theory", "--dist", str(dist)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and "39312000 bytes of bag tables" in err
        assert peak < 1_000_000

    def test_distribution_lines_are_held_unsplit(self, tmp_path):
        # 3,100 short bagrow lines peak at 7.9 times the file's bytes; a list
        # of words for every line took that to 22
        rows = []
        for mask in range(1, 32):
            labels = ";".join(str(y + 1) for y in range(5) if mask >> y & 1)
            values = " ".join("1.0" if mask == 1 << y else "0.0" for y in range(5))
            rows.append(f"bagrow {labels} {values}\n")
        block = "atom\nlocation {i}\nmass 0.01\nprobs 0.2 0.2 0.2 0.2 0.2\n" + "".join(rows)
        dist = tmp_path / "dist.txt"
        dist.write_text("labels 5\n" + "".join(block.format(i=i) for i in range(100)))
        tracemalloc.start()
        try:
            assert load_distribution(dist).n_atoms == 100
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * dist.stat().st_size

    def test_distribution_bag_table_limit_is_inclusive(self, tmp_path, monkeypatch):
        atom = MISALIGNED_DIST[MISALIGNED_DIST.index("atom") :].replace("mass 1.0", "mass 0.5")
        dist = tmp_path / "dist.txt"
        dist.write_text("labels 3\n" + atom + atom.replace("location 0.0", "location 1.0"))
        monkeypatch.setattr(bench_cli, "MAX_BAG_TABLE_BYTES", 2 * 7 * 3 * 8)
        assert load_distribution(dist).n_atoms == 2
        monkeypatch.setattr(bench_cli, "MAX_BAG_TABLE_BYTES", 2 * 7 * 3 * 8 - 1)
        with pytest.raises(DataFormatError, match="2 atoms with 3 labels need 336 bytes"):
            load_distribution(dist)

    @pytest.mark.parametrize(
        "atoms, message",
        [
            ("atom\nlocation 0\nmass 1\nprobs nan nan\nbagdefault identity\n",
             "label probabilities must be finite"),
            ("atom\nlocation 0\nmass 1\nprobs 1 0\nbagdefault identity\nbagrow 1 nan 0\n",
             "bag probabilities must be finite"),
            ("atom\nlocation nan\nmass 0.5\nprobs 1 0\nbagdefault identity\n"
             "atom\nlocation 1\nmass 0.5\nprobs 0 1\nbagdefault identity\n",
             "atom locations must be finite"),
        ],
        ids=["probs", "bagrow", "location"],
    )
    def test_distribution_non_finite(self, tmp_path, capsys, atoms, message):
        dist = tmp_path / "dist.txt"
        dist.write_text("labels 2\n" + atoms)
        code, err = self._main(capsys, ["theory", "--dist", str(dist)])
        assert code == 3 and message in err

    @pytest.mark.parametrize(
        "location", ["1e-170", "1e-160", "1e200"], ids=["underflow", "subnormal", "overflow"]
    )
    def test_distribution_distances_must_be_normal_and_finite(self, tmp_path, capsys, location):
        dist = tmp_path / "dist.txt"
        far = "-1e200" if location == "1e200" else "1"
        dist.write_text(
            "labels 2\n"
            f"atom\nlocation {location}\nmass 0.5\nprobs 0.9 0.1\nbagdefault identity\n"
            f"atom\nlocation {far}\nmass 0.1\nprobs 0.1 0.9\nbagdefault identity\n"
            "atom\nlocation 0\nmass 0.4\nprobs 0.5 0.5\nbagdefault identity\n"
        )
        code = main(["theory", "--dist", str(dist)])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == (
            f"data error: {dist}: atom 0: squared distances to the other atoms underflow or overflow\n"
        )

    @staticmethod
    def _dataset_config(tmp_path, rows):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,bag,y\n" + "".join(f"{a!r},{b!r},{t},{t}\n" for a, b, t in rows))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"[experiment]\ndataset = {data}\nmethods = plaknn,aknn,fixed_k\nfixed_k = 3\n"
            "repetitions = 1\n[plaknn]\nT = 10\n"
        )
        return data, cfg

    @pytest.mark.parametrize("scale", [1e160, 1e-150])
    def test_dataset_squared_diagonal_bounded(self, tmp_path, capsys, scale):
        # squared distances of features near 1e160 overflow to inf, and every
        # far pair then ties; the same rows scaled down run
        x = np.random.default_rng(0).standard_normal((60, 2)) * scale
        rows = [(a, b, 1 + int(a > 0)) for a, b in x.tolist()]
        data, cfg = self._dataset_config(tmp_path, rows)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        stdout, err = capsys.readouterr()
        if scale < 1.0:
            assert code == 0 and err == ""
            assert [line.split()[2] for line in stdout.splitlines()] == [
                "mean_error=0.166667", "mean_error=0", "mean_error=0.166667"
            ]
            return
        assert code == 3 and not out.exists()
        assert err.count("\n") == 1
        assert err.startswith(f"data error: {data}: the features' bounding box has a squared diagonal")

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    def test_dataset_squared_spans_must_be_normal(self, tmp_path, capsys, scale):
        # the largest span squares to a subnormal (1e-160) or to 0 (1e-170),
        # where every method read 0.333333 instead of the rows' 1e-150 errors
        x = np.random.default_rng(0).standard_normal((60, 2)) * scale
        data, cfg = self._dataset_config(tmp_path, [(a, b, 1 + int(a > 0)) for a, b in x.tolist()])
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 3 and stdout == "" and not out.exists()
        assert err.count("\n") == 1
        assert err.startswith(f"data error: {data}: the features' largest span")

    def test_pipeline_and_constant_features_are_not_refused(self, tmp_path, capsys):
        # realworld's cube root ranks 1e-170 rows as it ranks them at scale 1,
        # and constant features (span 0) tie every pair by design
        x = np.random.default_rng(0).standard_normal((60, 2))
        pipeline = "[pipeline]\nvariant = realworld\nsmoothing_k = 5\ndensity_k = 10\n"
        printed = []
        for scale in (1.0, 1e-170):
            rows = [(a, b, 1 + int(a > 0)) for a, b in (x * scale).tolist()]
            _, cfg = self._dataset_config(tmp_path, rows)
            cfg.write_text(cfg.read_text() + pipeline)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        _, cfg = self._dataset_config(tmp_path, [(1e-170, -2.0, 1 + i % 2) for i in range(60)])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("n", [50, 51])
    def test_dataset_rows_bounded_by_max_samples(self, tmp_path, capsys, monkeypatch, n):
        monkeypatch.setattr(bench_cli, "MAX_SAMPLES", 50)
        rows = [(float(i), float(i % 7), 1 + i % 2) for i in range(n)]
        data, cfg = self._dataset_config(tmp_path, rows)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if n == 50:
            assert code == 0 and (out / "summary.csv").exists()
            return
        assert code == 3 and not out.exists()
        assert err == f"data error: {data}: experiments take at most 50 rows, got 51\n"

    def test_dataset_bag_field_with_an_empty_label(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,bag,y\n0.0,1,1\n1.0,1;;2,2\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[experiment]\ndataset = {data}\nrepetitions = 1\n")
        code, err = self._main(capsys, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert err == f"data error: {data}: row 3: malformed bag field '1;;2'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("methods", ["plaknn", "fixed_k"])
    def test_dataset_of_one_row(self, tmp_path, capsys, methods):
        # its split would leave no training point
        data = tmp_path / "one.csv"
        data.write_text("x1,bag,y\n0.5,1,1\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[experiment]\ndataset = {data}\nrepetitions = 1\nmethods = {methods}\n")
        code, err = self._main(capsys, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert err == f"data error: {data}: experiments need at least 2 rows, got 1\n"

    def test_dataset_label_above_limit(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("x1,bag,y\n0.0,1;100,1\n1.0,2,2\n")
        with pytest.raises(DataFormatError):
            load_dataset(data)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[experiment]\ndataset = {data}\nrepetitions = 1\n")
        code, err = self._main(capsys, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3 and "100" in err


class TestPredictionDump:
    def test_cli_dump_predictions(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FULL_CONFIG.replace("repetitions = 2", "repetitions = 1"))
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(cfg), "--out", str(out), "--dump-predictions")
        assert proc.returncode == 0, proc.stderr
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "method,noise,repetition,index,truth,predicted"
        assert len(lines) > 1


# ---------------------------------------------------------------------------
# The job-by-job grid: every (noise, repetition) job draws its split, sample,
# k-means clustering and pipeline afresh, and every method searches the
# neighbors of the test points on its own.
# ---------------------------------------------------------------------------


def prepare_rep_oracle(config, source, noise, rep):
    """(train dataset, test features, test truths) of one job."""
    seed = config.base_seed + rep
    rng = np.random.default_rng(seed)
    if isinstance(source, PartialDataset):
        train_idx, test_idx = bench_cli._split(source.n, config.train_fraction, rng)
        train = source.subset(train_idx)
        if noise > 0.0:
            train = remove_truth_noise(train, noise, seed=int(rng.integers(2**63)))
        test_x = source.features[test_idx]
        test_y = source.truths[test_idx]
    else:
        x, y = source.sample_points(config.n_samples, rng)
        train_idx, test_idx = bench_cli._split(config.n_samples, config.train_fraction, rng)
        if source.has_bag_process:
            masks = source.bag_masks_for(x[train_idx], y[train_idx], rng, noise_nu=noise)
            train = PartialDataset(x[train_idx], masks, source.label_space, truths=y[train_idx])
        else:
            train = make_bags(
                x[train_idx],
                y[train_idx],
                source.label_space,
                replace(config.synth, noise_nu=noise, seed=int(rng.integers(2**63))),
            )
        test_x = x[test_idx]
        test_y = y[test_idx]
    if config.pipeline is not None:
        fitted = preprocess.fit(train.features, config.pipeline)
        train = train.with_features(fitted.transformed_train)
        test_x = preprocess.transform(fitted, test_x)
    return train, test_x, test_y


def run_job_oracle(config, source, noise, rep, dump_predictions):
    train, test_x, test_y = prepare_rep_oracle(config, source, noise, rep)
    index = knn_index.build(train.features)
    rows, preds = [], []
    for method in config.methods:
        started = time.perf_counter()
        if method == "plaknn":
            detail = classify_batch_detail(train, index, test_x, config.plaknn)
            labels, mean_iters = detail.labels, float(detail.iterations.mean())
        elif method == "aknn":
            labels, mean_iters = aknn_batch(train, index, test_x, config.plaknn), None
        else:
            labels, mean_iters = fixed_k_batch(train, index, test_x, config.fixed_k), None
        wall_ms = (time.perf_counter() - started) * 1000.0
        rows.append(
            ResultRow(
                method, noise, rep, config.base_seed + rep, train.n,
                float((labels != test_y).mean()), mean_iters, wall_ms,
            )
        )
        if dump_predictions:
            preds.extend(
                PredictionRow(method, noise, rep, i, int(test_y[i]), int(labels[i]))
                for i in range(test_y.shape[0])
            )
    return rows, preds


def run_oracle(config, dump_predictions=False):
    """The grid run one (noise, repetition) job at a time."""
    source = bench_cli._load_source(config)
    if isinstance(source, PartialDataset):
        n, dim = source.n, source.dim
    else:
        n, dim = config.n_samples, source.means.shape[1]
    n_train = bench_cli._n_train(n, config.train_fraction)
    bench_cli._check_neighbor_counts(config, n_train, source.label_space.c, dim)
    jobs = [(noise, rep) for noise in config.noise_grid for rep in range(config.repetitions)]
    outputs = [run_job_oracle(config, source, noise, rep, dump_predictions) for noise, rep in jobs]
    rows = [row for out, _ in outputs for row in out]
    rows.sort(key=lambda r: (r.method, r.noise, r.repetition))
    predictions = None
    if dump_predictions:
        predictions = [p for _, out in outputs for p in out]
        predictions.sort(key=lambda p: (p.method, p.noise, p.repetition, p.index))
    summary = []
    for method in config.methods:
        for noise in config.noise_grid:
            errs = [r.error_rate for r in rows if r.method == method and r.noise == noise]
            mean = float(np.mean(errs))
            std = float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0
            summary.append(SummaryRow(method, noise, mean, std, len(errs)))
    return RunResult(rows=rows, summary=summary, predictions=predictions)


def write_csv_dataset(path, n=160, dim=3, c=4, seed=11):
    rng = np.random.default_rng(seed)
    truths = rng.integers(1, c + 1, size=n)
    features = 1.5 * rng.standard_normal((c, dim))[truths - 1] + rng.standard_normal((n, dim))
    data = make_bags(features, truths, LabelSpace(c), SynthBagConfig(n_clusters=3, seed=seed))
    save_dataset(data, path)
    return str(path)


ALL_METHODS = ("plaknn", "aknn", "fixed_k")

DIFFERENTIAL_CASES = {
    "csv": lambda csv: ExperimentConfig(
        dataset=csv, methods=ALL_METHODS, fixed_k=6, noise_grid=(0.0, 0.3),
        repetitions=2, base_seed=4, plaknn=PlaknnConfig(T=40),
    ),
    "csv_realworld": lambda csv: ExperimentConfig(
        dataset=csv, methods=ALL_METHODS, fixed_k=5, noise_grid=(0.0, 0.2),
        repetitions=2, base_seed=9, plaknn=PlaknnConfig(T=30),
        pipeline=preprocess.PipelineConfig("realworld", density_k=20),
    ),
    "two_gaussians": lambda csv: ExperimentConfig(
        scenario="two_gaussians", methods=ALL_METHODS, fixed_k=5,
        noise_grid=(0.0, 0.2, 0.5), repetitions=2, base_seed=1, n_samples=120,
        plaknn=PlaknnConfig(T=25),
    ),
    "relaxed_two_gaussians": lambda csv: ExperimentConfig(
        scenario="relaxed_two_gaussians", methods=ALL_METHODS, fixed_k=5,
        noise_grid=(0.0, 0.1, 0.4), repetitions=2, base_seed=2, n_samples=120,
        plaknn=PlaknnConfig(T=25),
    ),
    "gaussian_clusters": lambda csv: ExperimentConfig(
        scenario="gaussian_clusters", methods=ALL_METHODS, fixed_k=7,
        noise_grid=(0.0, 0.3), repetitions=3, base_seed=5, n_samples=200,
        plaknn=PlaknnConfig(T=40), synth=SynthBagConfig(n_clusters=4, alpha_max=0.5),
    ),
    # 600 test points over 2,400 training points at T = 1,100: 13-row
    # distance tiles, the last one partial
    "gaussian_clusters_blocks": lambda csv: ExperimentConfig(
        scenario="gaussian_clusters", methods=ALL_METHODS, fixed_k=5,
        noise_grid=(0.0, 0.3), repetitions=1, base_seed=7, n_samples=3000,
        plaknn=PlaknnConfig(T=1100),
    ),
    # 1,500 test points at T = 1,100: batches of 832 rows, each ending in a
    # partial 21-row distance tile
    "gaussian_clusters_batches": lambda csv: ExperimentConfig(
        scenario="gaussian_clusters", methods=ALL_METHODS, fixed_k=5,
        noise_grid=(0.0, 0.3), repetitions=1, base_seed=7, n_samples=3000,
        train_fraction=0.5, plaknn=PlaknnConfig(T=1100),
    ),
    # the grid out of order: run's one sort must give the oracle's order of
    # rows and of predictions
    "unsorted_grid": lambda csv: ExperimentConfig(
        scenario="two_gaussians", methods=("plaknn", "fixed_k"), fixed_k=5,
        noise_grid=(0.5, 0.0, 0.2), repetitions=2, base_seed=8, n_samples=100,
        plaknn=PlaknnConfig(T=20),
    ),
    # d = 8 and 560 training points: the first search is 17 (560 // 32)
    # deep, and the test points that plaknn or aknn leave undecided there
    # are searched again, 60 deep
    "csv_deep": lambda csv: ExperimentConfig(
        dataset=write_csv_dataset(Path(csv).with_name("deep.csv"), n=700, dim=8),
        methods=ALL_METHODS, fixed_k=6, noise_grid=(0.0, 0.5), repetitions=2, base_seed=3,
        plaknn=PlaknnConfig(T=60),
    ),
    "fixed_k_above_T": lambda csv: ExperimentConfig(
        scenario="gaussian_clusters", methods=("fixed_k",), fixed_k=30,
        noise_grid=(0.0, 0.3), repetitions=2, base_seed=6, n_samples=150,
        plaknn=PlaknnConfig(T=5),
    ),
}


def strip_walls(rows):
    return [replace(r, wall_time_ms=0.0) for r in rows]


def prediction_rows(result):
    """``result.predictions`` as one :class:`PredictionRow` per test point of
    each row's job, in the order of ``result.rows``."""
    assert len(result.predictions) == len(result.rows)
    return [
        PredictionRow(row.method, row.noise, row.repetition, i, int(truths[i]), int(labels[i]))
        for row, (truths, labels) in zip(result.rows, result.predictions)
        for i in range(len(truths))
    ]


class TestRunAgainstOracle:
    """``run`` shares one split, pipeline, clustering and neighbor search per
    repetition; its results equal the job-by-job oracle's."""

    @staticmethod
    def assert_same(config):
        got = run(config, dump_predictions=True)
        want = run_oracle(config, dump_predictions=True)
        assert strip_walls(got.rows) == strip_walls(want.rows)
        assert got.summary == want.summary
        assert prediction_rows(got) == want.predictions
        return got

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_same_results(self, tmp_path, case):
        config = DIFFERENTIAL_CASES[case](write_csv_dataset(tmp_path / "data.csv"))
        result = self.assert_same(config)
        assert len(result.rows) == len(config.methods) * len(config.noise_grid) * config.repetitions

    def test_T_above_training_split(self, tmp_path):
        config = ExperimentConfig(
            scenario="two_gaussians", methods=ALL_METHODS, fixed_k=4,
            noise_grid=(0.0, 0.4), repetitions=2, base_seed=3, n_samples=40,
            plaknn=PlaknnConfig(T=100),
        )
        with pytest.warns(RuntimeWarning, match="T=100 exceeds the 32"):
            self.assert_same(config)

    def test_T_above_training_split_warns_once(self):
        # 560 training points: three methods, two noise levels and two
        # repetitions, one warning, pointing at the caller of run
        config = ExperimentConfig(
            scenario="two_gaussians", methods=ALL_METHODS, noise_grid=(0.0, 0.3),
            repetitions=2, n_samples=700, plaknn=PlaknnConfig(T=1000),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(config)
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]
        assert "T=1000 exceeds the 560" in str(caught[0].message)

    def test_a_case_spans_several_blocks(self):
        # the search's own blocks are its distance tiles
        config = DIFFERENTIAL_CASES["gaussian_clusters_blocks"](None)
        n_train = bench_cli._n_train(config.n_samples, config.train_fraction)
        rows = tile_rows(n_train)
        assert config.n_samples - n_train > 2 * rows and (config.n_samples - n_train) % rows

    def test_a_case_spans_several_batches(self):
        config = DIFFERENTIAL_CASES["gaussian_clusters_batches"](None)
        n_train = bench_cli._n_train(config.n_samples, config.train_fraction)
        rows = plaknn._batch_rows(config.plaknn.T, 10)
        assert config.n_samples - n_train > rows and rows % tile_rows(n_train)


def tile_rows(n):
    """Query rows per distance tile of a search over n points."""
    return max(1, knn_index._TILE_BYTES // (8 * n))


def undecided_oracle(config, source, rep, t):
    """Test points of repetition ``rep`` that plaknn or aknn, run the full T
    deep on every noise level, decide only past the ``t``-th neighbor, as
    (plaknn's, aknn's) masks per noise level."""
    out = []
    for noise in config.noise_grid:
        train, test_x, _ = prepare_rep_oracle(config, source, noise, rep)
        index = knn_index.build(train.features)
        iterations = classify_batch_detail(train, index, test_x, config.plaknn).iterations
        steps = baselines._aknn(train, index, test_x, config.plaknn)[1]
        out.append((iterations > t, (steps == 0) | (steps > t)))
    return out


class TestShallowSearch:
    """``run`` searches the test points as deep as the prefilter serves
    (``n_train // 32`` in ``d >= 8``) when that covers ``fixed_k`` and falls
    short of T, and searches again, T deep, the points that plaknn or aknn
    of some job decide only past that depth."""

    @staticmethod
    def searches(config, monkeypatch):
        """``(queries, t)`` of every search ``run`` makes for ``config``."""
        calls = []
        original = bench_cli._order_batches

        def recorder(index, queries, t, c):
            calls.append((np.array(queries), t))
            return original(index, queries, t, c)

        monkeypatch.setattr(bench_cli, "_order_batches", recorder)
        run(config)
        return calls

    def test_the_deep_case_deepens_plaknn_and_aknn_points(self, tmp_path):
        config = DIFFERENTIAL_CASES["csv_deep"](write_csv_dataset(tmp_path / "data.csv"))
        source = bench_cli._load_source(config)
        t = knn_index.prefilter_depth(bench_cli._n_train(source.n, config.train_fraction), source.dim)
        assert config.fixed_k <= t == 17 < config.plaknn.T
        for rep in range(config.repetitions):
            plaknn_deep, aknn_deep = zip(*undecided_oracle(config, source, rep, t))
            # plaknn deepens some points on every noise level, aknn some on
            # the noisy one; every job also decides some within t
            assert all(0 < mask.sum() < mask.size for mask in plaknn_deep)
            assert aknn_deep[-1].sum() > 0
            assert all(mask.sum() < mask.size for mask in aknn_deep)

    def test_only_undecided_points_are_searched_again(self, tmp_path, monkeypatch):
        config = DIFFERENTIAL_CASES["csv_deep"](write_csv_dataset(tmp_path / "data.csv"))
        calls = self.searches(config, monkeypatch)
        source = load_dataset(config.dataset)
        assert len(calls) == 2 * config.repetitions
        for rep in range(config.repetitions):
            (first, t_first), (again, t_again) = calls[2 * rep : 2 * rep + 2]
            undecided = np.logical_or.reduce(
                [mask for masks in undecided_oracle(config, source, rep, 17) for mask in masks]
            )
            test_x = prepare_rep_oracle(config, source, 0.0, rep)[1]
            assert (t_first, t_again) == (17, config.plaknn.T)
            assert np.array_equal(first, test_x)
            assert np.array_equal(again, test_x[undecided])

    @pytest.mark.parametrize(
        "case, change",
        [("csv", {}), ("csv_deep", {"fixed_k": 18}), ("csv_deep", {"plaknn": PlaknnConfig(T=17)})],
        ids=["d_below_8", "fixed_k_above_n_train_over_32", "T_within_n_train_over_32"],
    )
    def test_one_search_per_repetition(self, tmp_path, monkeypatch, case, change):
        config = replace(DIFFERENTIAL_CASES[case](write_csv_dataset(tmp_path / "data.csv")), **change)
        calls = self.searches(config, monkeypatch)
        depth = max(config.plaknn.T, config.fixed_k)
        assert len(calls) == config.repetitions
        assert all(t == depth for _, t in calls)
        source = load_dataset(config.dataset)
        for rep, (queries, _) in enumerate(calls):
            assert np.array_equal(queries, prepare_rep_oracle(config, source, 0.0, rep)[1])


class TestBenchmarkEntryPoint:
    """``run`` calls ``bench_cli.classify_batch_detail`` with bindable train,
    index, queries and config, once per batch of test points of each (noise,
    repetition) job, and the queries of a job's calls are its test points,
    in order."""

    def test_each_jobs_calls_cover_its_test_points_in_order(self, tmp_path, monkeypatch):
        # 1,200 test points; at T = 1,100 the batch rule gives 900 rows: two
        # batches, the first one's last distance tile partial
        csv = write_csv_dataset(tmp_path / "data.csv", n=2400)
        config = ExperimentConfig(
            dataset=csv, methods=ALL_METHODS, noise_grid=(0.0, 0.5), repetitions=3,
            train_fraction=0.5, base_seed=8, plaknn=PlaknnConfig(T=1100),
        )
        rows = plaknn._batch_rows(config.plaknn.T, 4)
        assert rows % tile_rows(1200)
        original = bench_cli.classify_batch_detail
        signature = inspect.signature(original)
        calls = []

        def recorder(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench_cli, "classify_batch_detail", recorder)
        run(config)
        source = load_dataset(csv)
        jobs = {}
        for noise in config.noise_grid:
            for rep in range(config.repetitions):
                train, test_x, _ = prepare_rep_oracle(config, source, noise, rep)
                jobs[noise, rep] = (train.bag_masks, test_x)
        seen = {job: [] for job in jobs}
        for args in calls:
            assert {"train", "index", "queries", "config"} <= set(args)
            assert args["config"] == config.plaknn
            assert args["index"].n == args["train"].n
            assert args["queries"].shape[0] <= rows
            matches = [
                job for job, (masks, _) in jobs.items()
                if np.array_equal(args["train"].bag_masks, masks)
            ]
            assert len(matches) == 1
            seen[matches[0]].append(args["queries"])
        for job, (_, test_x) in jobs.items():
            assert len(seen[job]) == math.ceil(test_x.shape[0] / rows) == 2
            assert np.array_equal(np.concatenate(seen[job]), test_x)

    def test_noise_levels_share_the_transformed_features(self, tmp_path, monkeypatch):
        # with a pipeline, one read-only feature matrix serves every noise level
        config = replace(
            DIFFERENTIAL_CASES["csv_realworld"](write_csv_dataset(tmp_path / "data.csv")),
            methods=("plaknn",), repetitions=1,
        )
        trains = []
        original = bench_cli.classify_batch_detail

        def recorder(train, *args, **kwargs):
            trains.append(train)
            return original(train, *args, **kwargs)

        monkeypatch.setattr(bench_cli, "classify_batch_detail", recorder)
        run(config)
        assert len({id(train) for train in trains}) == len(config.noise_grid)
        assert all(np.shares_memory(train.features, trains[0].features) for train in trains)

    @pytest.mark.parametrize("scenario", ["two_gaussians", "relaxed_two_gaussians", "gaussian_clusters"])
    def test_scenario_noise_levels_share_the_training_sample(self, scenario, monkeypatch):
        # bag process and k-means alike: one read-only feature matrix and one
        # truth vector serve every noise level
        config = ExperimentConfig(
            scenario=scenario, n_samples=300, noise_grid=(0.0, 0.2, 0.4), repetitions=1,
            plaknn=PlaknnConfig(T=20),
        )
        trains = []
        original = bench_cli.classify_batch_detail

        def recorder(train, *args, **kwargs):
            trains.append(train)
            return original(train, *args, **kwargs)

        monkeypatch.setattr(bench_cli, "classify_batch_detail", recorder)
        run(config)
        assert len({id(train) for train in trains}) == len(config.noise_grid)
        first = trains[0]
        for train in trains:
            assert np.shares_memory(train.features, first.features)
            assert np.shares_memory(train.truths, first.truths)

    def test_csv_noise_levels_share_the_training_split(self, tmp_path, monkeypatch):
        # without a pipeline, truth-removal noise changes only the bags: one
        # feature matrix and one truth vector serve every noise level
        config = replace(
            DIFFERENTIAL_CASES["csv"](write_csv_dataset(tmp_path / "data.csv")),
            methods=("plaknn",), noise_grid=(0.0, 0.3, 0.6), repetitions=1,
        )
        trains = []
        original = bench_cli.classify_batch_detail

        def recorder(train, *args, **kwargs):
            trains.append(train)
            return original(train, *args, **kwargs)

        monkeypatch.setattr(bench_cli, "classify_batch_detail", recorder)
        run(config)
        assert len({id(train) for train in trains}) == len(config.noise_grid)
        first = trains[0]
        for train in trains:
            assert np.shares_memory(train.features, first.features)
            assert np.shares_memory(train.truths, first.truths)


class TestOrderBatches:
    """``plaknn._order_batches`` searches int32 batches of
    ``plaknn._batch_rows`` rows, one ``knn_index.search`` call each, the last
    one shorter; together they are the search of all the queries."""

    @pytest.mark.parametrize("depth", [1100, 1500], ids=["below_n", "above_n"])
    @pytest.mark.parametrize("rows", [1, 100, 256, 300, 700, 2000])
    def test_batches_concatenate_to_the_search(self, rows, depth, monkeypatch):
        # 700 queries searched 1,100 or 1,200 deep, in batches of ``rows`` in
        # place of the batch rule's size
        sized = []
        monkeypatch.setattr(plaknn, "_batch_rows", lambda t, c: sized.append((t, c)) or rows)
        searches = []
        search = knn_index.search

        def recorder(index, queries, order):
            searches.append(order.shape)
            search(index, queries, order)

        monkeypatch.setattr(knn_index, "search", recorder)
        rng = np.random.default_rng(rows)
        index = knn_index.build(rng.normal(size=(1200, 3)))
        queries = rng.normal(size=(700, 3))
        want = np.empty((700, min(depth, 1200)), dtype=np.int64)
        search(index, queries, want)
        got = []
        for batch, order in plaknn._order_batches(index, queries, depth, 10):
            assert order.dtype == np.int32
            assert order.shape == (batch.stop - batch.start, min(depth, 1200))
            assert batch.start == sum(g.shape[0] for g in got)
            got.append(order.copy())
        assert sized == [(min(depth, 1200), 10)]
        assert [g.shape[0] for g in got] == [min(rows, 700 - s) for s in range(0, 700, rows)]
        assert searches == [g.shape for g in got]
        assert np.array_equal(np.concatenate(got), want)


class TestRepetitionMemory:
    """A repetition holds one batch of test points' order, not an order with
    a row for every test point and a column for every neighbor, and a run
    holds its dumped predictions as label arrays."""

    def test_large_T_run_stays_within_a_few_blocks(self, tmp_path, capsys):
        # 2,000 training and 2,000 test points, T = 2,000: a whole (2000, 2000)
        # int64 order is 32 MB.  At this depth the batch rule gives 516
        # queries, whose int32 order is 4.1 MB; every batch is searched into
        # that one buffer, a distance tile at a time.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nscenario = two_gaussians\nn_samples = 4000\ntrain_fraction = 0.5\n"
            "repetitions = 1\nmethods = aknn\n[plaknn]\nT = 2000\n"
        )
        batch_order = plaknn._batch_rows(2000, 2) * 2000 * 4
        tracemalloc.start()
        try:
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().out.startswith("method=aknn")
        assert peak < 2 * batch_order

    def test_cluster_grid_peak(self):
        # the benchmark's clusters shape: k-means holds (k, n) distances and
        # the search one tile of them, so no (batch, n_train) matrix is live
        config = ExperimentConfig(
            scenario="gaussian_clusters", n_samples=5000, methods=ALL_METHODS, fixed_k=10,
            noise_grid=(0.0, 0.3), repetitions=1,
        )
        # a small run first, so that lazy imports stay out of the peak
        run(replace(config, n_samples=300, plaknn=PlaknnConfig(T=20)))
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5e6

    def test_dumped_predictions_are_held_as_labels(self):
        # 100 test points x 3 methods x 4 levels x 20 repetitions are 24,000
        # predictions: one byte per label, the repetition's 100 truths and
        # each job's array headers come to about 3.3 bytes a prediction, and
        # one PredictionRow object per prediction would take about 140
        config = ExperimentConfig(
            scenario="two_gaussians", n_samples=500, methods=ALL_METHODS, fixed_k=5,
            noise_grid=(0.0, 0.1, 0.2, 0.3), repetitions=20, plaknn=PlaknnConfig(T=10),
        )
        # a small run first, so that lazy imports stay out of the held memory
        run(replace(config, n_samples=60, repetitions=1), dump_predictions=True)
        held = {}
        for dump in (False, True):
            tracemalloc.start()
            try:
                result = run(config, dump_predictions=dump)
                held[dump] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del result
        assert held[True] - held[False] < 8 * 24_000


class TestInfiniteC1:
    @pytest.mark.parametrize("value", ["inf", "1e999"])
    def test_run_exits_2_with_one_line(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nscenario = two_gaussians\nn_samples = 60\nrepetitions = 1\n"
            f"[plaknn]\nc1 = {value}\n"
        )
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert "c1 must be finite and positive" in err
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# The output writers spelled out column by column, as ``emit`` and
# ``bench run`` once wrote them.
# ---------------------------------------------------------------------------


def _fmt_oracle(value):
    return format(value, ".6g")


def emit_oracle(result, out_dir, timings=False):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "results.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "method",
                "noise",
                "repetition",
                "seed",
                "n_train",
                "error_rate",
                "mean_iterations",
                "wall_time_ms",
            ]
        )
        for r in result.rows:
            writer.writerow(
                [
                    r.method,
                    _fmt_oracle(r.noise),
                    r.repetition,
                    r.seed,
                    r.n_train,
                    _fmt_oracle(r.error_rate),
                    "" if r.mean_iterations is None else _fmt_oracle(r.mean_iterations),
                    _fmt_oracle(r.wall_time_ms) if timings else "",
                ]
            )
    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "noise", "mean_error", "std_error", "n_reps"])
        for s in result.summary:
            writer.writerow(
                [s.method, _fmt_oracle(s.noise), _fmt_oracle(s.mean_error),
                 _fmt_oracle(s.std_error), s.n_reps]
            )
    if result.predictions is not None:
        with (out / "predictions.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["method", "noise", "repetition", "index", "truth", "predicted"])
            for r, (truths, labels) in zip(result.rows, result.predictions):
                for i in range(len(truths)):
                    writer.writerow(
                        [r.method, _fmt_oracle(r.noise), r.repetition, i, int(truths[i]), int(labels[i])]
                    )


def summary_lines_oracle(summary):
    """What ``bench run`` prints for ``summary``."""
    return "".join(
        f"method={s.method} noise={_fmt_oracle(s.noise)} mean_error={_fmt_oracle(s.mean_error)} "
        f"std_error={_fmt_oracle(s.std_error)} n_reps={s.n_reps}\n"
        for s in summary
    )


# floats a cell must print as the oracle does, ints among them
CELL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-7, 1e21, 0.1, 1 / 3, 5e-324]),
    st.floats(),
    st.integers(-(10**30), 10**30),
)
CELL_INTS = st.integers(-(2**64), 2**64)
CELL_STRS = st.sampled_from(["plaknn", "aknn", "fixed_k", "", "a,b", 'q"t', "x y"])

# one job's (int64 truths, uint8 labels), as run keeps them
JOB_PREDICTIONS = st.integers(0, 4).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=m, max_size=m).map(
            lambda v: np.array(v, dtype=np.int64)
        ),
        st.lists(st.integers(0, 255), min_size=m, max_size=m).map(
            lambda v: np.array(v, dtype=np.uint8)
        ),
    )
)


@st.composite
def run_results(draw):
    """A :class:`RunResult` with printable cells and, or not, one prediction
    pair per row."""
    rows = draw(st.lists(
        st.builds(ResultRow, CELL_STRS, CELL_FLOATS, CELL_INTS, CELL_INTS, CELL_INTS,
                  CELL_FLOATS, st.none() | CELL_FLOATS, CELL_FLOATS),
        max_size=6,
    ))
    summary = draw(st.lists(
        st.builds(SummaryRow, CELL_STRS, CELL_FLOATS, CELL_FLOATS, CELL_FLOATS, CELL_INTS),
        max_size=6,
    ))
    predictions = draw(st.none() | st.lists(JOB_PREDICTIONS, min_size=len(rows), max_size=len(rows)))
    return RunResult(rows=rows, summary=summary, predictions=predictions)


RUN_RESULTS = run_results()


class TestEmitAgainstOracle:
    """``bench run`` derives its CSV columns and summary keys from the row
    dataclasses; the files and printed lines equal the oracle's bytes."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    @given(result=RUN_RESULTS, timings=st.booleans())
    def test_same_bytes(self, result, timings):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = tmp / "exp.cfg"
            cfg.write_text(f"[experiment]\nscenario = two_gaussians\ntimings = {timings}\n")
            stdout = io.StringIO()
            with mock.patch.object(bench_cli, "run", lambda *args, **kwargs: result), \
                    contextlib.redirect_stdout(stdout):
                assert main(["run", "--config", str(cfg), "--out", str(tmp / "got")]) == 0
            emit_oracle(result, tmp / "want", timings)
            assert stdout.getvalue() == summary_lines_oracle(result.summary)
            names = sorted(p.name for p in (tmp / "want").iterdir())
            assert sorted(p.name for p in (tmp / "got").iterdir()) == names
            for name in names:
                assert (tmp / "got" / name).read_bytes() == (tmp / "want" / name).read_bytes()


class TestConfigBounds:
    """Config values that once ended in a traceback (an allocation sized by
    ``n_samples``, a negative seed for ``default_rng``, a ``d0`` that
    overflows the threshold) or in a run that could never eliminate a label
    end in exit 2 with one line."""

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("run", "n_samples = 10000000000000\n", "n_samples must be in 10..100000"),
            ("synth", "n_samples = 10000000000000\n", "n_samples must be in 10..100000"),
            ("run", "base_seed = -5\n", "base_seed must be >= 0, got -5"),
            ("synth", "[synth]\nseed = -1\n", "seed must be >= 0, got -1"),
            ("run", f"[plaknn]\nmode = uniform\nd0 = 1{'0' * 400}\n", "d0 must be in [1, "),
            ("run", f"[plaknn]\nmode = uniform\nd0 = 1{'0' * 308}\n", "overflow the threshold"),
            ("run", "[plaknn]\nc1 = 1e308\n", "overflow the threshold"),
            # k-means would hold an (n, n_clusters) float64 distance matrix
            ("run", "[synth]\nn_clusters = 257\n", "[synth]: n_clusters must be <= 256, got 257"),
            ("synth", "[synth]\nn_clusters = 257\n", "[synth]: n_clusters must be <= 256, got 257"),
            # thresholds above 1 up to k = T = 10 eliminate nothing
            ("run", "n_samples = 60\nmethods = plaknn\n[plaknn]\nT = 10\nc1 = 100\n",
             "no label can ever be eliminated"),
            # a repetition holds every noise level's bags and job outputs at once
            ("run", "noise_grid = " + ",".join(str(i / 128) for i in range(129)) + "\n",
             "at most 128 noise levels are allowed, got 129"),
            # pointwise mode would ignore d0
            ("run", "[plaknn]\nd0 = 3\n", "section [plaknn]: d0 applies only in uniform mode"),
            # run holds every repetition's dumped predictions until they are written
            ("run", "repetitions = 101\n", "repetitions must be in 1..100, got 101"),
        ],
        ids=["run_n_samples", "synth_n_samples", "run_base_seed", "synth_seed", "d0_1e400",
             "d0_1e308", "c1_1e308", "run_n_clusters", "synth_n_clusters", "c1_never_eliminates",
             "noise_levels_129", "d0_pointwise", "repetitions_101"],
    )
    @pytest.mark.filterwarnings("error")
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "exp.cfg"
        reps = "" if text.startswith("repetitions") else "repetitions = 1\n"
        cfg.write_text("[experiment]\nscenario = two_gaussians\n" + reps + text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_largest_sample_is_accepted(self):
        config = ExperimentConfig(scenario="two_gaussians", n_samples=bench_cli.MAX_SAMPLES)
        assert config.n_samples == 100_000

    def test_most_clusters_are_accepted(self):
        assert SynthBagConfig(n_clusters=256).n_clusters == 256

    def test_most_noise_levels_are_accepted(self):
        grid = tuple(i / 127 for i in range(bench_cli.MAX_NOISE_LEVELS))
        assert len(ExperimentConfig(scenario="two_gaussians", noise_grid=grid).noise_grid) == 128

    def test_most_repetitions_are_accepted(self):
        config = ExperimentConfig(scenario="two_gaussians", repetitions=bench_cli.MAX_REPETITIONS)
        assert config.repetitions == 100


class TestDistinctGrid:
    """Repeated methods or noise levels would repeat summary rows over
    duplicated errors, and an empty noise grid would write header-only
    CSVs; each ends in exit 2 with one line."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("methods = plaknn,plaknn\nnoise_grid = 0.0,0.0\n", "methods must be distinct"),
            ("methods = plaknn,aknn,plaknn\n", "methods must be distinct"),
            ("noise_grid = 0.0,0.2,0.0\n", "noise levels must be distinct"),
            ("noise_grid = 0.0,-0.0\n", "noise levels must be distinct"),
            ("noise_grid =\n", "at least one noise level is required"),
        ],
        ids=["methods_and_noise", "methods", "noise", "signed_zero", "empty_noise_grid"],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\nscenario = two_gaussians\nrepetitions = 2\n" + text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert message in err
        assert not (tmp_path / "out").exists()


class TestPipelineDataError:
    """Unit normalization maps one-feature rows to +1 or -1, so every
    training point has density radius 0; the pipeline's refusal ends in
    exit 3 with one line under either variant."""

    @pytest.mark.parametrize("variant", ["vision", "realworld"])
    def test_exit_3_with_one_line(self, tmp_path, capsys, variant):
        x = np.random.default_rng(3).normal(size=300)
        y = 1 + (x > 0)
        data = tmp_path / "one.csv"
        rows = "".join(f"{v!r},{t},{t}\n" for v, t in zip(x.tolist(), y.tolist()))
        data.write_text("x1,bag,y\n" + rows)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"[experiment]\ndataset = {data}\nrepetitions = 1\n[pipeline]\nvariant = {variant}\n"
        )
        # 240 training points against the default T = 400, but the run fails
        # before any repetition succeeds, so the T > n warning is not issued
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and caught == []
        assert err.count("\n") == 1 and err.startswith("data error:")
        assert "density scaling is undefined" in err

    def test_coincident_points_exit_3_without_the_T_warning(self, tmp_path, capsys):
        # 24 training points at one location against T = 400
        data = tmp_path / "same.csv"
        data.write_text("x1,x2,bag,y\n" + "".join(f"1.0,2.0,{y},{y}\n" for y in [1, 2] * 15))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"[experiment]\ndataset = {data}\nrepetitions = 1\n[pipeline]\nvariant = vision\n"
            "smoothing_k = 2\ndensity_k = 2\n[plaknn]\nT = 400\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and caught == []
        assert err.count("\n") == 1 and err.startswith("data error:")
        assert "all training points coincide" in err

    def test_a_run_that_succeeds_warns_once_through_main(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nscenario = two_gaussians\nn_samples = 60\nrepetitions = 2\n"
            "[plaknn]\nT = 100\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0 and capsys.readouterr().err == ""
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]
        assert "T=100 exceeds the 48" in str(caught[0].message)


# one complete c = 2 atom, lines 2-6 of a file that starts with "labels 2"
ATOM_2 = "atom\nlocation 0\nmass 1\nprobs 1 0\nbagdefault identity\n"


class TestErrorMessages:
    """Every message the distribution loader raises, and the config messages
    that no other test reaches, as the one stderr line ``bench`` prints;
    ``{path}`` stands for the input file."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"labels 2\natom\xff\n",
             "{path}: unreadable text: 'utf-8' codec can't decode byte 0xff in position 13:"
             " invalid start byte"),
            ("# no labels line\natom\n", "{path}: first directive must be 'labels <c>'"),
            ("labels two\n", "{path}: malformed labels directive"),
            ("labels 13\n", "{path}: labels must be in 2..12, got 13"),
            ("labels 12\n" + "atom\n" * 86,
             "{path}: 86 atoms with 12 labels need 33808320 bytes of bag tables, over the"
             " limit of 33554432"),
            ("labels 2\n\n# the mass comes first\nmass 1\n" + ATOM_2,
             "{path}:4: directive outside an atom block"),
            ("labels 2\n" + ATOM_2 + "weight 1\n", "{path}:7: unknown directive 'weight'"),
            # a directive's error comes before the block's missing location
            ("labels 2\natom\nmass one\n", "{path}:3: malformed directive"),
            ("labels 2\natom\nbagdefault\n", "{path}:3: malformed directive"),
            ("labels 2\natom\nbagdefault uniform\n", "{path}:3: unknown bagdefault 'uniform'"),
            ("labels 2\n" + ATOM_2 + "bagrow 1;3 0 1\n", "{path}:7: bad bag spec '1;3'"),
            ("labels 2\n" + ATOM_2 + "bagrow 1 1\n", "{path}:7: expected 2 probabilities"),
            ("labels 2\n" + ATOM_2.replace("mass 1\n", ""), "{path}: atom block missing 'mass'"),
            ("labels 2\n" + ATOM_2.replace("mass 1", "mass 2"),
             "{path}: invalid atom: atom mass must lie in (0, 1]"),
            ("labels 2\n" + ATOM_2.replace("bagdefault identity\n", ""),
             "{path}: invalid atom: every column must sum to 1, got sums [0. 0.]"),
            ("labels 2\n# nothing else\n", "{path}: no atoms"),
            ("labels 2\n" + ATOM_2.replace("mass 1", "mass 0.5")
             + ATOM_2.replace("location 0", "location 1").replace("mass 1", "mass 0.25"),
             "{path}: atom masses sum to 0.75, not 1"),
            # the first block's missing mass is found before the second block is read
            ("labels 2\n" + ATOM_2.replace("mass 1\n", "")
             + ATOM_2.replace("mass 1", "mass x"),
             "{path}: atom block missing 'mass'"),
        ],
        ids=["unreadable", "no_labels", "labels_malformed", "labels_range", "bag_tables",
             "outside_block", "unknown_directive", "malformed", "malformed_short",
             "unknown_bagdefault", "bad_bag_spec", "bagrow_width", "missing_field",
             "invalid_atom", "invalid_bag_columns", "no_atoms", "distribution", "two_blocks"],
    )
    def test_distribution_exit_3(self, tmp_path, capsys, text, message):
        dist = tmp_path / "dist.txt"
        if isinstance(text, bytes):
            dist.write_bytes(text)
        else:
            dist.write_text(text)
        code = main(["theory", "--dist", str(dist)])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "data error: " + message.format(path=dist) + "\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("run", "[experiment]\nscenario = two_gaussians\nmethods =\n",
             "at least one method is required"),
            ("run", "[experiment]\nscenario = two_gaussians\nnoise_grid = 0.0,1.5\n",
             "noise level 1.5 outside [0, 1]"),
            ("run", "# no section yet\nscenario = two_gaussians\n",
             "{path}:2: key outside any section"),
            ("synth", "[experiment]\ndataset = data.csv\n",
             "bench synth needs a scenario in [experiment]"),
            # once a ValueError traceback from analytic_scenario, exit 1
            ("run", "[experiment]\nscenario = nope\n",
             "unknown scenario 'nope'; choose from ('two_gaussians', 'relaxed_two_gaussians',"
             " 'gaussian_clusters')"),
            ("synth", "[experiment]\nscenario = nope\n",
             "unknown scenario 'nope'; choose from ('two_gaussians', 'relaxed_two_gaussians',"
             " 'gaussian_clusters')"),
        ],
        ids=["no_methods", "noise_range", "key_outside_section", "synth_without_scenario",
             "run_unknown_scenario", "synth_unknown_scenario"],
    )
    def test_config_exit_2(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "config error: " + message.format(path=cfg) + "\n"
        assert not (tmp_path / "out").exists()


@st.composite
def csv_texts(draw):
    """A small ``bench run`` CSV: tiny, one-row, constant, duplicated or
    integer features, scaled by 1e-300 to 1e200."""
    n = draw(st.sampled_from([1, 2, 3, 5, 12]) | st.integers(6, 80))
    dim, c = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["normal", "constant", "duplicate", "integer"]))
    scale = 10.0 ** draw(st.sampled_from([-300, -170, -150, -5, 0, 0, 0, 3, 150, 160, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal((n, dim))
    if kind == "constant":
        x[:] = x[0]
    elif kind == "duplicate":
        x = x[rng.integers(0, max(1, n // 3), size=n)]
    elif kind == "integer":
        x = np.round(4 * x)
    y = rng.integers(1, c + 1, size=n)
    bags = rng.random((n, c)) < 0.3
    bags[np.arange(n), y - 1] = True
    rows = "".join(
        ",".join(repr(float(v)) for v in row * scale)
        + "," + ";".join(str(j + 1) for j in np.flatnonzero(bag)) + f",{label}\n"
        for row, bag, label in zip(x, bags, y)
    )
    return ",".join(f"x{j + 1}" for j in range(dim)) + ",bag,y\n" + rows


@st.composite
def run_inputs(draw):
    """``(config text, CSV text or None, --out under a plain file,
    --dump-predictions)`` for one ``bench run``, from the ranges of the CLI
    probe; ``{dataset}`` in the config stands for the CSV's path."""
    data = draw(st.none() | csv_texts())
    if data is None:
        name = draw(st.sampled_from(SCENARIOS + ("nope", "Two_Gaussians", "")))
        source = f"scenario = {name}\nn_samples = {draw(st.integers(10, 150))}\n"
    else:
        source = "dataset = {dataset}\n"
    methods = draw(st.lists(st.sampled_from(bench_cli.METHODS), min_size=1, max_size=3, unique=True))
    noise = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=1, max_size=3, unique=True))
    variant = draw(st.sampled_from(["none", "none", "vision", "realworld"]))
    text = (
        "[experiment]\n" + source
        + f"methods = {','.join(methods)}\n"
        + f"fixed_k = {draw(st.integers(1, 30))}\n"
        + f"noise_grid = {','.join(map(str, noise))}\n"
        + f"train_fraction = {draw(st.floats(0.01, 0.99)):.3f}\n"
        + f"repetitions = {draw(st.integers(1, 2) | st.just(bench_cli.MAX_REPETITIONS + 1))}\n"
        + f"base_seed = {draw(st.integers(0, 1000))}\n"
        + f"[plaknn]\nT = {draw(st.sampled_from([1, 2, 5, 400, 100_000]) | st.integers(1, 200))}\n"
        + f"[synth]\nn_clusters = {draw(st.integers(1, 256))}\n"
        + f"[pipeline]\nvariant = {variant}\n"
    )
    if variant != "none":
        text += f"smoothing_k = {draw(st.integers(1, 8))}\ndensity_k = {draw(st.integers(1, 8))}\n"
    return text, data, draw(st.integers(0, 5)) == 0, draw(st.integers(0, 2)) == 0


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


class TestCliContract:
    """Any ``bench run`` input ends in exit 0, 2 or 3.  Exit 2 or 3 prints
    one stderr line, a warning included, and exit 0 reruns to the same
    bytes."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=run_inputs())
    def test_exit_codes_and_messages(self, inputs):
        text, data, under_file, dump = inputs
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            # shown on stderr, not raised: a warning is one more stderr line
            warnings.simplefilter("default")
            warnings.showwarning = _show_on_stderr
            tmp = Path(tmp)
            if data is not None:
                (tmp / "data.csv").write_text(data)
            cfg = tmp / "exp.cfg"
            cfg.write_text(text.format(dataset=tmp / "data.csv"))
            (tmp / "afile").write_text("")
            outputs = []
            for out in ["afile/x"] if under_file else ["a", "b"]:
                stdout, stderr = io.StringIO(), io.StringIO()
                argv = ["run", "--config", str(cfg), "--out", str(tmp / out)]
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv + ["--dump-predictions"] * dump)
                assert code in (0, 2, 3)
                if code:
                    err = stderr.getvalue()
                    assert err.count("\n") == 1, err
                    assert err.startswith(("config error:", "data error:")), err
                    return
                files = sorted((tmp / out).iterdir())
                outputs.append((stdout.getvalue(), [(f.name, f.read_bytes()) for f in files]))
            assert outputs[0] == outputs[1]


# Lines that break a distribution file: malformed, out of range, unknown.
BAD_DISTRIBUTION_LINES = (
    "labels 1", "labels 65", "labels x", "atom 1", "location", "location 1e400",
    "location nan", "mass -0.5", "mass 2", "mass inf", "probs 1", "probs -1 2",
    "bagrow 9 1 0", "bagrow 0 1 0", "bagrow 1;x 1 0", "bagrow 1", "bagdefault uniform",
    "frobnicate 1",
)


@st.composite
def distribution_texts(draw):
    """A ``bench theory`` distribution file: c from 2 to 5, up to five atoms
    with random masses, locations, label probabilities and column-stochastic
    bag tables, and in one file of three a malformed or out-of-range line in
    place of one of its lines."""
    c = draw(st.integers(2, 5))
    dim = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    points = st.tuples(*[st.integers(-3, 3)] * dim)
    locations = draw(st.lists(points, min_size=len(weights), max_size=len(weights), unique=True))
    lines = [f"labels {c}"]
    for weight, location in zip(weights, locations):
        probs = draw(st.lists(st.integers(0, 5), min_size=c, max_size=c).filter(any))
        lines += ["atom", "location " + " ".join(map(str, location)),
                  f"mass {weight / sum(weights)!r}",
                  "probs " + " ".join(repr(p / sum(probs)) for p in probs)]
        table = {}
        for y in draw(st.lists(st.integers(0, c - 1), max_size=c, unique=True)):
            bags = draw(st.lists(st.integers(1, (1 << c) - 1), min_size=1, max_size=4, unique=True))
            shares = draw(st.lists(st.integers(1, 5), min_size=len(bags), max_size=len(bags)))
            for bag, share in zip(bags, shares):
                table.setdefault(bag, [0.0] * c)[y] = share / sum(shares)
        lines += [
            "bagrow " + ";".join(str(y + 1) for y in range(c) if bag >> y & 1) + " "
            + " ".join(map(repr, row))
            for bag, row in table.items()
        ]
        lines.append("bagdefault identity")
    if draw(st.integers(0, 2)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(BAD_DISTRIBUTION_LINES))
    return "\n".join(lines) + "\n"


class TestTheoryCliContract:
    """Any ``bench theory`` distribution file ends in exit 0 or 3.  Exit 3
    prints one ``data error:`` line and nothing else, and exit 0 reruns to
    the same report and CSV bytes."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=distribution_texts())
    def test_exit_codes_and_messages(self, text):
        # 200 examples in about 1.9 s; 83 of them exit 0
        with tempfile.TemporaryDirectory() as tmp:
            dist = Path(tmp) / "dist.txt"
            dist.write_text(text)
            outputs = []
            for name in ("a.csv", "b.csv"):
                stdout, stderr = io.StringIO(), io.StringIO()
                argv = ["theory", "--dist", str(dist), "--csv", str(Path(tmp) / name)]
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                assert code in (0, 3)
                if code:
                    err = stderr.getvalue()
                    assert err.count("\n") == 1 and err.startswith("data error: "), err
                    assert stdout.getvalue() == ""
                    return
                assert stderr.getvalue() == ""
                outputs.append((stdout.getvalue(), (Path(tmp) / name).read_bytes()))
            assert outputs[0] == outputs[1]
