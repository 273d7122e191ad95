import subprocess
import sys

import pytest

from plbag.bench_cli import (
    ConfigError,
    ExperimentConfig,
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
from plbag.core import DataFormatError, load_dataset
from plbag.plaknn import PlaknnConfig


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

    def test_threads_match_sequential(self):
        cfg = tiny_config(noise_grid=(0.0, 0.3), repetitions=3)
        seq = run(cfg, threads=1)
        par = run(cfg, threads=4)

        def strip_walls(rows):
            return [
                (r.method, r.noise, r.repetition, r.seed, r.n_train, r.error_rate, r.mean_iterations)
                for r in rows
            ]

        assert strip_walls(seq.rows) == strip_walls(par.rows)
        assert seq.summary == par.summary

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
        for row in result.rows:
            preds = [
                p
                for p in result.predictions
                if (p.method, p.noise, p.repetition) == (row.method, row.noise, row.repetition)
            ]
            assert preds
            recount = sum(p.truth != p.predicted for p in preds) / len(preds)
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
        result = run(tiny_config())
        emit(result, tmp_path, timings=True)
        line = (tmp_path / "results.csv").read_text().splitlines()[1]
        assert line.rsplit(",", 1)[1] != ""


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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "plbag.bench_cli", *args],
        capture_output=True,
        text=True,
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

    def test_theory_bad_file_exit_code(self, tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text("labels 3\natom\n")
        proc = run_cli("theory", "--dist", str(dist))
        assert proc.returncode == 3


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
