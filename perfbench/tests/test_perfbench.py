"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads
from spans import Span

TINY_CONFIG = """\
[experiment]
scenario = gaussian_clusters
n_samples = 120
methods = plaknn,fixed_k,aknn
fixed_k = 5
noise_grid = 0.0,0.3
repetitions = 1
base_seed = 7

[plaknn]
T = 30
"""


def test_self_time_subtracts_nested_children():
    spans_ = [
        Span("root", 0, 100, None, "j"),
        Span("a", 10, 40, 0, "j"),
        Span("a.inner", 20, 30, 1, "j"),
        Span("b", 50, 70, 0, "j"),
    ]
    assert spans.self_times(spans_) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans_ = [
        Span("root", 0, 100, None, None),
        Span("a", 10, 40, 0, None),
        Span("b", 30, 60, 0, None),
        Span("c", 90, 120, 0, None),  # clipped to the parent's end
    ]
    assert spans.self_times(spans_)[0] == 100 - 50 - 10


@pytest.mark.parametrize("make", [workloads.make_csv_dataset, workloads.make_distribution])
def test_generators_are_deterministic_per_seed(tmp_path, make):
    make(5, tmp_path / "a")
    make(5, tmp_path / "b")
    make(6, tmp_path / "c")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


def test_generated_distribution_loads(tmp_path):
    from plbag.bench_cli import load_distribution

    workloads.make_distribution(0, tmp_path / "d.txt")
    d = load_distribution(tmp_path / "d.txt")
    assert d.n_atoms == workloads.THEORY_ATOMS and d.label_space.c == workloads.THEORY_LABELS


def _tiny_grid(tmp_path):
    from plbag.bench_cli import parse_config

    (tmp_path / "exp.cfg").write_text(TINY_CONFIG)
    config = parse_config(tmp_path / "exp.cfg")
    source = workloads.setup("clusters", workloads.Inputs(tmp_path / "exp.cfg", None))[1]
    return config, source


def test_perturbed_output_is_counted_as_failed(tmp_path):
    config, source = _tiny_grid(tmp_path)
    out = tmp_path / "out"
    checker = run.Checker("clusters", config, seed=1)
    workloads.run_grid("clusters", config, source, out)
    checker.grid(out, None)
    assert (checker.attempted, checker.failed) == (2, 0)

    workloads.run_grid("clusters", config, source, out)
    checker.grid(out, None)
    assert (checker.attempted, checker.failed) == (4, 0)  # rerun is byte-identical

    results = out / "results.csv"
    rows = list(csv.reader(results.read_text().splitlines()))
    row = next(r for r in rows if r[1:3] == ["0.3", "0"])
    row[5] = "0.999"  # error_rate of one method in the noise=0.3 job
    results.write_text("".join(",".join(r) + "\n" for r in rows))
    checker.grid(out, None)
    assert (checker.attempted, checker.failed) == (6, 1)  # only the perturbed job

    (out / "summary.csv").write_text("method,noise\n")
    checker.grid(out, None)
    assert (checker.attempted, checker.failed) == (8, 3)  # a bad summary fails the grid

    checker.grid(out, RuntimeError("boom"))
    assert (checker.attempted, checker.failed) == (10, 5)


def test_batch_scalar_mismatch_is_counted(tmp_path, monkeypatch):
    from plbag import plaknn

    config, source = _tiny_grid(tmp_path)
    captured = []
    with spans.capture_plaknn_calls(captured):
        workloads.run_grid("clusters", config, source, tmp_path / "out")
    assert len(captured) == 2
    assert workloads.scalar_mismatches(captured, seed=1) == 0

    real = plaknn.classify_batch
    monkeypatch.setattr(plaknn, "classify_batch", lambda *a: real(*a) % 10 + 1)
    assert workloads.scalar_mismatches(captured, seed=1) == 2


def _site_values():
    out = {}
    for name, sites in spans._SITES:
        for module, attr in sites:
            found = spans._resolve(module, attr)
            if found is not None:
                out[(module, attr)] = vars(found[0])[found[1]]
    return out


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    config, source = _tiny_grid(tmp_path)
    before = _site_values()
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(_site_values()[k] is not v for k, v in before.items())
        workloads.run_grid("clusters", config, source, tmp_path / "out")
    assert _site_values() == before and all(_site_values()[k] is v for k, v in before.items())

    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert all(_site_values()[k] is v for k, v in before.items())

    metrics = spans.layer_metrics(tracer)
    n_test = 24  # 20 % of 120
    # three methods, two jobs, every test point against the 96 training points
    assert metrics["knn_index.distance_pairs"] == 3 * 2 * n_test * 96
    assert metrics["knn_index.select_calls"] == 3 * 2 * n_test
    assert metrics["synth.kmeans_labels_s"] > 0 and metrics["preprocess.fit_s"] == 0
    assert {s.job for s in tracer.spans if s.name == "knn_index.nearest_order"} == {
        "noise=0 rep=0",
        "noise=0.3 rep=0",
    }


def test_lockstep_util_uses_fixed_blocks():
    its = np.array([1] * 255 + [100] + [10])
    m = spans.plaknn_metrics([(its, np.zeros(its.shape, bool), 100)])
    assert m["plaknn.lockstep_util"] == pytest.approx((255 + 100 + 10) / (256 * 100 + 10))
    assert m["plaknn.cap_hit_frac"] == pytest.approx(1 / 257)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clusters", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
