"""Workload definitions, seeded input generators and output checks.

Each workload is one closed-loop grid through the package's public entry
points: ``bench_cli.run`` + ``bench_cli.emit`` for the three ``bench run``
shapes, ``bench_cli.load_distribution`` + ``bench_cli.theory_report`` plus
the advantage CSV for ``theory``.  Inputs are generated from the workload
seed before anything is timed; the program only ever sees the generated
files.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why the workload is in the benchmark (copied to BENCHMARK.json)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clusters",
            "gaussian_clusters n=5000 c=10, all three methods, noise 0/0.3: long "
            "elimination, k-means bags, three methods recompute distances",
        ),
        Workload(
            "csv_vision",
            "generated CSV n=3000 d=16 c=6, vision pipeline, truth-removal noise, "
            "predictions dump: load_dataset, preprocess, wide neighbor search",
        ),
        Workload(
            "theory",
            "generated 300-atom c=5 distribution: theory_report plus advantage CSV, "
            "quadratic bag-frequency arithmetic; no bench run layer runs",
        ),
    )
}

# -- bench run configs ------------------------------------------------------

_RUN_CONFIGS = {
    "clusters": """\
[experiment]
scenario = gaussian_clusters
n_samples = 5000
methods = plaknn,fixed_k,aknn
fixed_k = 10
noise_grid = 0.0,0.3
repetitions = 1
base_seed = {seed}
timings = false
""",
    "csv_vision": """\
[experiment]
dataset = {dataset}
methods = plaknn,fixed_k,aknn
noise_grid = 0.0,0.2
repetitions = 1
base_seed = {seed}
timings = false

[pipeline]
variant = vision
""",
}

# csv_vision is the only workload that dumps predictions.
DUMP_PREDICTIONS = {"clusters": False, "csv_vision": True}

CSV_N, CSV_DIM, CSV_LABELS = 3000, 16, 6
THEORY_ATOMS, THEORY_LABELS, THEORY_DIM = 300, 5, 2


def make_csv_dataset(seed: int, path: Path) -> None:
    """Gaussian classes in 16 dimensions with cluster-varying bags."""
    from plbag.core import LabelSpace, save_dataset
    from plbag.synth import SynthBagConfig, make_bags

    rng = np.random.default_rng([seed, 1])
    means = 1.5 * rng.standard_normal((CSV_LABELS, CSV_DIM))
    truths = rng.integers(1, CSV_LABELS + 1, size=CSV_N)
    features = means[truths - 1] + rng.standard_normal((CSV_N, CSV_DIM))
    data = make_bags(
        features,
        truths,
        LabelSpace(CSV_LABELS),
        SynthBagConfig(n_clusters=5, alpha_max=0.6, seed=int(rng.integers(2**63))),
    )
    save_dataset(data, path)


def make_distribution(seed: int, path: Path) -> None:
    """``THEORY_ATOMS`` atoms in the ``load_distribution`` text format.

    Each atom carries a random independent-inclusion bag process (every
    wrong label joins with probability below 0.5), so all 31 bag rows are
    written explicitly.  Values are written with ``repr`` and read back
    exactly.
    """
    from plbag.core import BagGenMatrix, canonical_bag_masks

    rng = np.random.default_rng([seed, 2])
    c = THEORY_LABELS
    weights = rng.uniform(0.5, 1.5, size=THEORY_ATOMS)
    masses = weights / weights.sum()
    locations = rng.standard_normal((THEORY_ATOMS, THEORY_DIM))
    masks = canonical_bag_masks(c)
    lines = [f"labels {c}"]
    for a in range(THEORY_ATOMS):
        probs = rng.dirichlet(np.ones(c))
        q = rng.uniform(0.0, 0.5, size=(c, c))
        np.fill_diagonal(q, 1.0)
        entries = BagGenMatrix.independent_inclusion(q).entries
        lines.append("atom")
        lines.append("location " + " ".join(repr(float(v)) for v in locations[a]))
        lines.append(f"mass {float(masses[a])!r}")
        lines.append("probs " + " ".join(repr(float(v)) for v in probs))
        for row, mask in enumerate(masks):
            labels = ";".join(str(y + 1) for y in range(c) if int(mask) >> y & 1)
            values = " ".join(repr(float(v)) for v in entries[row])
            lines.append(f"bagrow {labels} {values}")
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Inputs:
    """Generated files for one (workload, seed)."""

    config: Path | None  # bench run config file
    data: Path | None  # dataset CSV or distribution file


def generate(name: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if name == "theory":
        dist = directory / "distribution.txt"
        make_distribution(seed, dist)
        return Inputs(None, dist)
    data = None
    if name == "csv_vision":
        data = directory / "dataset.csv"
        make_csv_dataset(seed, data)
    config = directory / "experiment.cfg"
    config.write_text(_RUN_CONFIGS[name].format(seed=seed, dataset=data))
    return Inputs(config, data)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_digests(inputs: Inputs) -> dict[str, str]:
    """sha256 of the generated data file, or of the config when there is none.

    A dataset workload's config is left out: it holds the dataset's path.
    """
    path = inputs.data or inputs.config
    return {path.name: sha256_file(path)}


# -- the grid ---------------------------------------------------------------


def setup(name: str, inputs: Inputs):
    """Parse the config and load the source, as ``bench run`` / ``bench theory`` do.

    Returns ``(config, source)``: for ``theory`` the config is None and the
    source is the loaded distribution.
    """
    from plbag import bench_cli, core, synth

    if name == "theory":
        return None, bench_cli.load_distribution(inputs.data)
    config = bench_cli.parse_config(inputs.config)
    if config.dataset is not None:
        return config, core.load_dataset(config.dataset)
    return config, synth.analytic_scenario(config.scenario)


def jobs(name: str, config) -> list[tuple[float, int]]:
    if name == "theory":
        return [(0.0, 0)]
    return [(noise, rep) for noise in config.noise_grid for rep in range(config.repetitions)]


def queries_per_grid(name: str, config, source) -> int:
    """Test points x methods x jobs; atoms for ``theory``."""
    if name == "theory":
        return source.n_atoms
    n = source.n if config.dataset is not None else config.n_samples
    n_train = min(n - 1, max(1, int(round(config.train_fraction * n))))
    return (n - n_train) * len(config.methods) * len(jobs(name, config))


def run_grid(name: str, config, source, out_dir: Path) -> None:
    """One closed-loop grid: every job runs after the previous one ends."""
    from plbag import bench_cli, theory

    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "theory":
        (out_dir / "report.txt").write_text(bench_cli.theory_report(source))
        theory.advantage_report(source).write_csv(out_dir / "advantage.csv")
        return
    result = bench_cli.run(config, dump_predictions=DUMP_PREDICTIONS[name])
    bench_cli.emit(result, out_dir, timings=False)


def output_files(name: str) -> list[str]:
    if name == "theory":
        return ["report.txt", "advantage.csv"]
    files = ["results.csv", "summary.csv"]
    if DUMP_PREDICTIONS[name]:
        files.append("predictions.csv")
    return files


def _job_key(noise: str, rep: str) -> str:
    return f"noise={noise} rep={rep}"


def output_digests(name: str, config, out_dir: Path) -> dict[str, str]:
    """sha256 per job of the grid's output bytes, plus one grid-level unit.

    ``results.csv`` and ``predictions.csv`` rows are split by their
    (noise, repetition) columns so a mismatch is charged to the job that
    produced it; ``summary.csv`` (or the theory report) is the ``grid`` unit.
    """
    if name == "theory":
        h = hashlib.sha256()
        for f in output_files(name):
            h.update((out_dir / f).read_bytes())
            h.update(b"\0")
        return {"grid": h.hexdigest()}
    per_job = {_job_key(format(n, ".6g"), str(r)): hashlib.sha256() for n, r in jobs(name, config)}
    digests = {"grid": sha256_file(out_dir / "summary.csv")}
    for f in output_files(name):
        if f == "summary.csv":
            continue
        text = (out_dir / f).read_text()
        body = text.partition("\n")[2]
        for line in io.StringIO(body):
            row = next(csv.reader([line]))
            key = _job_key(row[1], row[2])
            per_job.setdefault(key, hashlib.sha256()).update(f"{f}:{line}".encode())
    digests.update({k: h.hexdigest() for k, h in per_job.items()})
    return digests


def count_failed(expected: dict[str, str], got: dict[str, str], n_jobs: int) -> int:
    """Jobs whose output differs from ``expected``.

    A grid-level mismatch (summary or theory report) fails every job.
    """
    if expected.get("grid") != got.get("grid"):
        return n_jobs
    keys = (set(expected) | set(got)) - {"grid"}
    return min(n_jobs, sum(1 for k in keys if expected.get(k) != got.get(k)))


# -- batch == per-query check -----------------------------------------------


def scalar_mismatches(captured: list[tuple], seed: int, per_call: int = 4) -> int:
    """Calls in which ``classify_batch`` and per-query ``classify`` disagree.

    ``captured`` holds ``(train, index, queries, config)`` of the plaknn
    calls made by one grid; ``per_call`` test points are drawn from each
    with a seeded generator.
    """
    from plbag import plaknn

    rng = np.random.default_rng([seed, 3])
    bad = 0
    for train, index, queries, config in captured:
        pick = np.sort(rng.choice(queries.shape[0], size=min(per_call, queries.shape[0]), replace=False))
        batch = plaknn.classify_batch(train, index, queries[pick], config)
        scalar = np.array([plaknn.classify(train, index, q, config)[0] for q in queries[pick]])
        bad += int(not np.array_equal(batch, scalar))
    return bad
