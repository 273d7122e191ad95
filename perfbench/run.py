"""Seeded end-to-end and per-layer benchmark for ``bench run`` and ``bench theory``.

Run from the repository root::

    python3 perfbench/run.py --workload clusters --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes a separate traced run
that reports the per-layer metrics.  A run manifest (commit, versions, BLAS
threads, machine, seed, samples, trace overhead) and, for traced runs, the
recorded spans are written under ``.perfbench_out/<workload>/trace<t>/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported anywhere in this
# process or its children: every workload is single-threaded by design.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import manifest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0  # the seed whose outputs are pinned in reference.json
SETUP_SHARE = 0.1  # share of the measuring window spent timing set-ups
MIN_SETUP_PROBES = 3

END_TO_END_UNITS = {"grid_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


class SetupProbe:
    """Times cold set-ups, each in a fresh interpreter (see setup_probe.py).

    Probes are spread over the whole measuring window, between grids, so
    ``setup_s`` sees the same machine as ``grid_s`` does.
    """

    def __init__(self, workload: str, inputs: workloads.Inputs) -> None:
        self.args = [
            sys.executable,
            str(HERE / "setup_probe.py"),
            workload,
            str(inputs.config or ""),
            str(inputs.data or ""),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []
        self.wall = 0.0  # wall time spent probing, interpreter start-up included

    def catch_up(self, elapsed: float) -> None:
        """Probe until probing has taken ``SETUP_SHARE`` of ``elapsed``."""
        while len(self.samples) < MIN_SETUP_PROBES or self.wall < SETUP_SHARE * elapsed:
            started = time.perf_counter()
            out = subprocess.run(self.args, env=self.env, capture_output=True, text=True, timeout=120, check=True)
            self.samples.append(float(out.stdout.strip().splitlines()[-1]))
            self.wall += time.perf_counter() - started


class Checker:
    """Counts attempted and failed jobs against the reference outputs.

    The first grid of a run is the rerun reference.  At the default seed the
    generated inputs and every grid must also match the digests committed in
    ``reference.json``.
    """

    def __init__(self, workload: str, config, seed: int, inputs: dict[str, str] | None = None) -> None:
        self.workload = workload
        self.config = config
        self.n_jobs = len(workloads.jobs(workload, config))
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] | None = None
        self.pinned: dict[str, str] | None = None
        if seed == DEFAULT_SEED:
            ref = json.loads((HERE / "reference.json").read_text())["workloads"][workload]
            self.pinned = ref["outputs"]
            self.unit(ref["inputs"] == inputs)

    def grid(self, out_dir: Path, error: BaseException | None) -> None:
        self.attempted += self.n_jobs
        if error is not None:
            self.failed += self.n_jobs
            return
        got = workloads.output_digests(self.workload, self.config, out_dir)
        if self.first is None:
            self.first = got
        expected = self.pinned if self.pinned is not None else self.first
        self.failed += workloads.count_failed(expected, got, self.n_jobs)

    def unit(self, ok: bool) -> None:
        """One extra checked unit, e.g. a batch-vs-scalar comparison."""
        self.attempted += 1
        self.failed += int(not ok)


def timed_grid(workload: str, config, source, out_dir: Path, checker: Checker) -> float | None:
    """Wall time of one grid including emit, then its check; None if it raised."""
    started = time.perf_counter()
    try:
        workloads.run_grid(workload, config, source, out_dir)
    except Exception as exc:  # a failing job is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        checker.grid(out_dir, exc)
        return None
    elapsed = time.perf_counter() - started
    checker.grid(out_dir, None)
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, time and check grids for ``seconds``; returns (checker, metrics, record).

    The window is filled with rounds.  An untraced round is set-up probes
    (``--trace 0`` only) and one grid; a traced round adds a traced set-up
    + grid.  Rounds run while the next one, at the median round time, is
    expected to end within ``seconds``.
    """
    inputs = workloads.generate(workload, seed, work / "inputs")
    record: dict = {"inputs": workloads.input_digests(inputs)}
    metrics: dict[str, float] = {}
    config, source = workloads.setup(workload, inputs)
    checker = Checker(workload, config, seed, record["inputs"])
    out_dir = work / "outputs"
    probe = None if trace else SetupProbe(workload, inputs)

    plain: list[float] = []  # untraced grid times
    traced: list[float] = []  # traced grid times (traced runs only)
    layers: list[dict[str, float]] = []
    rounds: list[float] = []
    captured: list = []  # plaknn call arguments of the first grid
    last_tracer = None
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started + _median(rounds) <= seconds:
        round_started = time.perf_counter()
        if probe is not None:
            probe.catch_up(round_started - started)
        # The first grid is the rerun reference and keeps every plaknn
        # call's arguments for the batch-vs-scalar check below.
        with spans.capture_plaknn_calls(captured) if not rounds else contextlib.nullcontext():
            t = timed_grid(workload, config, source, out_dir, checker)
        if t is not None:
            plain.append(t)
        if trace:
            tracer = spans.Tracer()
            with tracer.installed():
                tracer.job = "setup"
                workloads.setup(workload, inputs)
                tracer.job = "grid"  # bench run jobs then set their own (noise, rep) id
                t = timed_grid(workload, config, source, out_dir, checker)
            if t is not None:
                traced.append(t)
                layers.append(spans.layer_metrics(tracer))
                last_tracer = tracer
        rounds.append(time.perf_counter() - round_started)
    if workload != "theory":
        checker.unit(bool(captured) and workloads.scalar_mismatches(captured, seed) == 0)

    record["grid_samples_s"] = plain
    if probe is not None:
        record["setup_samples_s"] = probe.samples
        metrics["setup_s"] = _median(probe.samples)
    if not plain:
        return checker, metrics, record
    grid_s = _median(plain)
    if not trace:
        metrics["grid_s"] = grid_s
        metrics["queries_per_s"] = workloads.queries_per_grid(workload, config, source) / grid_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return checker, metrics, record

    record["traced_grid_samples_s"] = traced
    if layers:
        record["counts_repeat"] = all(
            layer[k] == layers[0][k] for layer in layers for k in spans.EXACT_METRICS
        )
        for key in layers[0]:
            metrics[key] = _median([layer[key] for layer in layers])
        metrics["trace_overhead_frac"] = _median(traced) / grid_s - 1.0
        last_tracer.write(work / "spans.jsonl.gz")
    return checker, metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "plbag" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_out" / args.workload / f"trace{args.trace}"
    checker, metrics, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    record.update(
        manifest.describe(ROOT, SRC, args.workload, args.seed, args.seconds, args.trace),
        attempted=checker.attempted,
        failed=checker.failed,
        failed_frac=checker.failed / checker.attempted,
        metrics=metrics,
    )
    (work / "manifest.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    units = END_TO_END_UNITS if not args.trace else {k: u for k, (u, _) in spans.PER_LAYER.items()}
    if set(metrics) != set(units):
        print(f"error: no measurement for {sorted(set(units) - set(metrics))}", file=sys.stderr)
        return 1
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
