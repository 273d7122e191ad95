"""Write ``perfbench/reference.json``: digests of every workload's inputs and
outputs at the default seed, as produced by the current package.

Run from the repository root with ``python3 perfbench/make_reference.py``.
Regenerate only when a change is meant to alter seeded results; the
benchmark counts every job whose output differs from these digests as
failed.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads and puts the package on the path first
import workloads


def main() -> int:
    work = run.ROOT / ".perfbench_out" / "reference"
    out = {"default_seed": run.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        inputs = workloads.generate(name, run.DEFAULT_SEED, work / name / "inputs")
        config, source = workloads.setup(name, inputs)
        workloads.run_grid(name, config, source, work / name / "outputs")
        out["workloads"][name] = {
            "inputs": workloads.input_digests(inputs),
            "outputs": workloads.output_digests(name, config, work / name / "outputs"),
        }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
