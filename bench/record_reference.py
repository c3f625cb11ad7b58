"""Record ``bench/reference.json``: the output summary of one checked pass per
workload, size and seed, on the current commit.

    python3 bench/record_reference.py --seeds 0-19 --tiny-seeds 0-2

A benchmark run compares its first pass with the entry for its seed: exact
outputs must be equal, float outputs equal within the tolerance stated in
``run.py``. Re-recording changes what the benchmark accepts, so it belongs in
a change of its own that says why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run  # sets the BLAS thread cap before NumPy loads
from run import reference_key


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-19"))
    parser.add_argument("--tiny-seeds", type=seed_range, default=seed_range("0-2"))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, make_workload

    reference: dict = {}
    failures = 0
    work = run.OUT_ROOT / "record"
    for size, seeds in (("default", args.seeds), ("tiny", args.tiny_seeds)):
        for name in WORKLOADS:
            workload = make_workload(name, size)
            for seed in seeds:
                shutil.rmtree(work, ignore_errors=True)
                inputs = workload.setup(seed, work / "inputs")
                (work / "out").mkdir(parents=True)
                result = workload.run_pass(inputs, run.NullTracer(), work / "out")
                problems = workload.check(inputs, result, None)
                if hasattr(workload, "cli_check"):
                    problems += workload.cli_check(inputs, work / "out")
                summary = workload.summary(inputs, result, work / "out")
                if problems:
                    failures += 1
                    print(f"{name}/{size}/seed {seed}: not recorded: {problems}",
                          flush=True)
                    continue
                reference[reference_key(name, size, seed)] = summary
                accuracy = {k: v[0] for k, v in summary["float"].items()
                            if k.startswith("accuracy.")}
                print(f"{name}/{size}/seed {seed}: recorded {accuracy or ''}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(reference[key], sort_keys=True)}"
        for key in sorted(reference)) + "\n}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
