"""Smoke test of the benchmark command.

Runs every workload of ``BENCHMARK.json`` for one second at tiny sizes,
untraced and traced, then once at the default size on a second seed. Each run
must exit 0, report ``correct``, and print exactly the declared end-to-end
(untraced) or per-layer (traced) metrics with their declared units.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECOND_SEED = 1


def check_run(spec: dict, workload: str, seed: int, trace: int, size: str) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    label = f"{workload} size={size} seed={seed} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(declared))}")
    print(f"{label}: {'ok' if not problems else 'FAILED'} "
          f"({result['attempted']} passes)", flush=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, 0, trace, "tiny")
        problems += check_run(spec, workload, SECOND_SEED, 0, "default")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
