"""citytrails benchmark: one workload, one process, one pass at a time.

    python3 bench/run.py --workload {year-compare,calibrate,trips} \
        --seed N --seconds S --trace {0,1} [--size {default,tiny}]

Run from the repository root; the package is imported from ``src/``. The
inputs are made from ``--seed``, then passes run back to back (a closed loop
with one client) until ``--seconds`` have passed. Every pass's outputs are
checked, and the first pass's are compared with ``bench/reference.json``
when it holds the seed. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
of ``BENCHMARK.json`` under ``--trace 0`` and its per-layer metrics under
``--trace 1``. The traced run alternates untraced and traced passes; spans,
the run manifest and the metrics are written to ``.bench_out/``. The exit
code is 0 when every check passed and 1 otherwise. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads; recorded in the run manifest.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc malloc settings, recorded in the run manifest. glibc reads them only at
# process start, so the command re-executes itself once with them set. At the
# defaults, each NumPy temporary above the adaptive mmap threshold is unmapped
# when freed and faulted in again by the next pass (bench/README.md).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(16 << 30)}

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

# Before each pass, setup repeats until this much time has passed (at least
# once), so its samples spread over the run like the passes do. The first
# setup warms up and is not timed into the median.
SETUP_BATCH_SECONDS = 0.15
# Float outputs must match the reference within this tolerance; float32 trails
# (ROADMAP item 2) differ by about 2e-7 relative.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

# Per-unit layer metrics: (span, count, scale).
PER_UNIT = {
    "ingest.parse_trips.us_per_row": ("ingest.parse_trips", "ingest.rows", 1e6),
    "ingest.hotspot_activity.ms_per_series":
        ("ingest.hotspot_activity", "ingest.series", 1e3),
    "hotspot.build_slot_trail.us_per_event":
        ("hotspot.build_slot_trail", "hotspot.events", 1e6),
    "perceptron.transform_many.ms_per_day":
        ("perceptron.transform_many", "perceptron.days", 1e3),
    "anomaly.similarity_matrix.us_per_pair":
        ("anomaly.similarity_matrix", "anomaly.pairs", 1e6),
    "baseline.us_per_pair.dtw": ("baseline.baseline_matrix.dtw", "anomaly.pairs", 1e6),
    "baseline.us_per_pair.frechet":
        ("baseline.baseline_matrix.frechet", "anomaly.pairs", 1e6),
    "calibrate.local_training.ms_per_generation":
        ("calibrate.local_training", "calibrate.local_generations", 1e3),
    "calibrate.train_pattern_field.ms_per_generation":
        ("calibrate.train_pattern_field", "calibrate.pattern_generations", 1e3),
}


class Tracer:
    """Spans of one pass, kept in memory: name, start, end, parent index."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


class NullTracer:
    """The untraced run: no spans, no clock reads."""

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn


def layer_metrics(tracer: Tracer, counts: dict, names) -> dict:
    """Per-layer metrics of one traced pass; 0 for a layer it did not reach."""
    totals: dict[str, float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        totals[name] += end - start
        if parent is not None:
            covered[parent] += end - start
    self_times: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(tracer.spans):
        self_times[name] += end - start - covered[index]

    out = {}
    for metric in names:
        if metric in PER_UNIT:
            span, count, scale = PER_UNIT[metric]
            n = counts.get(count, 0)
            out[metric] = totals[span] / n * scale if n else 0.0
        elif metric == "anomaly.classification_run.self_s":
            out[metric] = sum(v for k, v in self_times.items()
                              if k.startswith("anomaly.classification_run."))
        elif metric == "run.self_s":
            out[metric] = self_times["run"]
        elif metric.endswith(".s"):
            out[metric] = totals[metric[:-2]]
        else:
            out[metric] = counts.get(metric, 0)
    return out


def reference_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def compare_reference(reference: dict, summary: dict) -> list[str]:
    """Exact outputs must equal the reference; float outputs must match it
    within FLOAT_RTOL/FLOAT_ATOL."""
    import numpy as np

    problems = []
    if set(reference["exact"]) != set(summary["exact"]):
        problems.append("exact output keys differ from the reference")
    for key, expected in reference["exact"].items():
        if summary["exact"].get(key) != expected:
            problems.append(f"{key} differs from the reference")
    if set(reference["float"]) != set(summary["float"]):
        problems.append("float output keys differ from the reference")
    for key, expected in reference["float"].items():
        got = summary["float"].get(key, [])
        if len(got) != len(expected) or not np.allclose(got, expected, rtol=FLOAT_RTOL,
                                                        atol=FLOAT_ATOL):
            problems.append(f"{key} differs from the reference beyond "
                            f"rtol={FLOAT_RTOL} atol={FLOAT_ATOL}")
    return problems


def git_sha() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {k: blas.get(k) for k in ("name", "version")}


def manifest(args, workload, passes: int, setups: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "sizes": workload.size, "seconds": args.seconds, "trace": args.trace,
        "passes": passes, "setups": setups,
        "loop": "closed, one client, one pass at a time",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(), "blas_threads": BLAS_THREADS,
        "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
        "git_sha": git_sha(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("year-compare", "calibrate", "trips"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    return parser.parse_args(argv)


def run(args, spec: dict) -> int:
    from workloads import make_workload

    workload = make_workload(args.workload, args.size)
    work = OUT_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    inputs_dir, out = work / "inputs", work / "out"
    try:
        setup_times = []

        def set_up():
            batch_start = time.perf_counter()
            while True:
                shutil.rmtree(inputs_dir, ignore_errors=True)
                start = time.perf_counter()
                inputs = workload.setup(args.seed, inputs_dir)
                setup_times.append(time.perf_counter() - start)
                if time.perf_counter() - batch_start >= SETUP_BATCH_SECONDS:
                    return inputs

        references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference = references.get(reference_key(args.workload, args.size, args.seed))
        problems: list[str] = []
        if reference is None:
            print(f"note: no reference for {args.workload}/{args.size}/seed {args.seed}; "
                  "checking invariants only")

        walls = {False: [], True: []}
        cpus = []
        layers = []
        spans = []
        first_summary = None
        attempted = failed = 0
        # Pass 1 warms up: it is checked but not timed. The traced run then
        # alternates untraced and traced passes.
        min_passes = 3 if args.trace else 2
        deadline = time.perf_counter() + args.seconds
        last_wall = 0.0
        # Start a pass only if it should end before the deadline plus half a pass.
        while attempted < min_passes or time.perf_counter() + last_wall / 2 < deadline:
            warmup = attempted == 0
            traced = bool(args.trace) and attempted % 2 == 0 and not warmup
            inputs = set_up()
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            tracer = Tracer() if traced else NullTracer()
            attempted += 1
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                with tracer.span("run"):
                    result = workload.run_pass(inputs, tracer, out)
            except Exception:
                failed += 1
                problems.append("pass raised:\n" + traceback.format_exc())
                break
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            last_wall = wall

            pass_problems = workload.check(inputs, result, reference)
            summary = json.loads(json.dumps(workload.summary(inputs, result, out)))
            if first_summary is None:
                first_summary = summary
                if reference is not None:
                    pass_problems += compare_reference(reference, summary)
            elif summary != first_summary:
                pass_problems.append("outputs differ from the first pass")
            if pass_problems:
                failed += 1
                problems.extend(pass_problems)
                continue
            if warmup:
                continue
            walls[traced].append(wall)
            if traced:
                layers.append(layer_metrics(tracer, workload.counts(inputs, result),
                                            [m["name"] for m in spec["per_layer"]]))
                spans.append(tracer.spans)
            else:
                cpus.append(cpu)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if hasattr(workload, "cli_check") and not failed:
            problems.extend(workload.cli_check(inputs, out))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and bool(walls[False]) and (not args.trace or bool(layers))
    metrics = {}
    if correct:
        run_s = statistics.median(walls[False])
        if args.trace:
            values = {name: statistics.median(layer[name] for layer in layers)
                      for name in layers[0]}
            values["run.cpu_s"] = statistics.median(cpus)
            values["trace_overhead_s"] = statistics.median(walls[True]) - run_s
            declared = spec["per_layer"]
        else:
            values = {"setup_s": statistics.median(setup_times[1:]), "run_s": run_s,
                      "peak_rss_mb": peak_rss_mb,
                      "throughput_per_s": workload.units(inputs) / run_s}
            declared = spec["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise RuntimeError(f"metrics not computed: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}

    info = manifest(args, workload, attempted, len(setup_times))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("manifest " + json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    OUT_ROOT.mkdir(exist_ok=True)
    record = OUT_ROOT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"manifest": info, "problems": problems,
                                  "setup_s": setup_times, "walls": walls[False],
                                  "traced_walls": walls[True], "metrics": metrics,
                                  "spans": spans}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "citytrails").is_dir():
        print(f"error: package source {SRC / 'citytrails'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run(args, spec)


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                 + sys.argv[1:])
    sys.exit(main())
