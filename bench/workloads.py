"""The benchmark's three workloads.

Each workload makes its inputs from a seed (``setup``), runs one pass of the
package's public calls in the order of a CLI stage chain (``run_pass``),
checks the pass's outputs (``check``) and reduces them to a summary that is
compared exactly (``exact``) or within a tolerance (``float``) against a
reference recorded on the seed commit. Every call into a package module is
wrapped in a tracer span named ``<module>.<function>``.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from citytrails.anomaly import classification_run, similarity_matrix
from citytrails.baseline import baseline_matrix
from citytrails.calibrate import (
    DeConfig,
    ParamBounds,
    global_training,
    local_training,
    train_pattern_field,
)
from citytrails import cli
from citytrails.cli import report_csv
from citytrails.config import load_config, write_history_csv
from citytrails.hotspot import (
    ConeMark,
    TimeSlot,
    build_slot_trail,
    extract_hotspots,
    hotspots_to_geojson,
    relevance_mask,
)
from citytrails.ingest import (
    BucketGrid,
    bucketize,
    hotspot_activity,
    parse_trips,
    rejections_to_csv,
    slot_event_batches,
)
from citytrails.perceptron import (
    FIELD_COUNT,
    StigmergicPerceptron,
    load_sp,
    save_sp,
    transform_many,
)
from citytrails.series import CLASS_LETTERS, all_archetypes, series_from_csv, series_to_csv
from citytrails.srf import PARAM_KEYS, SrfParams
from citytrails.stigspace import Trail2D, to_ascii_grid
from citytrails.synth import (
    archetype_training_sets,
    planted_trips_csv,
    synthetic_year,
)

FIXED_DIR = Path(__file__).resolve().parent / "fixed"
DAY_LENGTH = 144

# Threshold DE and fuzzy c-means seeds of the test suite's year pipeline.
THRESHOLD_DE = DeConfig(seed=13)
CLUSTER_SEED = 4
METHODS = ("srf", "dtw", "frechet")
SRF_ACCURACY_GATE = 0.90     # acceptance criterion 5
SRF_CORRELATION_GATE = 0.8   # acceptance criterion 6

# The hotspot settings of the CLI test suite's tiny config. The package
# defaults find no hotspot in planted_trips_csv data (ROADMAP item 4).
TRIPS_CONFIG = """\
[paths]
out = {out}

[box]
lon_min = -74.02
lon_max = -73.98
lat_min = 40.70
lat_max = 40.74

[grid]
resolution_minutes = 10

[hotspots]
trail_delta = 0.2
min_area_km2 = 0.01
count_cap = 2
smooth_beta = 0.25
"""

SIZES = {
    "year-compare": {
        "default": {"days": 64, "anomalies": 10},
        "tiny": {"days": 35, "anomalies": 9},
    },
    "calibrate": {
        "default": {"per_class": 3, "local_population": 10, "local_generations": 5,
                    "year_days": 56, "year_anomalies": 9, "pattern_per_class": 3,
                    "pattern_population": 12, "pattern_generations": 5},
        "tiny": {"per_class": 2, "local_population": 8, "local_generations": 2,
                 "year_days": 21, "year_anomalies": 0, "pattern_per_class": 2,
                 "pattern_population": 6, "pattern_generations": 2},
    },
    "trips": {
        "default": {"valid_rows": 5000, "invalid_rows": 250, "days": 4, "clusters": 1},
        "tiny": {"valid_rows": 1500, "invalid_rows": 80, "days": 2, "clusters": 1},
    },
}


def sub_seed(seed: int, name: str) -> int:
    """Independent generator seed for one input of a workload."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def cli_days(year) -> list:
    """The year's days with the 12-digit values the CLI reads back from the
    series files ``citytrails synth`` writes."""
    return [series_from_csv(series_to_csv(day)) for day in year.days]


def save_params(path: Path, section: str, params: SrfParams) -> None:
    parser = configparser.ConfigParser()
    parser[section] = {k: repr(v) for k, v in params.to_block().items()}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_params(path: Path, section: str) -> SrfParams:
    parser = configparser.ConfigParser()
    if not parser.read(path, encoding="utf-8"):
        raise FileNotFoundError(str(path))
    return SrfParams(**{k: float(parser[section][k]) for k in PARAM_KEYS})


def fingerprint(values) -> list[float]:
    """Sum and position-weighted sum: a float vector compared by tolerance."""
    v = np.asarray(values, dtype=float).ravel()
    return [float(v.sum()), float(np.dot(np.arange(1, v.size + 1), v))]


def quality_gates(srf_accuracy: float, srf_correlation: float,
                  dtw_accuracy: float) -> dict[str, bool]:
    """The gates of acceptance criteria 5 and 6."""
    return {
        f"srf accuracy >= {SRF_ACCURACY_GATE}": srf_accuracy >= SRF_ACCURACY_GATE,
        f"srf correlation >= {SRF_CORRELATION_GATE}": srf_correlation >= SRF_CORRELATION_GATE,
        "srf >= dtw accuracy": srf_accuracy >= dtw_accuracy,
    }


def non_increasing(history) -> bool:
    return all(b <= a for a, b in zip(history, history[1:]))


def improving_generations(history) -> int:
    return sum(b < a for a, b in zip(history, history[1:]))


# --- year-compare --------------------------------------------------------------

@dataclass
class YearInputs:
    days: list
    classes: list
    flags: list
    sp: StigmergicPerceptron
    pattern: SrfParams


class YearCompare:
    """``citytrails compare`` (plus the files ``classify`` writes) on a
    synthetic year, with fixed trained perceptron and pattern parameters."""

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int, work: Path) -> YearInputs:
        year = synthetic_year(n_days=self.size["days"],
                              anomaly_count=self.size["anomalies"],
                              length=DAY_LENGTH, seed=sub_seed(seed, "year"))
        sp = load_sp(FIXED_DIR / "sp.ini", DAY_LENGTH)
        pattern = load_params(FIXED_DIR / "pattern.ini", "pattern")
        return YearInputs(cli_days(year), list(year.classes), list(year.anomaly_flags),
                          sp, pattern)

    def units(self, inputs: YearInputs) -> int:
        return len(inputs.days)

    def run_pass(self, inputs: YearInputs, tr, out: Path) -> dict:
        with tr.span("perceptron.transform_many"):
            levels = transform_many(inputs.sp, inputs.days)
        matrix_fns = {
            "srf": ("anomaly.similarity_matrix",
                    lambda pats: similarity_matrix(pats, inputs.pattern)),
            "dtw": ("baseline.baseline_matrix.dtw",
                    lambda pats: baseline_matrix(pats, "dtw")),
            "frechet": ("baseline.baseline_matrix.frechet",
                        lambda pats: baseline_matrix(pats, "frechet")),
        }
        reports = {}
        for method in METHODS:
            span_name, fn = matrix_fns[method]
            with tr.span(f"anomaly.classification_run.{method}"):
                reports[method] = classification_run(
                    levels, inputs.classes, inputs.flags,
                    matrix_fn=tr.wrap(span_name, fn),
                    de_cfg=THRESHOLD_DE, cluster_seed=CLUSTER_SEED)
        with tr.span("cli.write"):
            write_text(out / "report.csv", report_csv(reports["srf"]))
            write_text(out / "matrix.csv", reports["srf"].matrix.to_csv())
            lines = ["method,accuracy,correlation"]
            for method, label in zip(METHODS, ("SRF", "DTW", "Frechet")):
                r = reports[method]
                lines.append(f"{label},{r.accuracy:.12g},{r.correlation:.12g}")
            write_text(out / "accuracy.csv", "\n".join(lines) + "\n")
        return {"levels": levels, "reports": reports}

    def check(self, inputs: YearInputs, result: dict, reference: dict | None) -> list[str]:
        failures = []
        for method, report in result["reports"].items():
            values = report.matrix.values
            if not np.array_equal(values, values.T):
                failures.append(f"{method} matrix is not symmetric")
            if not (np.all(values >= 0.0) and np.all(values <= 1.0)):
                failures.append(f"{method} matrix leaves [0, 1]")
        srf, dtw = result["reports"]["srf"], result["reports"]["dtw"]
        met = quality_gates(srf.accuracy, srf.correlation, dtw.accuracy)
        if reference is None:
            # Without the seed commit's result only the two floors are known
            # to be reachable; SRF >= DTW fails on some years at that commit.
            required = {gate: gate != "srf >= dtw accuracy" for gate in met}
        else:
            ref = reference["float"]
            required = quality_gates(ref["accuracy.srf"][0], ref["correlation.srf"][0],
                                     ref["accuracy.dtw"][0])
        failures.extend(
            f"quality gate {gate} failed: srf accuracy {srf.accuracy:.4f}, "
            f"correlation {srf.correlation:.4f}, dtw accuracy {dtw.accuracy:.4f}"
            for gate, ok in met.items() if required[gate] and not ok)
        return failures

    def summary(self, inputs: YearInputs, result: dict, out: Path) -> dict:
        exact, floats = {}, {}
        for method, r in result["reports"].items():
            exact[f"verdicts.{method}"] = "".join(
                "A" if rec.verdict == "anomalous" else "." for rec in r.records)
            exact[f"representatives.{method}"] = {
                c: [int(i) for i in ids] for c, ids in sorted(r.representatives_by_class.items())}
            floats[f"accuracy.{method}"] = [r.accuracy]
            floats[f"correlation.{method}"] = [r.correlation]
            floats[f"thresholds.{method}"] = [r.thresholds[c] for c in CLASS_LETTERS]
            floats[f"indices.{method}"] = fingerprint(r.indices)
        floats["levels"] = fingerprint(np.concatenate([s.levels for s in result["levels"]]))
        return {"exact": exact, "float": floats}

    def counts(self, inputs: YearInputs, result: dict) -> dict:
        n = len(inputs.days)
        reports = result["reports"]
        return {
            "perceptron.days": n,
            "anomaly.pairs": n * (n + 1) // 2,
            "anomaly.srf_accuracy": reports["srf"].accuracy,
            "anomaly.srf_correlation": reports["srf"].correlation,
            "baseline.dtw_accuracy": reports["dtw"].accuracy,
            "baseline.frechet_accuracy": reports["frechet"].accuracy,
        }


# --- calibrate -----------------------------------------------------------------

@dataclass
class CalibrateInputs:
    sets: dict
    days: list
    classes: list
    flags: list


class Calibrate:
    """``citytrails train``: two-phase perceptron training, the year's
    transform and pattern-field training, with their history files."""

    def __init__(self, size: dict):
        self.size = size
        self.local_de = DeConfig(population_size=size["local_population"],
                                 generations=size["local_generations"], seed=5)
        self.pattern_de = DeConfig(population_size=size["pattern_population"],
                                   generations=size["pattern_generations"], seed=7)

    def setup(self, seed: int, work: Path) -> CalibrateInputs:
        sets = archetype_training_sets(DAY_LENGTH, self.size["per_class"],
                                       seed=sub_seed(seed, "sets"))
        year = synthetic_year(n_days=self.size["year_days"],
                              anomaly_count=self.size["year_anomalies"],
                              length=DAY_LENGTH, seed=sub_seed(seed, "year"))
        return CalibrateInputs(sets, cli_days(year), list(year.classes),
                               list(year.anomaly_flags))

    def candidates(self) -> int:
        local = FIELD_COUNT * self.local_de.population_size * (self.local_de.generations + 1)
        pattern = self.pattern_de.population_size * (self.pattern_de.generations + 1)
        return FIELD_COUNT * 30 + local + pattern

    def units(self, inputs: CalibrateInputs) -> int:
        return self.candidates()

    def run_pass(self, inputs: CalibrateInputs, tr, out: Path) -> dict:
        with tr.span("calibrate.global_training"):
            bounds = global_training(all_archetypes(DAY_LENGTH), inputs.sets,
                                     ParamBounds.coarse(), self.local_de)
        with tr.span("calibrate.local_training"):
            sp, histories = local_training(StigmergicPerceptron.untrained(DAY_LENGTH),
                                           bounds, self.local_de, inputs.sets)
        with tr.span("perceptron.transform_many"):
            levels = transform_many(sp, inputs.days)
        by_class = {c: [] for c in CLASS_LETTERS}
        for level_series, cls, flag in zip(levels, inputs.classes, inputs.flags):
            if not flag and len(by_class[cls]) < self.size["pattern_per_class"]:
                by_class[cls].append(level_series)
        with tr.span("calibrate.train_pattern_field"):
            pattern, pattern_history = train_pattern_field(by_class, bounds,
                                                           self.pattern_de)
        with tr.span("cli.write"):
            save_sp(sp, out / "sp.ini")
            for name, history in histories.items():
                write_history_csv(out / "history" / f"{name}.csv", history)
            save_params(out / "pattern.ini", "pattern", pattern)
            write_history_csv(out / "history" / "pattern.csv", pattern_history)
        n_series = sum(len(v) for v in by_class.values())
        return {"bounds": bounds, "sp": sp, "histories": histories,
                "pattern": pattern, "pattern_history": pattern_history,
                "pattern_pairs": n_series * (n_series + 1) // 2}

    def check(self, inputs: CalibrateInputs, result: dict, reference: dict | None) -> list[str]:
        failures = []
        all_histories = dict(result["histories"], pattern=result["pattern_history"])
        for name, history in all_histories.items():
            if not non_increasing(history):
                failures.append(f"{name} history increases")
        lo, hi = np.array(result["bounds"].as_pairs()).T
        fields = [(a.name, p) for a, p in result["sp"].fields]
        for name, params in fields + [("pattern", result["pattern"])]:
            vec = params.to_vector()
            if not (np.all(vec >= lo) and np.all(vec <= hi)):
                failures.append(f"{name} parameters leave the training bounds")
        return failures

    def summary(self, inputs: CalibrateInputs, result: dict, out: Path) -> dict:
        histories = result["histories"]
        return {
            "exact": {"history_lengths": [len(h) for h in histories.values()]
                      + [len(result["pattern_history"])],
                      "pattern_pairs": result["pattern_pairs"]},
            "float": {
                "delta_interval": list(result["bounds"].intervals["delta"]),
                "sp_params": fingerprint([p.to_vector() for _, p in result["sp"].fields]),
                "pattern_params": [float(v) for v in result["pattern"].to_vector()],
                "final_fitness": [h[-1] for h in histories.values()]
                + [result["pattern_history"][-1]],
            },
        }

    def counts(self, inputs: CalibrateInputs, result: dict) -> dict:
        histories = list(result["histories"].values()) + [result["pattern_history"]]
        generations = sum(len(h) - 1 for h in histories)
        return {
            "perceptron.days": len(inputs.days),
            "calibrate.local_generations": FIELD_COUNT * (self.local_de.generations + 1),
            "calibrate.pattern_generations": self.pattern_de.generations + 1,
            "calibrate.candidates": self.candidates(),
            "calibrate.pattern_pairs": result["pattern_pairs"],
            "calibrate.improving_generation_ratio":
                sum(improving_generations(h) for h in histories) / generations,
            "calibrate.perceptron_mse":
                float(np.mean([h[-1] for h in result["histories"].values()])),
            "calibrate.pattern_mse": result["pattern_history"][-1],
        }


# --- trips ---------------------------------------------------------------------

@dataclass
class TripsInputs:
    csv_path: Path
    config_path: Path
    cfg: object
    rows: int


class Trips:
    """``citytrails ingest``, ``hotspots`` and ``extract`` on a planted trip CSV.

    The chain stops at ``extract``: the label-free ``classify`` path exits 2
    or 3 (ROADMAP item 4).
    """

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int, work: Path) -> TripsInputs:
        config_path = work / "pipeline.ini"
        write_text(config_path, TRIPS_CONFIG.format(out=work / "cli-out"))
        cfg = load_config(config_path)
        text = planted_trips_csv(cfg.box, n_valid=self.size["valid_rows"],
                                 n_invalid=self.size["invalid_rows"],
                                 n_clusters=self.size["clusters"],
                                 days=self.size["days"], seed=sub_seed(seed, "trips"))
        csv_path = work / "trips.csv"
        write_text(csv_path, text)
        return TripsInputs(csv_path, config_path, cfg,
                           self.size["valid_rows"] + self.size["invalid_rows"])

    def units(self, inputs: TripsInputs) -> int:
        return inputs.rows

    def cli_check(self, inputs: TripsInputs, out: Path) -> list[str]:
        """Run the CLI stages on the same CSV and config; every artifact the
        pass wrote must be byte-identical to the CLI's."""
        config = ["--config", str(inputs.config_path)]
        stages = (["ingest", "--trips", str(inputs.csv_path)], ["hotspots"], ["extract"])
        with redirect_stdout(io.StringIO()):
            codes = [cli.main(config + stage) for stage in stages]
        if any(codes):
            return [f"citytrails ingest/hotspots/extract exit codes {codes}"]
        cli_out = inputs.cfg.out_dir
        ours = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        theirs = sorted(p.relative_to(cli_out) for p in cli_out.rglob("*") if p.is_file())
        if ours != theirs:
            return [f"artifact sets differ from the CLI's: "
                    f"{sorted(set(map(str, ours)) ^ set(map(str, theirs)))}"]
        return [f"{rel} differs from the CLI's" for rel in ours
                if (out / rel).read_bytes() != (cli_out / rel).read_bytes()]

    def run_pass(self, inputs: TripsInputs, tr, out: Path) -> dict:
        cfg = inputs.cfg
        hs = cfg.hotspots
        with tr.span("ingest.parse_trips"):
            records, rejections = parse_trips(inputs.csv_path, cfg.box)
        with tr.span("ingest.bucketize"):
            grid = bucketize(records, cfg.box, cfg.bucket_cell_m, cfg.bucket_minutes)
        with tr.span("ingest.archive_roundtrip"):
            archive = grid.to_csv()
        with tr.span("cli.write"):
            write_text(out / "buckets.csv", archive)
            write_text(out / "rejections.csv", rejections_to_csv(rejections))
        with tr.span("ingest.archive_roundtrip"):
            grid = BucketGrid.from_csv((out / "buckets.csv").read_text(encoding="utf-8"))

        template = Trail2D.for_box(cfg.box.width_m, cfg.box.height_m, hs.trail_cell_m)
        cone = ConeMark((0.0, 0.0), 1.0, hs.cone_base_radius_m, hs.cone_top_radius_m)
        with tr.span("ingest.slot_event_batches"):
            batches = slot_event_batches(grid)
        trails = {}
        for slot in TimeSlot:
            with tr.span("hotspot.build_slot_trail"):
                trails[slot] = build_slot_trail(
                    batches[slot], hs.trail_delta, template, cone=cone,
                    smooth_alpha=hs.smooth_alpha, smooth_beta=hs.smooth_beta,
                    count_cap=hs.count_cap)
        with tr.span("cli.write"):
            for slot, trail in trails.items():
                write_text(out / "trails" / f"{slot.value}.asc", to_ascii_grid(trail))
                mask = relevance_mask(trail, hs.relevance_fraction)
                write_text(out / "masks" / f"{slot.value}.asc",
                           to_ascii_grid(Trail2D(mask.astype(float), trail.origin,
                                                 trail.cell_size)))
        with tr.span("hotspot.extract_hotspots"):
            found = extract_hotspots(trails, hs.relevance_fraction, hs.min_area_km2)
        with tr.span("cli.write"):
            write_text(out / "hotspots.geojson", hotspots_to_geojson(found))

        series = []
        for h in found:
            for day in grid.days():
                with tr.span("ingest.hotspot_activity"):
                    a = hotspot_activity(grid, h, day, cfg.resolution_minutes)
                with tr.span("cli.write"):
                    write_text(out / "series" / h.id / f"{day}.csv", series_to_csv(a))
                series.append(a)
        return {"records": records, "rejections": rejections, "grid": grid,
                "events": sum(len(b.events) for v in batches.values() for b in v),
                "trails": trails, "hotspots": found, "series": series}

    def check(self, inputs: TripsInputs, result: dict, reference: dict | None) -> list[str]:
        failures = []
        accepted, rejected = len(result["records"]), len(result["rejections"])
        if accepted + rejected != inputs.rows:
            failures.append(f"{accepted} accepted + {rejected} rejected "
                            f"!= {inputs.rows} input rows")
        passengers = sum(r.passenger_count for r in result["records"])
        if result["grid"].total_mass() != 2 * passengers:
            failures.append(f"bucket mass {result['grid'].total_mass()} "
                            f"!= 2 x {passengers} passengers")
        if not result["hotspots"]:
            failures.append("no hotspot found")
        return failures

    def summary(self, inputs: TripsInputs, result: dict, out: Path) -> dict:
        grid = result["grid"]
        polygons = {h.id: [[float(x), float(y)] for x, y in h.polygon]
                    for h in result["hotspots"]}
        return {
            "exact": {
                "rows_accepted": len(result["records"]),
                "rows_rejected": len(result["rejections"]),
                "bucket_keys": len(grid.counts),
                "buckets_sha256": sha256(out / "buckets.csv"),
                "rejections_sha256": sha256(out / "rejections.csv"),
                "polygons_sha256": hashlib.sha256(
                    json.dumps(polygons, sort_keys=True).encode()).hexdigest(),
                "slot_coverage": {h.id: list(h.slot_coverage) for h in result["hotspots"]},
                "series": len(result["series"]),
            },
            "float": {
                "trail_sums": [float(t.cells.sum()) for t in result["trails"].values()],
                "series": fingerprint(np.concatenate([a.samples for a in result["series"]])),
            },
        }

    def counts(self, inputs: TripsInputs, result: dict) -> dict:
        accepted, rejected = len(result["records"]), len(result["rejections"])
        return {
            "ingest.rows": inputs.rows,
            "ingest.rows_accepted": accepted,
            "ingest.rows_rejected": rejected,
            "ingest.accept_ratio": accepted / (accepted + rejected),
            "ingest.bucket_keys": len(result["grid"].counts),
            "ingest.series": len(result["series"]),
            "hotspot.events": result["events"],
            "hotspot.polygons": len(result["hotspots"]),
        }


WORKLOADS = {"year-compare": YearCompare, "calibrate": Calibrate, "trips": Trips}


def make_workload(name: str, size: str):
    return WORKLOADS[name](SIZES[name][size])

