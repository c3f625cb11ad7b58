"""Batch commands: synth, ingest, hotspots, extract, train, classify, compare,
plotdata. Commands read prior stage outputs from the --out directory and write
their own documented files there; exit codes are 0 success, 1 internal error,
2 input-format error, 3 missing upstream artifact."""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
from datetime import date
from pathlib import Path

from . import synth
from .anomaly import (
    classification_run,
    expected_class_for,
    similarity_matrix,
)
from .baseline import baseline_matrix
from .calibrate import (
    ParamBounds,
    global_training,
    local_training,
    train_pattern_field,
)
from .config import ENV_CONFIG_VAR, PipelineConfig, load_config, write_history_csv
from .hotspot import ConeMark, TimeSlot, check_hotspot_id, extract_hotspots, \
    hotspots_from_geojson, hotspots_to_geojson, relevance_mask, build_slot_trail
from .ingest import BucketGrid, bucketize, hotspot_activity, parse_trips, \
    rejections_to_csv, slot_event_batches
from .perceptron import (
    StigmergicPerceptron,
    load_sp,
    params_from_config,
    params_to_config,
    save_sp,
    transform_many,
)
from .series import (
    CLASS_LETTERS,
    all_archetypes,
    series_from_csv,
    series_to_csv,
)
from .srf import final_trail
from .stigspace import CELL_CENTERS, Trail2D, to_ascii_grid

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_FORMAT = 2
EXIT_MISSING = 3


def _require(path: Path) -> Path:
    if not Path(path).exists():
        raise FileNotFoundError(str(path))
    return Path(path)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


# --- synth -------------------------------------------------------------------

def cmd_synth(cfg: PipelineConfig, args) -> None:
    out = cfg.out_dir
    kinds = {"year", "trips"} if args.kind == "all" else {args.kind}
    if "year" in kinds:
        year = synth.synthetic_year(
            n_days=args.days, anomaly_count=args.anomalies,
            length=cfg.training.day_length, seed=cfg.stage_seed("synth:year"),
            hotspot_id=args.hotspot)
        for day in year.days:
            _write(out / "series" / args.hotspot / f"{day.day_id}.csv",
                   series_to_csv(day))
        _write(out / "labels.csv", year.labels_csv())
        print(f"synth: wrote {len(year.days)} days "
              f"({sum(year.anomaly_flags)} anomalous) under {out / 'series'}")
    if "trips" in kinds:
        text = synth.planted_trips_csv(cfg.box, n_valid=args.valid_rows,
                                       n_invalid=args.invalid_rows,
                                       seed=cfg.stage_seed("synth:trips"))
        _write(out / "trips.csv", text)
        print(f"synth: wrote {out / 'trips.csv'}")


# --- ingest ------------------------------------------------------------------

def cmd_ingest(cfg: PipelineConfig, args) -> None:
    trips = Path(args.trips) if args.trips else (cfg.trips_path or cfg.out_dir / "trips.csv")
    _require(trips)
    records, rejections = parse_trips(trips, cfg.box)
    grid = bucketize(records, cfg.box, cfg.bucket_cell_m, cfg.bucket_minutes)
    _write(cfg.out_dir / "buckets.csv", grid.to_csv())
    _write(cfg.out_dir / "rejections.csv", rejections_to_csv(rejections))
    print(f"ingest: {len(records)} accepted, {len(rejections)} rejected, "
          f"archive {cfg.out_dir / 'buckets.csv'}")


# --- hotspots ----------------------------------------------------------------

def _slot_trails(cfg: PipelineConfig, grid: BucketGrid) -> dict[TimeSlot, Trail2D]:
    hs = cfg.hotspots
    template = Trail2D.for_box(cfg.box.width_m, cfg.box.height_m, hs.trail_cell_m)
    cone = ConeMark((0.0, 0.0), 1.0, hs.cone_base_radius_m, hs.cone_top_radius_m)
    batches = slot_event_batches(grid)
    return {slot: build_slot_trail(batches[slot], hs.trail_delta, template,
                                   cone=cone, smooth_alpha=hs.smooth_alpha,
                                   smooth_beta=hs.smooth_beta,
                                   count_cap=hs.count_cap)
            for slot in TimeSlot}


def cmd_hotspots(cfg: PipelineConfig, args) -> None:
    grid = BucketGrid.from_csv(_require(cfg.out_dir / "buckets.csv").read_text())
    trails = _slot_trails(cfg, grid)
    for slot, trail in trails.items():
        _write(cfg.out_dir / "trails" / f"{slot.value}.asc", to_ascii_grid(trail))
        mask = relevance_mask(trail, cfg.hotspots.relevance_fraction)
        _write(cfg.out_dir / "masks" / f"{slot.value}.asc",
               to_ascii_grid(Trail2D(mask.astype(float), trail.origin, trail.cell_size)))
    found = extract_hotspots(trails, cfg.hotspots.relevance_fraction,
                             cfg.hotspots.min_area_km2)
    _write(cfg.out_dir / "hotspots.geojson", hotspots_to_geojson(found))
    print(f"hotspots: {len(found)} polygon(s) -> {cfg.out_dir / 'hotspots.geojson'}")


# --- extract -----------------------------------------------------------------

def cmd_extract(cfg: PipelineConfig, args) -> None:
    grid = BucketGrid.from_csv(_require(cfg.out_dir / "buckets.csv").read_text())
    found = hotspots_from_geojson(
        _require(cfg.out_dir / "hotspots.geojson").read_text())
    targets = {cfg.out_dir / "series" / h.id / f"{day}.csv":
               series_to_csv(hotspot_activity(grid, h, day, cfg.resolution_minutes))
               for h in found for day in grid.days()}
    # A rerun rewrites the same bytes; any other file there belongs to another
    # source (synth writes its year under series/<hotspot>), so write nothing.
    for path, text in targets.items():
        if path.exists() and path.read_bytes() != text.encode("utf-8"):
            raise ValueError(f"{path} exists with other contents; "
                             "extract would overwrite it")
    for path, text in targets.items():
        _write(path, text)
    print(f"extract: {len(targets)} series under {cfg.out_dir / 'series'}")


# --- train -------------------------------------------------------------------

def _load_series_dir(cfg: PipelineConfig, hotspot_id: str | None):
    root = _require(cfg.out_dir / "series")
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if hotspot_id is not None:
        chosen = root / hotspot_id
        if not chosen.is_dir():
            raise FileNotFoundError(str(chosen))
    elif len(subdirs) == 1:
        chosen = subdirs[0]
    else:
        raise ValueError(f"multiple hotspots under {root}; pass --hotspot")
    days = [series_from_csv(p.read_text()) for p in sorted(chosen.glob("*.csv"))]
    if not days:
        raise FileNotFoundError(f"{chosen}/*.csv")
    return days


def _labelled_levels(cfg: PipelineConfig, hotspot_id: str | None):
    """The trained perceptron's level series of one hotspot's days, with each
    day's weekday class and whether ``labels.csv`` flags it anomalous."""
    days = _load_series_dir(cfg, hotspot_id)
    labels = synth.parse_labels_csv(_require(cfg.out_dir / "labels.csv").read_text())
    flagged = {day_id for day_id, _, flag, _ in labels if flag}
    sp = load_sp(_require(cfg.out_dir / "sp.ini"), cfg.training.day_length)
    levels = transform_many(sp, days)
    classes = [expected_class_for(date.fromisoformat(s.day_id)) for s in levels]
    return levels, classes, [s.day_id in flagged for s in levels]


def _pattern_params_path(cfg: PipelineConfig) -> Path:
    return cfg.out_dir / "pattern.ini"


def cmd_train(cfg: PipelineConfig, args) -> None:
    length = cfg.training.day_length
    sets = synth.archetype_training_sets(length, cfg.training.per_class,
                                         cfg.training.noise, cfg.training.max_shift,
                                         seed=cfg.stage_seed("sp-train"))
    bounds = global_training(all_archetypes(length), sets, ParamBounds.coarse())
    sp, histories = local_training(StigmergicPerceptron.untrained(length), bounds,
                                   cfg.de_for("local"), sets)
    save_sp(sp, cfg.out_dir / "sp.ini")
    for name, history in histories.items():
        write_history_csv(cfg.out_dir / "history" / f"{name}.csv", history)
    d_lo, d_hi = bounds.intervals["delta"]
    print(f"train: perceptron saved to {cfg.out_dir / 'sp.ini'} "
          f"(evaporation interval [{d_lo:.4g}, {d_hi:.4g}])")

    series_root = cfg.out_dir / "series"
    labels_path = cfg.out_dir / "labels.csv"
    if not (series_root.exists() and labels_path.exists()):
        print("train: no series/labels present, skipping pattern-field training")
        return
    by_class: dict[str, list] = {c: [] for c in CLASS_LETTERS}
    for level_series, cls, flag in zip(*_labelled_levels(cfg, args.hotspot)):
        if not flag and len(by_class[cls]) < cfg.training.pattern_per_class:
            by_class[cls].append(level_series)
    params, history = train_pattern_field(by_class, bounds, cfg.de_for("pattern"))
    _write(_pattern_params_path(cfg), params_to_config({"pattern": params}))
    write_history_csv(cfg.out_dir / "history" / "pattern.csv", history)
    print(f"train: pattern field saved to {_pattern_params_path(cfg)}")


# --- classify / compare -------------------------------------------------------

def _classification_run(cfg: PipelineConfig, inputs, matrix_fn, de_stage: str):
    levels, classes, flags = inputs
    return classification_run(levels, classes, flags, matrix_fn=matrix_fn,
                              de_cfg=cfg.de_for(de_stage),
                              reps_k=cfg.training.representatives,
                              cluster_seed=cfg.stage_seed("fcm"))


def _srf_run(cfg: PipelineConfig, args):
    """The classification inputs and their run with the trained pattern field."""
    inputs = _labelled_levels(cfg, args.hotspot)
    text = _require(_pattern_params_path(cfg)).read_text(encoding="utf-8")
    pattern = params_from_config(text, ["pattern"])["pattern"]
    return inputs, _classification_run(
        cfg, inputs, lambda pats: similarity_matrix(pats, pattern), "thresholds")


def report_csv(report) -> str:
    lines = ["day_id,class,anomaly_index,threshold,verdict"]
    for r in report.records:
        lines.append(f"{r.day_id},{r.class_name},{r.anomaly_index:.12g},"
                     f"{r.threshold_used:.12g},{r.verdict}")
    return "\n".join(lines) + "\n"


def cmd_classify(cfg: PipelineConfig, args) -> None:
    _, report = _srf_run(cfg, args)
    _write(cfg.out_dir / "report.csv", report_csv(report))
    _write(cfg.out_dir / "matrix.csv", report.matrix.to_csv())
    print(f"classify: accuracy {report.accuracy:.4f}, "
          f"correlation {report.correlation:.4f} -> {cfg.out_dir / 'report.csv'}")


def cmd_compare(cfg: PipelineConfig, args) -> None:
    inputs, srf = _srf_run(cfg, args)
    runs = {"SRF": srf}
    for method, label in (("dtw", "DTW"), ("frechet", "Frechet")):
        runs[label] = _classification_run(
            cfg, inputs, lambda pats: baseline_matrix(pats, method),
            f"thresholds:{method}")
    lines = ["method,accuracy,correlation"]
    for label in ("SRF", "DTW", "Frechet"):
        r = runs[label]
        lines.append(f"{label},{r.accuracy:.12g},{r.correlation:.12g}")
    _write(cfg.out_dir / "accuracy.csv", "\n".join(lines) + "\n")
    print("compare: " + ", ".join(
        f"{label} {runs[label].accuracy:.4f}" for label in ("SRF", "DTW", "Frechet")))


# --- plotdata ----------------------------------------------------------------

def _archetype_trail_rows(cfg: PipelineConfig) -> str:
    sp = load_sp(_require(cfg.out_dir / "sp.ini"), cfg.training.day_length)
    lines = ["archetype,cell_index,cell_center,intensity"]
    for archetype, params in sp.fields:
        trail = final_trail(archetype.samples, params)
        for i, (center, value) in enumerate(zip(CELL_CENTERS, trail)):
            lines.append(f"{archetype.name},{i},{center:.6g},{value:.6g}")
    return "\n".join(lines) + "\n"


def cmd_plotdata(cfg: PipelineConfig, args) -> None:
    report_path = _require(cfg.out_dir / "report.csv")
    matrix_path = _require(cfg.out_dir / "matrix.csv")
    lines = [ln for ln in report_path.read_text().split("\n") if ln.strip()]
    if not lines or lines[0] != "day_id,class,anomaly_index,threshold,verdict":
        raise ValueError("malformed report.csv header")
    scatter = ["day_index,day_id,anomaly_index,verdict,threshold"]
    for i, line in enumerate(lines[1:]):
        day_id, _, index, threshold, verdict = line.split(",")
        scatter.append(f"{i},{day_id},{index},{verdict},{threshold}")
    _write(cfg.out_dir / "plotdata" / "scatter.csv", "\n".join(scatter) + "\n")
    _write(cfg.out_dir / "plotdata" / "matrix.csv", matrix_path.read_text())
    _write(cfg.out_dir / "plotdata" / "trail_snapshots.csv",
           _archetype_trail_rows(cfg))
    print(f"plotdata: bundles under {cfg.out_dir / 'plotdata'}")


# --- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citytrails")
    parser.add_argument("--config", help="pipeline config file "
                        f"(or ${ENV_CONFIG_VAR})")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic inputs")
    p.add_argument("--kind", choices=("year", "trips", "all"),
                   default="all")
    p.add_argument("--days", type=int, default=364)
    p.add_argument("--anomalies", type=int, default=20)
    p.add_argument("--valid-rows", type=int, default=2000)
    p.add_argument("--invalid-rows", type=int, default=100)
    p.add_argument("--hotspot", default="D")

    p = sub.add_parser("ingest", help="parse and bucketize a trip CSV")
    p.add_argument("--trips", help="trip CSV path (default: config or out/trips.csv)")

    sub.add_parser("hotspots", help="build slot trails and extract hotspots")
    sub.add_parser("extract", help="extract per-hotspot daily activity series")

    p = sub.add_parser("train", help="train the perceptron and pattern field")
    p.add_argument("--hotspot", default=None)

    p = sub.add_parser("classify", help="score days and tune thresholds")
    p.add_argument("--hotspot", default=None)

    p = sub.add_parser("compare", help="accuracy table for SRF, DTW, Frechet")
    p.add_argument("--hotspot", default=None)

    sub.add_parser("plotdata", help="emit plot-ready CSV bundles")
    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "hotspots": cmd_hotspots,
    "extract": cmd_extract,
    "train": cmd_train,
    "classify": cmd_classify,
    "compare": cmd_compare,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "hotspot", None) is not None:
            check_hotspot_id(args.hotspot)
        cfg = load_config(args.config or os.environ.get(ENV_CONFIG_VAR))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=Path(args.out))
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        _HANDLERS[args.command](cfg, args)
        return EXIT_OK
    except FileNotFoundError as exc:
        print(f"error: missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, KeyError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
