"""Batch commands: synth, ingest, hotspots, extract, train, classify, compare,
plotdata. Commands read prior stage outputs from the --out directory and write
their own documented files there; exit codes are 0 success, 1 internal error,
2 input-format error, 3 missing upstream artifact."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import synth
from .anomaly import (
    classification_run,
    expected_class_for,
    similarity_matrix,
)
from .baseline import baseline_matrix
from .calibrate import pattern_training_sets, train_pattern_field, train_perceptron
from .config import ENV_CONFIG_VAR, PipelineConfig, load_config, write_history_csv
from .hotspot import ConeMark, TimeSlot, check_hotspot_id, extract_hotspots, \
    hotspots_from_geojson, hotspots_to_geojson, relevance_mask, build_slot_trail
from .ingest import BucketGrid, bucketize, hotspot_activity, parse_trips, \
    rejections_to_csv, slot_event_batches
from .perceptron import load_sp, params_from_config, params_to_config, save_sp, \
    transform_many
from .series import framed_csv, iso_date, read_artifact, read_framed_csv, series_from_csv, \
    series_to_csv, write_artifact
from .srf import final_trail
from .stigspace import CELL_CENTERS, Trail2D, to_ascii_grid

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_FORMAT = 2
EXIT_MISSING = 3

REPORT_HEADER = "day_id,class,anomaly_index,threshold,verdict"


# --- synth -------------------------------------------------------------------

def cmd_synth(cfg: PipelineConfig, args) -> None:
    out = cfg.out_dir
    kinds = {"year", "trips"} if args.kind == "all" else {args.kind}
    if "year" in kinds:
        year = synth.synthetic_year(
            n_days=args.days, anomaly_count=args.anomalies,
            length=cfg.day_length, seed=cfg.stage_seed("synth:year"),
            hotspot_id=args.hotspot)
        for day in year.days:
            day = dataclasses.replace(day, resolution_minutes=cfg.resolution_minutes)
            write_artifact(out / "series" / args.hotspot / f"{day.day_id}.csv",
                           series_to_csv(day))
        write_artifact(out / "labels.csv", year.labels_csv())
        print(f"synth: wrote {len(year.days)} days "
              f"({sum(year.anomaly_flags)} anomalous) under {out / 'series'}")
    if "trips" in kinds:
        text = synth.planted_trips_csv(cfg.box, n_valid=args.valid_rows,
                                       n_invalid=args.invalid_rows,
                                       seed=cfg.stage_seed("synth:trips"))
        write_artifact(out / "trips.csv", text)
        print(f"synth: wrote {out / 'trips.csv'}")


# --- ingest ------------------------------------------------------------------

def cmd_ingest(cfg: PipelineConfig, args) -> None:
    trips = Path(args.trips) if args.trips else (cfg.trips_path or cfg.out_dir / "trips.csv")
    records, rejections = read_artifact(trips, lambda p: parse_trips(p, cfg.box),
                                        stream=True)
    grid = bucketize(records, cfg.box, cfg.bucket_cell_m, cfg.bucket_minutes)
    write_artifact(cfg.out_dir / "buckets.csv", grid.to_csv())
    write_artifact(cfg.out_dir / "rejections.csv", rejections_to_csv(rejections))
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
    grid = read_artifact(cfg.out_dir / "buckets.csv", BucketGrid.from_csv)
    trails = _slot_trails(cfg, grid)
    for slot, trail in trails.items():
        write_artifact(cfg.out_dir / "trails" / f"{slot.value}.asc", to_ascii_grid(trail))
        mask = relevance_mask(trail, cfg.hotspots.relevance_fraction)
        write_artifact(cfg.out_dir / "masks" / f"{slot.value}.asc", to_ascii_grid(
            Trail2D(mask.astype(float), trail.origin, trail.cell_size)))
    found = extract_hotspots(trails, cfg.hotspots.relevance_fraction,
                             cfg.hotspots.min_area_km2)
    write_artifact(cfg.out_dir / "hotspots.geojson", hotspots_to_geojson(found))
    print(f"hotspots: {len(found)} polygon(s) -> {cfg.out_dir / 'hotspots.geojson'}")


# --- extract -----------------------------------------------------------------

def cmd_extract(cfg: PipelineConfig, args) -> None:
    grid = read_artifact(cfg.out_dir / "buckets.csv", BucketGrid.from_csv)
    found = read_artifact(cfg.out_dir / "hotspots.geojson", hotspots_from_geojson)
    targets = {cfg.out_dir / "series" / h.id / f"{day}.csv":
               series_to_csv(hotspot_activity(grid, h, day, cfg.resolution_minutes))
               for h in found for day in grid.days()}
    # A rerun rewrites the same bytes; anything else there, a directory at the
    # path or a regular file above it too, belongs to another source (synth
    # writes its year under series/<hotspot>).
    for path, text in targets.items():
        try:
            same = path.read_bytes() == text.encode("utf-8")
        except FileNotFoundError:
            continue
        except (IsADirectoryError, NotADirectoryError):
            same = False
        if not same:
            raise ValueError(f"{path} exists with other contents; "
                             "extract would overwrite it")
    for path, text in targets.items():
        write_artifact(path, text)
    print(f"extract: {len(targets)} series under {cfg.out_dir / 'series'}")


# --- train -------------------------------------------------------------------

def _load_series_dir(cfg: PipelineConfig, hotspot_id: str | None):
    root = cfg.out_dir / "series"
    if not root.is_dir():
        raise FileNotFoundError(str(root))
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if hotspot_id is not None:
        chosen = root / hotspot_id
        if not chosen.is_dir():
            raise FileNotFoundError(str(chosen))
    elif len(subdirs) == 1:
        chosen = subdirs[0]
    else:
        raise ValueError(f"multiple hotspots under {root}; pass --hotspot")
    days = []
    # Every day must lie on the [grid] day the archetypes are built for; a
    # file from another grid would otherwise be read as if it lay on this one.
    for path in sorted(chosen.glob("*.csv")):
        day = read_artifact(path, series_from_csv)
        if (len(day), day.resolution_minutes) != (cfg.day_length, cfg.resolution_minutes):
            raise ValueError(f"{path} has {len(day)} samples headed resolution_minutes="
                             f"{day.resolution_minutes}, but the [grid] day has "
                             f"{cfg.day_length} at resolution_minutes = {cfg.resolution_minutes}")
        if (day.day_id, day.hotspot_id) != (path.stem, chosen.name):
            raise ValueError(f"{path} is headed day_id={day.day_id}, hotspot_id="
                             f"{day.hotspot_id}, but lies at {chosen.name}/{path.stem}")
        days.append(day)
    if not days:
        raise FileNotFoundError(f"{chosen}/*.csv")
    return days


def _labelled_days(cfg: PipelineConfig, hotspot_id: str | None):
    """One hotspot's days, with each day's weekday class and whether
    ``labels.csv`` flags it anomalous; every day needs its row there."""
    days = _load_series_dir(cfg, hotspot_id)
    path = cfg.out_dir / "labels.csv"
    flags = read_artifact(path, synth.parse_labels_csv)
    unlabelled = next((s.day_id for s in days if s.day_id not in flags), None)
    if unlabelled is not None:
        raise ValueError(f"{path} has no row for series day {unlabelled}")
    classes = [expected_class_for(iso_date(s.day_id)) for s in days]
    return days, classes, [flags[s.day_id] for s in days]


def _labelled_levels(cfg: PipelineConfig, labelled):
    """The trained perceptron's level series of ``_labelled_days``' days."""
    days, classes, flags = labelled
    sp = load_sp(cfg.out_dir / "sp.ini", cfg.day_length)
    return transform_many(sp, days), classes, flags


def cmd_train(cfg: PipelineConfig, args) -> None:
    length = cfg.day_length
    # Resolve the pattern field's days first, so that a bad series directory
    # fails before any DE runs and before sp.ini is written.
    absent = [str(p) for p in (cfg.out_dir / "series", cfg.out_dir / "labels.csv")
              if not p.exists()]
    labelled = None if absent else _labelled_days(cfg, args.hotspot)
    sets = synth.archetype_training_sets(length, cfg.training.per_class,
                                         cfg.training.noise, cfg.training.max_shift,
                                         seed=cfg.stage_seed("sp-train"))
    sp, bounds, histories = train_perceptron(sets, length, cfg.de_for("local"))
    save_sp(sp, cfg.out_dir / "sp.ini")
    for name, history in histories.items():
        write_history_csv(cfg.out_dir / "history" / f"{name}.csv", history)
    d_lo, d_hi = bounds.intervals["delta"]
    print(f"train: perceptron saved to {cfg.out_dir / 'sp.ini'} "
          f"(evaporation interval [{d_lo:.4g}, {d_hi:.4g}])")

    if labelled is None:
        print(f"train: no {' or '.join(absent)}, skipping pattern-field training")
        return
    by_class = pattern_training_sets(*_labelled_levels(cfg, labelled),
                                     cfg.training.pattern_per_class)
    params, history = train_pattern_field(by_class, bounds, cfg.de_for("pattern"))
    write_artifact(cfg.out_dir / "pattern.ini", params_to_config({"pattern": params}))
    write_history_csv(cfg.out_dir / "history" / "pattern.csv", history)
    print(f"train: pattern field saved to {cfg.out_dir / 'pattern.ini'}")


# --- classify / compare -------------------------------------------------------

def _classification_run(cfg: PipelineConfig, inputs, matrix_fn, de_stage: str):
    levels, classes, flags = inputs
    return classification_run(levels, classes, flags, matrix_fn=matrix_fn,
                              de_cfg=cfg.de_for(de_stage),
                              reps_k=cfg.training.representatives,
                              cluster_seed=cfg.stage_seed("fcm"))


def _srf_run(cfg: PipelineConfig, args):
    """The classification inputs and their run with the trained pattern field."""
    inputs = _labelled_levels(cfg, _labelled_days(cfg, args.hotspot))
    pattern = read_artifact(cfg.out_dir / "pattern.ini", lambda text: params_from_config(
        text, ["pattern"])["pattern"])
    return inputs, _classification_run(
        cfg, inputs, lambda pats: similarity_matrix(pats, pattern), "thresholds")


def report_csv(report) -> str:
    return framed_csv(REPORT_HEADER, (f"{r.day_id},{r.class_name},{r.anomaly_index:.12g},"
                                      f"{r.threshold_used:.12g},{r.verdict}"
                                      for r in report.records))


def cmd_classify(cfg: PipelineConfig, args) -> None:
    _, report = _srf_run(cfg, args)
    write_artifact(cfg.out_dir / "report.csv", report_csv(report))
    write_artifact(cfg.out_dir / "matrix.csv", report.matrix.to_csv())
    print(f"classify: accuracy {report.accuracy:.4f}, "
          f"correlation {report.correlation:.4f} -> {cfg.out_dir / 'report.csv'}")


def cmd_compare(cfg: PipelineConfig, args) -> None:
    inputs, srf = _srf_run(cfg, args)
    runs = {"SRF": srf}
    for method, label in (("dtw", "DTW"), ("frechet", "Frechet")):
        runs[label] = _classification_run(
            cfg, inputs, lambda pats: baseline_matrix(pats, method),
            f"thresholds:{method}")
    write_artifact(cfg.out_dir / "accuracy.csv", framed_csv("method,accuracy,correlation", (
        f"{label},{r.accuracy:.12g},{r.correlation:.12g}" for label, r in runs.items())))
    print("compare: " + ", ".join(
        f"{label} {runs[label].accuracy:.4f}" for label in ("SRF", "DTW", "Frechet")))


# --- plotdata ----------------------------------------------------------------

def _archetype_trail_rows(cfg: PipelineConfig) -> str:
    sp = load_sp(cfg.out_dir / "sp.ini", cfg.day_length)
    trails = [(a.name, final_trail(a.samples, p)) for a, p in sp.fields]
    return framed_csv("archetype,cell_index,cell_center,intensity", (
        f"{name},{i},{center:.6g},{value:.6g}" for name, trail in trails
        for i, (center, value) in enumerate(zip(CELL_CENTERS, trail))))


def _scatter_csv(report: str) -> str:
    """The plotdata scatter rows of a ``report_csv`` text."""
    _, _, _, rows, _ = read_framed_csv(report, "report", REPORT_HEADER)
    fields = (row.split(",") for row in rows)
    return framed_csv("day_index,day_id,anomaly_index,verdict,threshold", (
        f"{i},{day_id},{index},{verdict},{threshold}"
        for i, (day_id, _, index, threshold, verdict) in enumerate(fields)))


def cmd_plotdata(cfg: PipelineConfig, args) -> None:
    scatter = read_artifact(cfg.out_dir / "report.csv", _scatter_csv)
    matrix = read_artifact(cfg.out_dir / "matrix.csv", str)
    write_artifact(cfg.out_dir / "plotdata" / "scatter.csv", scatter)
    write_artifact(cfg.out_dir / "plotdata" / "matrix.csv", matrix)
    write_artifact(cfg.out_dir / "plotdata" / "trail_snapshots.csv",
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

    def command(name: str, handler, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        return p

    p = command("synth", cmd_synth, "generate synthetic inputs")
    p.add_argument("--kind", choices=("year", "trips", "all"),
                   default="all")
    p.add_argument("--days", type=int, default=364)
    p.add_argument("--anomalies", type=int, default=20)
    p.add_argument("--valid-rows", type=int, default=2000)
    p.add_argument("--invalid-rows", type=int, default=100)
    p.add_argument("--hotspot", default="D")

    p = command("ingest", cmd_ingest, "parse and bucketize a trip CSV")
    p.add_argument("--trips", help="trip CSV path (default: config or out/trips.csv)")

    command("hotspots", cmd_hotspots, "build slot trails and extract hotspots")
    command("extract", cmd_extract, "extract per-hotspot daily activity series")
    for name, handler, text in (
            ("train", cmd_train, "train the perceptron and pattern field"),
            ("classify", cmd_classify, "score days and tune thresholds"),
            ("compare", cmd_compare, "accuracy table for SRF, DTW, Frechet")):
        command(name, handler, text).add_argument("--hotspot", default=None)
    command("plotdata", cmd_plotdata, "emit plot-ready CSV bundles")
    return parser


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
        write_artifact(cfg.out_dir)
        args.handler(cfg, args)
        return EXIT_OK
    except FileNotFoundError as exc:
        print(f"error: missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
