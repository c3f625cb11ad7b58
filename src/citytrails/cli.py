"""Batch commands: synth, ingest, hotspots, extract, train, classify, compare,
plotdata. Commands read prior stage outputs from the --out directory and return
their documented files, which main writes there all or none; exit codes are 0
success, 1 internal error, 2 input-format error, 3 missing upstream artifact."""

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
from .config import ENV_CONFIG_VAR, PipelineConfig, history_csv, load_config
from .hotspot import ConeMark, TimeSlot, check_hotspot_id, extract_hotspots, \
    hotspots_from_geojson, hotspots_to_geojson, relevance_mask, build_slot_trail
from .ingest import BucketGrid, bucketize, hotspot_activity, parse_trips, \
    rejections_to_csv, slot_event_batches
from .perceptron import load_sp, params_from_config, params_to_config, sp_ini, \
    transform_many
from .series import CLASS_NAMES, framed_csv, iso_date, read_artifact, read_framed_csv, \
    series_from_csv, series_to_csv, write_artifact, write_artifacts
from .srf import final_trail
from .stigspace import CELL_CENTERS, Trail2D, to_ascii_grid

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_FORMAT = 2
EXIT_MISSING = 3

REPORT_HEADER = "day_id,class,anomaly_index,threshold,verdict"


# --- synth -------------------------------------------------------------------

def cmd_synth(cfg: PipelineConfig, args):
    out, files, lines = cfg.out_dir, {}, []
    kinds = {"year", "trips"} if args.kind == "all" else {args.kind}
    if "year" in kinds:
        year = synth.synthetic_year(
            n_days=args.days, anomaly_count=args.anomalies,
            length=cfg.day_length, seed=cfg.stage_seed("synth:year"),
            hotspot_id=args.hotspot)
        for day in year.days:
            day = dataclasses.replace(day, resolution_minutes=cfg.resolution_minutes)
            files[out / "series" / args.hotspot / f"{day.day_id}.csv"] = series_to_csv(day)
        files[out / "labels.csv"] = year.labels_csv()
        lines.append(f"synth: wrote {len(year.days)} days "
                     f"({sum(year.anomaly_flags)} anomalous) under {out / 'series'}")
    if "trips" in kinds:
        text = synth.planted_trips_csv(cfg.box, n_valid=args.valid_rows,
                                       n_invalid=args.invalid_rows,
                                       seed=cfg.stage_seed("synth:trips"))
        files[out / "trips.csv"] = text
        lines.append(f"synth: wrote {out / 'trips.csv'}")
    return files, lines


# --- ingest ------------------------------------------------------------------

def cmd_ingest(cfg: PipelineConfig, args):
    trips = Path(args.trips) if args.trips else (cfg.trips_path or cfg.out_dir / "trips.csv")
    records, rejections = read_artifact(trips, lambda p: parse_trips(p, cfg.box),
                                        stream=True)
    grid = bucketize(records, cfg.box, cfg.bucket_cell_m, cfg.bucket_minutes)
    files = {cfg.out_dir / "buckets.csv": grid.to_csv(),
             cfg.out_dir / "rejections.csv": rejections_to_csv(rejections)}
    return files, [f"ingest: {len(records)} accepted, {len(rejections)} rejected, "
                   f"archive {cfg.out_dir / 'buckets.csv'}"]


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


def cmd_hotspots(cfg: PipelineConfig, args):
    grid = read_artifact(cfg.out_dir / "buckets.csv", BucketGrid.from_csv)
    trails, files = _slot_trails(cfg, grid), {}
    for slot, trail in trails.items():
        files[cfg.out_dir / "trails" / f"{slot.value}.asc"] = to_ascii_grid(trail)
        mask = relevance_mask(trail, cfg.hotspots.relevance_fraction)
        files[cfg.out_dir / "masks" / f"{slot.value}.asc"] = to_ascii_grid(
            Trail2D(mask.astype(float), trail.origin, trail.cell_size))
    found = extract_hotspots(trails, cfg.hotspots.relevance_fraction,
                             cfg.hotspots.min_area_km2)
    files[cfg.out_dir / "hotspots.geojson"] = hotspots_to_geojson(found)
    return files, [f"hotspots: {len(found)} polygon(s) -> {cfg.out_dir / 'hotspots.geojson'}"]


# --- extract -----------------------------------------------------------------

def _same_bytes(path: Path, text: str) -> bool | None:
    """Whether ``path`` holds ``text``'s UTF-8 bytes; None if nothing is there."""
    try:
        return path.read_bytes() == text.encode("utf-8")
    except FileNotFoundError:
        return None
    except (IsADirectoryError, NotADirectoryError):
        return False


def cmd_extract(cfg: PipelineConfig, args):
    grid = read_artifact(cfg.out_dir / "buckets.csv", BucketGrid.from_csv)
    found = read_artifact(cfg.out_dir / "hotspots.geojson", hotspots_from_geojson)
    targets = {cfg.out_dir / "series" / h.id / f"{day}.csv":
               series_to_csv(hotspot_activity(grid, h, day, cfg.resolution_minutes))
               for h in found for day in grid.days()}
    # A rerun rewrites the same bytes; anything else there, a directory at the
    # path or a regular file above it too, belongs to another source (synth
    # writes its year under series/<hotspot>).
    for path, text in targets.items():
        if _same_bytes(path, text) is False:
            raise ValueError(f"{path} exists with other contents; "
                             "extract would overwrite it")
    return targets, [f"extract: {len(targets)} series under {cfg.out_dir / 'series'}"]


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


def cmd_train(cfg: PipelineConfig, args):
    out, length = cfg.out_dir, cfg.day_length
    # Resolve the pattern field's days first, so bad series fail before any DE runs.
    absent = [str(p) for p in (out / "series", out / "labels.csv") if not p.exists()]
    labelled = None if absent else _labelled_days(cfg, args.hotspot)
    sets = synth.archetype_training_sets(length, cfg.training.per_class,
                                         cfg.training.noise, cfg.training.max_shift,
                                         seed=cfg.stage_seed("sp-train"))
    sp, bounds, histories = train_perceptron(sets, length, cfg.de_for("local"))
    files = {out / "sp.ini": sp_ini(sp)}
    for name, history in histories.items():
        files[out / "history" / f"{name}.csv"] = history_csv(history)
    d_lo, d_hi = bounds.intervals["delta"]
    lines = [f"train: perceptron saved to {out / 'sp.ini'} "
             f"(evaporation interval [{d_lo:.4g}, {d_hi:.4g}])"]

    if labelled is None:
        # a pattern field trained on another sp.ini would outlive it
        if (out / "pattern.ini").exists() and not _same_bytes(out / "sp.ini", files[out / "sp.ini"]):
            raise ValueError(f"train would leave {out / 'pattern.ini'} trained on another "
                             f"sp.ini: no {' or '.join(absent)} to retrain it on")
        lines.append(f"train: no {' or '.join(absent)}, skipping pattern-field training")
        return files, lines
    days, classes, flags = labelled
    by_class = pattern_training_sets(transform_many(sp, days), classes, flags,
                                     cfg.training.pattern_per_class)
    params, history = train_pattern_field(by_class, bounds, cfg.de_for("pattern"))
    files[out / "pattern.ini"] = params_to_config({"pattern": params})
    files[out / "history" / "pattern.csv"] = history_csv(history)
    lines.append(f"train: pattern field saved to {out / 'pattern.ini'}")
    return files, lines


# --- classify / compare -------------------------------------------------------

def _classification_run(cfg: PipelineConfig, inputs, matrix_fn, de_stage: str):
    levels, classes, flags = inputs
    return classification_run(levels, classes, flags, matrix_fn=matrix_fn,
                              de_cfg=cfg.de_for(de_stage),
                              reps_k=cfg.training.representatives,
                              cluster_seed=cfg.stage_seed("fcm"))


def _srf_run(cfg: PipelineConfig, args):
    """The classification inputs and their run with the trained pattern field."""
    days, classes, flags = _labelled_days(cfg, args.hotspot)
    inputs = (transform_many(load_sp(cfg.out_dir / "sp.ini", cfg.day_length), days),
              classes, flags)
    pattern = read_artifact(cfg.out_dir / "pattern.ini", lambda text: params_from_config(
        text, ["pattern"])["pattern"])
    return inputs, _classification_run(
        cfg, inputs, lambda pats: similarity_matrix(pats, pattern), "thresholds")


def _shortfalls(cfg: PipelineConfig, command: str, runs) -> list[str]:
    """One line per run and class whose cluster had too few members."""
    k = cfg.training.representatives
    return [f"{command}: {label} class {CLASS_NAMES[c]} has {len(reps)} representatives, "
            f"fewer than [training] representatives = {k}" for label, report in runs.items()
            for c, reps in report.representatives_by_class.items() if len(reps) < k]


def report_csv(report) -> str:
    return framed_csv(REPORT_HEADER, (f"{r.day_id},{r.class_name},{r.anomaly_index:.12g},"
                                      f"{r.threshold_used:.12g},{r.verdict}"
                                      for r in report.records))


def cmd_classify(cfg: PipelineConfig, args):
    _, report = _srf_run(cfg, args)
    files = {cfg.out_dir / "report.csv": report_csv(report),
             cfg.out_dir / "matrix.csv": report.matrix.to_csv()}
    return files, [f"classify: accuracy {report.accuracy:.4f}, correlation "
                   f"{report.correlation:.4f} -> {cfg.out_dir / 'report.csv'}",
                   *_shortfalls(cfg, "classify", {"SRF": report})]


def cmd_compare(cfg: PipelineConfig, args):
    inputs, srf = _srf_run(cfg, args)
    runs = {"SRF": srf}
    for method, label in (("dtw", "DTW"), ("frechet", "Frechet")):
        runs[label] = _classification_run(
            cfg, inputs, lambda pats: baseline_matrix(pats, method),
            f"thresholds:{method}")
    files = {cfg.out_dir / "accuracy.csv": framed_csv("method,accuracy,correlation", (
        f"{label},{r.accuracy:.12g},{r.correlation:.12g}" for label, r in runs.items()))}
    return files, ["compare: " + ", ".join(
        f"{label} {runs[label].accuracy:.4f}" for label in ("SRF", "DTW", "Frechet")),
        *_shortfalls(cfg, "compare", runs)]


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


def cmd_plotdata(cfg: PipelineConfig, args):
    plots = cfg.out_dir / "plotdata"
    files = {plots / "scatter.csv": read_artifact(cfg.out_dir / "report.csv", _scatter_csv),
             plots / "matrix.csv": read_artifact(cfg.out_dir / "matrix.csv", str),
             plots / "trail_snapshots.csv": _archetype_trail_rows(cfg)}
    return files, [f"plotdata: bundles under {plots}"]


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
        files, lines = args.handler(cfg, args)
        write_artifacts(files)
        print(*lines, sep="\n")
        return EXIT_OK
    except FileNotFoundError as exc:
        print(f"error: missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    # read_artifact names the file of any reader's KeyError in a ValueError,
    # so a KeyError that gets here is a fault of the program, not of its input.
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
