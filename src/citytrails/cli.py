"""Batch commands: synth, ingest, hotspots, extract, train, classify, compare,
plotdata. ``COMMANDS`` gives each its readers of prior stage outputs in the
--out directory and its compute; main runs every reader before the compute, so
an input error exits before any DE generation, trail step or matrix, and
writes the returned files all or none. Exit codes are 0 success, 1 internal
error, 2 input-format error, 3 missing upstream artifact."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import synth
from .anomaly import classification_run, expected_class_for, similarity_matrix
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
    series_from_csv, series_to_csv, write_artifacts
from .srf import final_trail
from .stigspace import CELL_CENTERS, Trail2D, to_ascii_grid

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_FORMAT = 2
EXIT_MISSING = 3

REPORT_HEADER = "day_id,class,anomaly_index,threshold,verdict"


# --- readers -----------------------------------------------------------------
# Each takes (cfg, args) and returns one input of a command, read and checked.
# They alone read files, so a bad input exits before any compute starts.

def _file(name: str, parse):
    return lambda cfg, args: read_artifact(cfg.out_dir / name, parse)


def _read_trips(cfg: PipelineConfig, args):
    trips = Path(args.trips) if args.trips else (cfg.trips_path or cfg.out_dir / "trips.csv")
    return read_artifact(trips, lambda p: parse_trips(p, cfg.box), stream=True)


def _read_sp(cfg: PipelineConfig, args):
    return load_sp(cfg.out_dir / "sp.ini", cfg.day_length)


_read_grid = _file("buckets.csv", BucketGrid.from_csv)
_read_pattern = _file("pattern.ini", lambda text: params_from_config(text, ["pattern"])["pattern"])


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


def _read_labelled_days(cfg: PipelineConfig, args):
    """One hotspot's days, with each day's weekday class and whether
    ``labels.csv`` flags it anomalous; every day needs its row there."""
    days = _load_series_dir(cfg, args.hotspot)
    path = cfg.out_dir / "labels.csv"
    flags = read_artifact(path, synth.parse_labels_csv)
    unlabelled = next((s.day_id for s in days if s.day_id not in flags), None)
    if unlabelled is not None:
        raise ValueError(f"{path} has no row for series day {unlabelled}")
    classes = [expected_class_for(iso_date(s.day_id)) for s in days]
    return days, classes, [flags[s.day_id] for s in days]


def _absent(cfg: PipelineConfig) -> list[str]:
    return [str(p) for p in (cfg.out_dir / "series", cfg.out_dir / "labels.csv")
            if not p.exists()]


def _read_pattern_days(cfg: PipelineConfig, args):
    """The pattern field's training days by class, or None to skip the field
    when series/ or labels.csv is absent."""
    if _absent(cfg):
        return None
    days, classes, flags = _read_labelled_days(cfg, args)
    try:
        return pattern_training_sets(days, classes, flags, cfg.training.pattern_per_class)
    except ValueError as exc:
        raise ValueError(f"{cfg.out_dir / 'labels.csv'}: {exc}") from None


# --- commands ---------------------------------------------------------------

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


def cmd_ingest(cfg: PipelineConfig, args, trips):
    records, rejections = trips
    grid = bucketize(records, cfg.box, cfg.bucket_cell_m, cfg.bucket_minutes)
    files = {cfg.out_dir / "buckets.csv": grid.to_csv(),
             cfg.out_dir / "rejections.csv": rejections_to_csv(rejections)}
    return files, [f"ingest: {len(records)} accepted, {len(rejections)} rejected, "
                   f"archive {cfg.out_dir / 'buckets.csv'}"]


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


def cmd_hotspots(cfg: PipelineConfig, args, grid):
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


def _same_bytes(path: Path, text: str) -> bool | None:
    """Whether ``path`` holds ``text``'s UTF-8 bytes; None if nothing is there."""
    try:
        return path.read_bytes() == text.encode("utf-8")
    except FileNotFoundError:
        return None
    except (IsADirectoryError, NotADirectoryError):
        return False


def cmd_extract(cfg: PipelineConfig, args, grid, found):
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


def cmd_train(cfg: PipelineConfig, args, pattern_days):
    out, length = cfg.out_dir, cfg.day_length
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
    if pattern_days is None:
        absent = _absent(cfg)
        # a pattern field trained on another sp.ini would outlive it
        if (out / "pattern.ini").exists() and not _same_bytes(out / "sp.ini", files[out / "sp.ini"]):
            raise ValueError(f"train would leave {out / 'pattern.ini'} trained on another "
                             f"sp.ini: no {' or '.join(absent)} to retrain it on")
        lines.append(f"train: no {' or '.join(absent)}, skipping pattern-field training")
        return files, lines
    levels = iter(transform_many(sp, [d for days in pattern_days.values() for d in days]))
    by_class = {c: [next(levels) for _ in days] for c, days in pattern_days.items()}
    params, history = train_pattern_field(by_class, bounds, cfg.de_for("pattern"))
    files[out / "pattern.ini"] = params_to_config({"pattern": params})
    files[out / "history" / "pattern.csv"] = history_csv(history)
    lines.append(f"train: pattern field saved to {out / 'pattern.ini'}")
    return files, lines


def _runs(cfg: PipelineConfig, labelled, sp, pattern, baselines=()):
    """The SRF run with the trained pattern field, then one per baseline, by label."""
    days, classes, flags = labelled
    levels = transform_many(sp, days)
    matrix_fns = {"SRF": (lambda pats: similarity_matrix(pats, pattern), "thresholds")}
    for method, label in baselines:
        matrix_fns[label] = (lambda pats, m=method: baseline_matrix(pats, m),
                             f"thresholds:{method}")
    return {label: classification_run(levels, classes, flags, matrix_fn=fn,
                                      de_cfg=cfg.de_for(stage),
                                      reps_k=cfg.training.representatives,
                                      cluster_seed=cfg.stage_seed("fcm"))
            for label, (fn, stage) in matrix_fns.items()}


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


def cmd_classify(cfg: PipelineConfig, args, labelled, sp, pattern):
    report = _runs(cfg, labelled, sp, pattern)["SRF"]
    files = {cfg.out_dir / "report.csv": report_csv(report),
             cfg.out_dir / "matrix.csv": report.matrix.to_csv()}
    return files, [f"classify: accuracy {report.accuracy:.4f}, correlation "
                   f"{report.correlation:.4f} -> {cfg.out_dir / 'report.csv'}",
                   *_shortfalls(cfg, "classify", {"SRF": report})]


def cmd_compare(cfg: PipelineConfig, args, labelled, sp, pattern):
    runs = _runs(cfg, labelled, sp, pattern, (("dtw", "DTW"), ("frechet", "Frechet")))
    files = {cfg.out_dir / "accuracy.csv": framed_csv("method,accuracy,correlation", (
        f"{label},{r.accuracy:.12g},{r.correlation:.12g}" for label, r in runs.items()))}
    return files, ["compare: " + ", ".join(
        f"{label} {runs[label].accuracy:.4f}" for label in ("SRF", "DTW", "Frechet")),
        *_shortfalls(cfg, "compare", runs)]


def cmd_plotdata(cfg: PipelineConfig, args, report, matrix, sp):
    plots = cfg.out_dir / "plotdata"
    fields = (row.split(",") for row in report)
    trails = [(a.name, final_trail(a.samples, p)) for a, p in sp.fields]
    files = {plots / "scatter.csv": framed_csv(
                 "day_index,day_id,anomaly_index,verdict,threshold",
                 (f"{i},{day_id},{index},{verdict},{threshold}"
                  for i, (day_id, _, index, threshold, verdict) in enumerate(fields))),
             plots / "matrix.csv": matrix,
             plots / "trail_snapshots.csv": framed_csv(
                 "archetype,cell_index,cell_center,intensity",
                 (f"{name},{i},{center:.6g},{value:.6g}" for name, trail in trails
                  for i, (center, value) in enumerate(zip(CELL_CENTERS, trail))))}
    return files, [f"plotdata: bundles under {plots}"]


# --- entry point ---------------------------------------------------------------

SRF_READERS = {"labelled": _read_labelled_days, "sp": _read_sp, "pattern": _read_pattern}
# name: (help, compute, {input name: reader}); main calls the readers in order,
# then the compute on their results, then writes the files it returns
COMMANDS = {
    "synth": ("generate synthetic inputs", cmd_synth, {}),
    "ingest": ("parse and bucketize a trip CSV", cmd_ingest, {"trips": _read_trips}),
    "hotspots": ("build slot trails and extract hotspots", cmd_hotspots, {"grid": _read_grid}),
    "extract": ("extract per-hotspot daily activity series", cmd_extract,
                {"grid": _read_grid, "found": _file("hotspots.geojson", hotspots_from_geojson)}),
    "train": ("train the perceptron and pattern field", cmd_train,
              {"pattern_days": _read_pattern_days}),
    "classify": ("score days and tune thresholds", cmd_classify, SRF_READERS),
    "compare": ("accuracy table for SRF, DTW, Frechet", cmd_compare, SRF_READERS),
    "plotdata": ("emit plot-ready CSV bundles", cmd_plotdata, {
        "report": _file("report.csv", lambda text: read_framed_csv(
            text, "report", REPORT_HEADER)[3]),
        "matrix": _file("matrix.csv", str), "sp": _read_sp}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citytrails")
    parser.add_argument("--config", help=f"pipeline config file (or ${ENV_CONFIG_VAR})")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text) for name, (text, _, _) in COMMANDS.items()}
    p["synth"].add_argument("--kind", choices=("year", "trips", "all"), default="all")
    for flag, default in (("--days", 364), ("--anomalies", 20), ("--valid-rows", 2000),
                          ("--invalid-rows", 100)):
        p["synth"].add_argument(flag, type=int, default=default)
    p["synth"].add_argument("--hotspot", default="D")
    p["ingest"].add_argument("--trips", help="trip CSV path (default: config or out/trips.csv)")
    for name in ("train", "classify", "compare"):
        p[name].add_argument("--hotspot", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, compute, readers = COMMANDS[args.command]
    try:
        if getattr(args, "hotspot", None) is not None:
            check_hotspot_id(args.hotspot)
        cfg = load_config(args.config or os.environ.get(ENV_CONFIG_VAR))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=Path(args.out))
        inputs = {name: read(cfg, args) for name, read in readers.items()}
        files, lines = compute(cfg, args, **inputs)
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
