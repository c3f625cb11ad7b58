"""From a raw trip CSV to per-hotspot activity series.

Generates a trip fixture with planted pickup/dropoff clusters plus some
rejectable rows, ingests it into the 10-foot / 5-minute bucket grid, finds
the hotspots, and extracts one normalized daily activity series.
"""

import tempfile
from collections import Counter
from pathlib import Path

from citytrails.hotspot import TimeSlot, build_slot_trail, extract_hotspots
from citytrails.ingest import (
    GeoBox,
    bucketize,
    hotspot_activity,
    parse_trips,
    slot_event_batches,
)
from citytrails.stigspace import Trail2D
from citytrails.synth import planted_trips_csv

box = GeoBox(lon_min=-74.02, lon_max=-73.98, lat_min=40.70, lat_max=40.74)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trips.csv"
    path.write_text(planted_trips_csv(box, n_valid=3000, n_invalid=120, seed=0),
                    encoding="utf-8")
    records, rejections = parse_trips(path, box)
print(f"parsed {len(records)} trips, rejected {len(rejections)} rows")
print("rejection reasons:", dict(Counter(r.reason for r in rejections)))

grid = bucketize(records, box)
print(f"bucket grid: {len(grid.counts)} occupied (cell, bucket) entries, "
      f"total mass {grid.total_mass()} (2 x passengers, both endpoints count)\n")

template = Trail2D.for_box(box.width_m, box.height_m, 50)
trails = {slot: build_slot_trail(batches, 0.2, template, count_cap=2.0,
                                 smooth_beta=0.25)
          for slot, batches in slot_event_batches(grid).items()}
hotspots = extract_hotspots(trails, min_area_km2=0.01)
print(f"{len(hotspots)} hotspot(s) relevant in all four slots")

day = grid.days()[0]
series = hotspot_activity(grid, hotspots[0], day, resolution_minutes=10)
print(f"\nhotspot {hotspots[0].id}, {day}: {len(series)} samples, "
      f"normalized to [{series.samples.min():.0f}, {series.samples.max():.0f}]"
      f"{' (constant day)' if series.constant else ''}")
busiest = int(series.samples.argmax())
print(f"busiest 10-minute slot starts at "
      f"{busiest * 10 // 60:02d}:{busiest * 10 % 60:02d}")
