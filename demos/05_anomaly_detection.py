"""Anomaly detection over a small synthetic quarter.

A trained perceptron turns each day into an activity-level pattern, a pattern
field scores every pair into a similarity matrix, fuzzy c-means groups the
daily behaviors, and each day's anomaly index is its mean similarity to the
five most representative days of its class, measured against 1.
"""

import time

from citytrails.anomaly import classification_run, similarity_matrix
from citytrails.calibrate import (
    DeConfig,
    pattern_training_sets,
    train_pattern_field,
    train_perceptron,
)
from citytrails.perceptron import transform_many
from citytrails.synth import archetype_training_sets, synthetic_year

LENGTH = 96
start = time.time()

sets = archetype_training_sets(LENGTH, per_class=6, seed=11)
de = DeConfig(population_size=12, generations=25, seed=5)
sp, bounds, _ = train_perceptron(sets, LENGTH, de)
print(f"perceptron trained ({time.time() - start:.0f}s)")

year = synthetic_year(n_days=91, anomaly_count=9, length=LENGTH, seed=3)
levels = transform_many(sp, year.days)
pattern_sets = pattern_training_sets(levels, year.classes, year.anomaly_flags, 8)
pattern, _ = train_pattern_field(pattern_sets, bounds,
                                 DeConfig(population_size=10, generations=20,
                                          seed=7))
print(f"pattern field trained ({time.time() - start:.0f}s)")

report = classification_run(
    levels, year.classes, year.anomaly_flags,
    matrix_fn=lambda pats: similarity_matrix(pats, pattern),
    de_cfg=DeConfig(seed=13), cluster_seed=4)

print(f"\naccuracy {report.accuracy:.3f}, "
      f"index-vs-injection correlation {report.correlation:.3f}")
print("thresholds:", {k: round(v, 3) for k, v in report.thresholds.items()})
print("\nflagged days (injected kind in brackets):")
kinds = dict(zip([d.day_id for d in year.days], year.kinds))
for record in report.records:
    if record.verdict == "anomalous":
        print(f"  {record.day_id} {record.class_name:13s} "
              f"index {record.anomaly_index:.3f} [{kinds[record.day_id] or '?'}]")
