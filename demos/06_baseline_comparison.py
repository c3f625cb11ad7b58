"""Swap the pattern field for DTW and discrete Frechet and compare.

The classification pipeline is measure-agnostic: any similarity matrix can
feed the clustering, representatives, and anomaly indices, which is how the
distance baselines are scored on identical data.
"""

import time

from citytrails.anomaly import classification_run, similarity_matrix
from citytrails.baseline import (
    baseline_matrix,
    dtw,
    frechet_discrete,
    normalized_similarity,
)
from citytrails.calibrate import (
    DeConfig,
    ParamBounds,
    global_training,
    local_training,
    train_pattern_field,
)
from citytrails.perceptron import StigmergicPerceptron, transform_many
from citytrails.series import CLASS_LETTERS, all_archetypes, generate_archetype
from citytrails.synth import archetype_training_sets, synthetic_year

print("== the distances on their own ==")
rise = generate_archetype("Rise", 48).samples
chill = generate_archetype("Chill", 48).samples
print(f"  dtw(rise, chill)     = {dtw(rise, chill):.3f}")
print(f"  frechet(rise, chill) = {frechet_discrete(rise, chill):.3f}")
print(f"  as similarity: {normalized_similarity(dtw(rise, chill), rise.size):.3f} (dtw)")
print()

LENGTH = 96
start = time.time()
sets = archetype_training_sets(LENGTH, per_class=6, seed=11)
de = DeConfig(population_size=12, generations=25, seed=5)
bounds = global_training(all_archetypes(LENGTH), sets, ParamBounds.coarse(), de)
sp, _ = local_training(StigmergicPerceptron.untrained(LENGTH), bounds, de, sets)
year = synthetic_year(n_days=91, anomaly_count=9, length=LENGTH, seed=3)
levels = transform_many(sp, year.days)
pattern_sets = {c: [] for c in CLASS_LETTERS}
for lv, cls, flag in zip(levels, year.classes, year.anomaly_flags):
    if not flag and len(pattern_sets[cls]) < 8:
        pattern_sets[cls].append(lv)
pattern, _ = train_pattern_field(pattern_sets, bounds,
                                 DeConfig(population_size=10, generations=20,
                                          seed=7))
print(f"pipeline prepared ({time.time() - start:.0f}s)\n")

print("== identical split, three similarity measures ==")
srf = classification_run(levels, year.classes, year.anomaly_flags,
                         matrix_fn=lambda p: similarity_matrix(p, pattern),
                         de_cfg=DeConfig(seed=13), cluster_seed=4)
print(f"  {'SRF':8s} accuracy {srf.accuracy:.4f} correlation {srf.correlation:.4f}")
for method, label in (("dtw", "DTW"), ("frechet", "Frechet")):
    run = classification_run(levels, year.classes, year.anomaly_flags,
                             matrix_fn=lambda p: baseline_matrix(p, method),
                             de_cfg=DeConfig(seed=13), cluster_seed=4)
    print(f"  {label:8s} accuracy {run.accuracy:.4f} correlation {run.correlation:.4f}")
