"""Shared heavy fixtures: trained fields and the synthetic-year pipeline run.

The cache builds lazily so the acceptance tests' wall-clock budgets include
the cost of whatever they are first to request, and later criteria reuse the
artifacts (the year-level criteria share one run by design).
"""

from dataclasses import dataclass

import pytest

from citytrails.anomaly import classification_run, similarity_matrix
from citytrails.baseline import baseline_matrix
from citytrails.calibrate import (
    DeConfig,
    ParamBounds,
    global_training,
    local_training,
    train_pattern_field,
)
from citytrails.perceptron import StigmergicPerceptron, transform_many
from citytrails.series import CLASS_LETTERS, all_archetypes
from citytrails.synth import archetype_training_sets, synthetic_year

DAY_LENGTH = 144
SP_DE = DeConfig(population_size=20, generations=60, seed=5)
PATTERN_DE = DeConfig(population_size=12, generations=36, seed=7)
THRESHOLD_DE = DeConfig(seed=13)
SETS_SEED = 11
YEAR_SEED = 3
CLUSTER_SEED = 4


@dataclass
class TrainedFields:
    archetypes: tuple
    sets: dict
    bounds: ParamBounds
    sp: StigmergicPerceptron


@dataclass
class YearRun:
    year: object
    levels: list
    pattern_sets: dict
    pattern_params: object
    srf: object
    dtw: object


class PipelineCache:
    def __init__(self):
        self._trained = None
        self._year_run = None

    def trained(self) -> TrainedFields:
        if self._trained is None:
            archetypes = all_archetypes(DAY_LENGTH)
            sets = archetype_training_sets(DAY_LENGTH, seed=SETS_SEED)
            bounds = global_training(archetypes, sets, ParamBounds.coarse(), SP_DE)
            sp, _ = local_training(StigmergicPerceptron.untrained(DAY_LENGTH),
                                   bounds, SP_DE, sets)
            self._trained = TrainedFields(archetypes, sets, bounds, sp)
        return self._trained

    def year_run(self) -> YearRun:
        if self._year_run is None:
            trained = self.trained()
            year = synthetic_year(seed=YEAR_SEED)
            levels = transform_many(trained.sp, year.days)
            pattern_sets = {c: [] for c in CLASS_LETTERS}
            for level_series, cls, flag in zip(levels, year.classes,
                                               year.anomaly_flags):
                if not flag and len(pattern_sets[cls]) < 10:
                    pattern_sets[cls].append(level_series)
            pattern_params, _ = train_pattern_field(pattern_sets, trained.bounds,
                                                    PATTERN_DE)
            srf = classification_run(
                levels, year.classes, year.anomaly_flags,
                matrix_fn=lambda pats: similarity_matrix(pats, pattern_params),
                de_cfg=THRESHOLD_DE, cluster_seed=CLUSTER_SEED)
            dtw = classification_run(
                levels, year.classes, year.anomaly_flags,
                matrix_fn=lambda pats: baseline_matrix(pats, "dtw"),
                de_cfg=THRESHOLD_DE, cluster_seed=CLUSTER_SEED)
            self._year_run = YearRun(year, levels, pattern_sets, pattern_params,
                                     srf, dtw)
        return self._year_run


@pytest.fixture(scope="session")
def pipeline():
    return PipelineCache()
