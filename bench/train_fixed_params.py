"""Regenerate the fixed perceptron and pattern-field parameters that the
``year-compare`` workload loads, so that workload pays no training.

Settings are those of the test suite's shared pipeline fixture: perceptron DE
population 20 for 60 generations (seed 5) on archetype training sets drawn
with seed 11; pattern DE population 12 for 36 generations (seed 7) on up to
10 non-anomalous days per class of the 364-day synthetic year with seed 3.

Run from the repository root (takes a few minutes on two cores):

    python3 bench/train_fixed_params.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from citytrails.calibrate import (  # noqa: E402
    DeConfig,
    ParamBounds,
    global_training,
    local_training,
    train_pattern_field,
)
from citytrails.perceptron import StigmergicPerceptron, save_sp, transform_many  # noqa: E402
from citytrails.series import CLASS_LETTERS, all_archetypes  # noqa: E402
from citytrails.synth import archetype_training_sets, synthetic_year  # noqa: E402
from workloads import DAY_LENGTH, FIXED_DIR, save_params  # noqa: E402

SP_DE = DeConfig(population_size=20, generations=60, seed=5)
PATTERN_DE = DeConfig(population_size=12, generations=36, seed=7)
SETS_SEED = 11
YEAR_SEED = 3
PATTERN_PER_CLASS = 10


def main() -> None:
    sets = archetype_training_sets(DAY_LENGTH, seed=SETS_SEED)
    bounds = global_training(all_archetypes(DAY_LENGTH), sets,
                             ParamBounds.coarse(), SP_DE)
    sp, _ = local_training(StigmergicPerceptron.untrained(DAY_LENGTH), bounds,
                           SP_DE, sets)
    year = synthetic_year(seed=YEAR_SEED)
    levels = transform_many(sp, year.days)
    pattern_sets = {c: [] for c in CLASS_LETTERS}
    for level_series, cls, flag in zip(levels, year.classes, year.anomaly_flags):
        if not flag and len(pattern_sets[cls]) < PATTERN_PER_CLASS:
            pattern_sets[cls].append(level_series)
    pattern, _ = train_pattern_field(pattern_sets, bounds, PATTERN_DE)

    FIXED_DIR.mkdir(exist_ok=True)
    save_sp(sp, FIXED_DIR / "sp.ini")
    save_params(FIXED_DIR / "pattern.ini", "pattern", pattern)
    print(f"wrote {FIXED_DIR / 'sp.ini'} and {FIXED_DIR / 'pattern.ini'}")


if __name__ == "__main__":
    main()
