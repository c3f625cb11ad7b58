import numpy as np
import pytest

import citytrails.calibrate as calibrate
from citytrails.calibrate import (
    DeConfig,
    ParamBounds,
    TrainingCouples,
    de_minimize,
    global_training,
    local_training,
    narrowest_quality_interval,
    pattern_training_pairs,
    pattern_training_sets,
    population_fitness,
    train_pattern_field,
    train_perceptron,
    training_pairs_for_field,
    tune_thresholds,
)
from citytrails.perceptron import ActivityLevelSeries, StigmergicPerceptron
from citytrails.series import all_archetypes
from citytrails.srf import PARAM_KEYS, SrfParams, pair_similarity
from citytrails.synth import archetype_training_sets

DAY = 96
SMALL_DE = DeConfig(population_size=10, generations=20, seed=3)


@pytest.fixture(scope="module")
def small_sets():
    return archetype_training_sets(DAY, per_class=6, noise=0.05, max_shift=3, seed=11)


@pytest.fixture(scope="module")
def archetypes():
    return all_archetypes(DAY)


def couples(pairs):
    """TrainingCouples over (series_a, series_b, target) triples, one pool
    stream per series as given."""
    series = [a for a, _, _ in pairs] + [b for _, b, _ in pairs]
    n = len(pairs)
    return TrainingCouples(np.array(series).reshape(2 * n, -1), np.arange(n),
                           n + np.arange(n), np.array([t for _, _, t in pairs]))


class TestFitness:
    def test_perfect_fit_is_zero(self):
        xs = np.random.default_rng(0).uniform(0, 1, 30)
        p = SrfParams(30, 1 / 3, 30, 2 / 3, 0.2, 0.1, alpha_a=100, beta_a=0.0)
        pairs = couples([(xs, xs, 1.0)])
        assert population_fitness(p.to_vector(), pairs)[0] == 0.0

    def test_half_similarity_quarter_error(self):
        # a self pair with beta_a = 1 activates exactly to 0.5
        xs = np.random.default_rng(1).uniform(0, 1, 30)
        p = SrfParams(30, 1 / 3, 30, 2 / 3, 0.2, 0.1, alpha_a=20, beta_a=1.0)
        pairs = couples([(xs, xs, 1.0)])
        assert population_fitness(p.to_vector(), pairs)[0] == pytest.approx(0.25)

    def test_pure_function(self):
        rng = np.random.default_rng(2)
        pairs = couples([(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30), 0.0)
                         for _ in range(3)])
        p = SrfParams.defaults()
        assert (population_fitness(p.to_vector(), pairs)[0]
                == population_fitness(p.to_vector(), pairs)[0])

    def test_empty_pairs_rejected(self):
        empty = TrainingCouples(np.zeros((1, 10)), np.zeros(0, int), np.zeros(0, int),
                                np.zeros(0))
        with pytest.raises(ValueError):
            population_fitness(SrfParams.defaults().to_vector(), empty)[0]

    def test_population_fitness_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        pairs = couples([(rng.uniform(0, 1, 24), rng.uniform(0, 1, 24), float(t))
                         for t in (1, 0, 1)])
        rows = [SrfParams.defaults(),
                SrfParams(12, 0.3, 40, 0.7, 0.15, 0.3, 25, 0.55)]
        pmat = np.stack([r.to_vector() for r in rows])
        batched = population_fitness(pmat, pairs)
        for row, params in zip(batched, rows):
            single = population_fitness(params.to_vector(), pairs)[0]
            assert row == pytest.approx(single, rel=1e-12)

        # A pool stream shared by several couples (the reference, as in field
        # training) and equal-content streams at distinct pool indices give the
        # same bits as every couple run on its own.
        reference, own = rng.uniform(0, 1, 24), rng.uniform(0, 1, 24)
        pool = np.stack([reference, own, own.copy(), rng.uniform(0, 1, 24),
                         reference.copy()])
        shared = TrainingCouples(pool, np.array([1, 2, 3, 4]), np.zeros(4, int),
                                 np.array([1.0, 1.0, 0.0, 1.0]))
        batched = population_fitness(pmat, shared)
        for row, params in zip(batched, rows):
            sims = np.array([pair_similarity(pool[a], pool[b], params)[0]
                             for a, b in zip(shared.ia, shared.ib)])
            assert row == np.mean((sims - shared.targets) ** 2)


def reference_de_minimize(objective, bounds, cfg: DeConfig) -> calibrate.DeResult:
    """Oracle: DE/rand/1/bin built one individual at a time."""
    box = np.asarray([tuple(b) for b in bounds], dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or not np.all(box[:, 0] < box[:, 1]):
        raise ValueError("bounds must be (low, high) pairs with low < high")
    lo, hi = box[:, 0], box[:, 1]
    dim = box.shape[0]
    size = cfg.population_size
    rng = np.random.default_rng(cfg.seed)

    population = rng.uniform(lo, hi, size=(size, dim))
    energies = np.asarray(objective(population), dtype=float)
    history = [float(energies.min())]

    for _ in range(cfg.generations):
        trials = np.empty_like(population)
        for i in range(size):
            picks = rng.choice(size - 1, size=3, replace=False)
            picks[picks >= i] += 1
            a, b, c = population[picks]
            mutant = a + calibrate.DIFFERENTIAL_WEIGHT * (b - c)
            cross = rng.random(dim) < calibrate.CROSSOVER_RATE
            cross[rng.integers(dim)] = True
            trials[i] = np.clip(np.where(cross, mutant, population[i]), lo, hi)
        trial_energies = np.asarray(objective(trials), dtype=float)
        improved = trial_energies <= energies
        population[improved] = trials[improved]
        energies[improved] = trial_energies[improved]
        history.append(float(energies.min()))

    best = int(np.argmin(energies))
    return calibrate.DeResult(population[best].copy(), float(energies[best]),
                              tuple(history))


class TestDeMinimizeMatchesReference:
    @staticmethod
    def assert_same(bounds, cfg):
        """Both minimizers on one objective give the same result and hand it
        the same matrices, which are returned."""
        centre = np.linspace(-0.3, 0.4, len(bounds))
        runs = []
        for minimize in (de_minimize, reference_de_minimize):
            seen = []

            def objective(m):
                seen.append(m.copy())
                return np.sum(np.abs(m - centre) * (1 + np.arange(m.shape[1])), axis=1)

            runs.append((minimize(objective, bounds, cfg), seen))
        (ours, ours_seen), (ref, ref_seen) = runs
        assert np.array_equal(ours.best, ref.best)
        assert ours.fitness == ref.fitness
        assert ours.history == ref.history
        assert len(ours_seen) == len(ref_seen) == cfg.generations + 1
        assert all(np.array_equal(x, y) for x, y in zip(ours_seen, ref_seen))
        return ours_seen

    @pytest.mark.parametrize("dim", [1, 3, 8])
    @pytest.mark.parametrize("size", [4, 10, 30])
    @pytest.mark.parametrize("crossover_rate", [0.0, 0.9, 1.0])
    def test_bit_equal(self, monkeypatch, dim, size, crossover_rate):
        monkeypatch.setattr(calibrate, "CROSSOVER_RATE", crossover_rate)
        cfg = DeConfig(population_size=size, generations=12, seed=dim * 100 + size)
        self.assert_same([(-1.0, 1.5)] * dim, cfg)

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_with_clipped_mutants(self, monkeypatch, seed):
        # F = 2 on a narrow box throws most mutants outside it.
        monkeypatch.setattr(calibrate, "DIFFERENTIAL_WEIGHT", 2.0)
        bounds = [(0.0, 0.1), (-2.0, -1.9), (5.0, 5.05)]
        cfg = DeConfig(population_size=10, generations=15, seed=seed)
        seen = self.assert_same(bounds, cfg)
        trials = np.concatenate(seen[1:])
        lo, hi = np.array(bounds).T
        assert np.any(trials == lo) and np.any(trials == hi)

    def test_zero_generations(self):
        cfg = DeConfig(population_size=6, generations=0, seed=4)
        self.assert_same([(0.0, 1.0)] * 3, cfg)

    def test_tune_thresholds_same_result(self, monkeypatch):
        rng = np.random.default_rng(64)
        letters = rng.permutation([c for c in "WEL" for _ in range(22)][:64])
        entries = [(str(c), float(v), bool(f)) for c, v, f in
                   zip(letters, rng.uniform(0.0, 1.0, 64), rng.random(64) < 0.15)]
        cfg = DeConfig(seed=13)
        ours = tune_thresholds(entries, cfg)
        monkeypatch.setattr(calibrate, "de_minimize", reference_de_minimize)
        assert tune_thresholds(entries, cfg) == ours


class TestDeMinimize:
    def test_sphere_reaches_optimum(self):
        cfg = DeConfig(population_size=30, generations=80, seed=1)
        result = de_minimize(lambda m: np.sum(m ** 2, axis=1),
                             [(-5.0, 5.0)] * 4, cfg)
        assert result.fitness <= 1e-3

    def test_history_monotone_and_sized(self):
        cfg = DeConfig(population_size=12, generations=30, seed=2)
        result = de_minimize(lambda m: np.sum(np.abs(m), axis=1),
                             [(-3.0, 3.0)] * 3, cfg)
        history = np.array(result.history)
        assert history.size == cfg.generations + 1
        assert np.all(np.diff(history) <= 0)

    def test_seed_determinism(self):
        cfg = DeConfig(population_size=10, generations=15, seed=7)
        runs = [de_minimize(lambda m: np.sum(m ** 2, axis=1), [(-1, 1)] * 2, cfg)
                for _ in range(2)]
        assert np.array_equal(runs[0].best, runs[1].best)
        assert runs[0].history == runs[1].history

    def test_result_within_bounds(self):
        cfg = DeConfig(population_size=8, generations=10, seed=5)
        result = de_minimize(lambda m: -np.sum(m, axis=1), [(0.0, 1.0)] * 4, cfg)
        assert np.all((result.best >= 0.0) & (result.best <= 1.0))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            de_minimize(lambda m: np.zeros(len(m)), [(1.0, 1.0)], SMALL_DE)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeConfig(population_size=3)
        with pytest.raises(ValueError, match="generations"):
            DeConfig(generations=-1)
        assert DeConfig(generations=0).generations == 0


class TestBounds:
    def test_coarse_defaults_complete(self):
        assert set(ParamBounds.coarse().intervals) == set(PARAM_KEYS)

    def test_low_below_high_enforced(self):
        with pytest.raises(ValueError):
            ParamBounds.coarse().with_interval("delta", 0.5, 0.5)

    def test_mid_params(self):
        mid = ParamBounds.coarse().mid_params()
        assert mid.beta_a == 0.5
        assert mid.alpha_a == pytest.approx(50.5)


class TestTrainingPairs:
    def test_interior_field_balanced_half_half(self, small_sets, archetypes):
        by_enum = {a.enumeration: small_sets[a.name] for a in archetypes}
        pairs = training_pairs_for_field(4, by_enum, archetypes[3].samples)
        targets = pairs.targets.tolist()
        assert targets.count(1.0) == 6
        assert targets.count(0.0) == 6

    def test_end_field_uses_single_neighbor(self, small_sets, archetypes):
        by_enum = {a.enumeration: small_sets[a.name] for a in archetypes}
        pairs = training_pairs_for_field(1, by_enum, archetypes[0].samples)
        negatives = pairs.streams[pairs.ia[pairs.targets == 0.0]]
        assert len(negatives) == 6
        assert np.all(pairs.ib == 0)
        assert np.array_equal(pairs.streams[0], archetypes[0].samples)
        neighbor = np.stack([s.samples for s in small_sets[archetypes[1].name]])
        for series in negatives:
            assert any(np.array_equal(series, row) for row in neighbor)


class TestQuantileInterval:
    def test_peaked_quality_brackets_peak(self):
        xs = np.linspace(0, 1, 50)
        quality = -((xs - 0.4) ** 2)
        lo, hi = narrowest_quality_interval(xs, quality)
        cutoff = np.quantile(quality, 0.9)  # independent recomputation
        chosen = xs[quality >= cutoff]
        assert (lo, hi) == (chosen.min(), chosen.max())
        assert lo <= 0.4 <= hi
        assert hi - lo < 0.25

    def test_flat_quality_spans_everything(self):
        xs = np.linspace(0, 1, 10)
        lo, hi = narrowest_quality_interval(xs, np.zeros(10))
        assert (lo, hi) == (0.0, 1.0)


class TestGlobalTraining:
    def test_interval_excludes_extreme_evaporations(self, small_sets, archetypes):
        bounds = global_training(archetypes, small_sets, ParamBounds.coarse(),
                                 SMALL_DE)
        lo, hi = bounds.intervals["delta"]
        coarse_lo, coarse_hi = ParamBounds.coarse().intervals["delta"]
        assert lo > coarse_lo
        assert hi < coarse_hi

    def test_domain_constraints_passed_through(self, small_sets, archetypes):
        bounds = global_training(archetypes, small_sets, ParamBounds.coarse(),
                                 SMALL_DE)
        for key, interval in calibrate.DOMAIN_INTERVALS.items():
            assert bounds.intervals[key] == interval

    def test_flat_sweep_warns_and_keeps_full_interval(self, small_sets, archetypes,
                                                      monkeypatch):
        monkeypatch.setattr(calibrate, "population_fitness",
                            lambda pmat, pairs:
                            np.zeros(np.atleast_2d(pmat).shape[0]))
        with pytest.warns(UserWarning):
            bounds = global_training(archetypes, small_sets,
                                     ParamBounds.coarse(), SMALL_DE)
        assert bounds.intervals["delta"] == ParamBounds.coarse().intervals["delta"]


@pytest.fixture(scope="module")
def trained(small_sets, archetypes):
    bounds = global_training(archetypes, small_sets, ParamBounds.coarse(),
                             SMALL_DE)
    sp, histories = local_training(StigmergicPerceptron.untrained(DAY),
                                   bounds, SMALL_DE, small_sets)
    return bounds, sp, histories


class TestLocalTraining:
    def test_training_beats_mid_bounds(self, trained, small_sets, archetypes):
        bounds, sp, _ = trained
        by_enum = {a.enumeration: small_sets[a.name] for a in archetypes}
        for archetype, params in sp.fields:
            pairs = training_pairs_for_field(archetype.enumeration, by_enum,
                                             archetype.samples)
            assert (population_fitness(params.to_vector(), pairs)[0]
                    < population_fitness(bounds.mid_params().to_vector(), pairs)[0])

    def test_margin_on_held_out_perturbations(self, trained, archetypes):
        _, sp, _ = trained
        held_out = archetype_training_sets(DAY, per_class=4, noise=0.05,
                                           max_shift=3, seed=77)
        asleep, params = sp.fields[0]
        own = np.stack([s.samples for s in held_out["Asleep"]])
        adj = np.stack([s.samples for s in held_out["Awakening"]])
        ref = np.tile(asleep.samples, (4, 1))
        own_scores = pair_similarity(own, ref, params)
        adj_scores = pair_similarity(adj, ref, params)
        assert own_scores.mean() > adj_scores.mean()

    def test_histories_decrease(self, trained):
        _, _, histories = trained
        assert len(histories) == 7
        for history in histories.values():
            assert history[-1] <= history[0]

    def test_field_order_independent(self, small_sets, archetypes, trained):
        bounds, sp, _ = trained
        reordered = dict(reversed(list(small_sets.items())))
        sp2, _ = local_training(StigmergicPerceptron.untrained(DAY), bounds,
                                SMALL_DE, reordered)
        assert [p for _, p in sp2.fields] == [p for _, p in sp.fields]


def test_train_perceptron_is_global_then_local_training(small_sets, trained):
    bounds, sp, histories = trained
    sp2, bounds2, histories2 = train_perceptron(small_sets, DAY, SMALL_DE)
    assert [a.name for a, _ in sp2.fields] == [a.name for a, _ in sp.fields]
    for (_, p), (_, p2) in zip(sp.fields, sp2.fields):
        assert np.array_equal(p.to_vector(), p2.to_vector())
    assert bounds2.intervals == bounds.intervals
    assert histories2 == histories


class TestPatternTrainingSets:
    # day k: (level series, class, flagged)
    DAYS = [("w0", "W", False), ("e0", "E", False), ("w1", "W", True),
            ("w2", "W", False), ("e1", "E", True), ("w3", "W", False),
            ("e2", "E", False)]

    def sets(self, per_class):
        return pattern_training_sets(*zip(*self.DAYS), per_class)

    def test_skips_flagged_days_and_keeps_day_order(self):
        assert self.sets(10) == {"W": ["w0", "w2", "w3"], "E": ["e0", "e2"], "L": []}

    def test_caps_each_class(self):
        assert self.sets(2) == {"W": ["w0", "w2"], "E": ["e0", "e2"], "L": []}
        assert self.sets(1) == {"W": ["w0"], "E": ["e0"], "L": []}

    def test_per_class_below_one_rejected(self):
        for per_class in (0, -1):
            with pytest.raises(ValueError, match="pattern_per_class"):
                self.sets(per_class)


class TestPatternTraining:
    def make_levels(self, seed):
        rng = np.random.default_rng(seed)
        sets = {}
        for k, letter in enumerate("WEL"):
            base = np.full(40, 2.0 * k + 1.5)
            sets[letter] = [ActivityLevelSeries(
                np.clip(base + rng.normal(0, 0.15, 40), 0, 7)) for _ in range(4)]
        return sets

    def test_pair_count_and_targets(self):
        sets = self.make_levels(0)
        pairs = pattern_training_pairs(sets)
        assert pairs.targets.size == 12 * 13 // 2
        assert set(pairs.targets.tolist()) == {0.0, 1.0}

    def test_training_separates_classes(self):
        sets = self.make_levels(1)
        params, history = train_pattern_field(
            sets, ParamBounds.coarse(), DeConfig(population_size=10,
                                                 generations=15, seed=9))
        assert history[-1] < 0.05
        same = pair_similarity(sets["W"][0].levels / 7, sets["W"][1].levels / 7, params)
        cross = pair_similarity(sets["W"][0].levels / 7, sets["L"][0].levels / 7, params)
        assert same[0] > cross[0] + 0.5


class TestThresholds:
    def test_separable_indices_reach_full_accuracy(self):
        entries = []
        rng = np.random.default_rng(0)
        for letter in "WEL":
            entries += [(letter, float(rng.uniform(0.0, 0.2)), False)
                        for _ in range(20)]
            entries += [(letter, float(rng.uniform(0.6, 1.0)), True)
                        for _ in range(3)]
        result = tune_thresholds(entries, DeConfig(seed=5))
        assert result.accuracy == 1.0
        for letter in "WEL":
            top_normal = max(v for c, v, f in entries if c == letter and not f)
            low_anomaly = min(v for c, v, f in entries if c == letter and f)
            assert top_normal <= result.thresholds[letter] < low_anomaly

    def test_all_normal_days(self):
        entries = [(letter, 0.1, False) for letter in "WEL" for _ in range(4)]
        result = tune_thresholds(entries, DeConfig(seed=6))
        assert result.accuracy == 1.0

    def test_missing_class_rejected(self):
        entries = [("W", 0.1, False), ("E", 0.2, True)]
        with pytest.raises(ValueError):
            tune_thresholds(entries, SMALL_DE)
