import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbcboost import cascade as casc
from sbcboost import cli, hpo
from sbcboost.cascade import LastStagePolicy, order_classes
from sbcboost.data import class_frequencies
from sbcboost.errors import FoldDegenerate, StageError, ValueNotInGrid
from sbcboost.gbt import GbtParams
from sbcboost.hpo import (
    CvConfig,
    HalvingConfig,
    HpGrid,
    HpoResult,
    Trial,
    cross_validate,
    grid_search,
    halving_grid_search,
    halving_schedule,
    phgs_cascade,
    prune_grid,
)

from conftest import blob_dataset, gaussian_blobs

FAST = GbtParams(num_rounds=5, max_depth=2, seed=0)


class TestCrossValidate:
    def test_perfect_separable(self):
        X, y = gaussian_blobs([60, 60], seed=1)
        score = cross_validate(X, y, FAST, CvConfig(folds=3, seed=0), "binary")
        assert score == pytest.approx(1.0)

    def test_accuracy_metric(self):
        X, y = gaussian_blobs([90, 90], seed=2)
        score = cross_validate(
            X, y, FAST, CvConfig(folds=3, metric="accuracy", seed=0), "binary"
        )
        assert score == pytest.approx(1.0)

    def test_fold_determinism(self):
        X, y = gaussian_blobs([50, 30, 20], scale=4.0, seed=3)
        cv = CvConfig(folds=4, seed=9)
        a = cross_validate(X, y, FAST, cv, "multiclass")
        b = cross_validate(X, y, FAST, cv, "multiclass")
        assert a == b

    def test_fold_count_capped_at_rows(self):
        """Past the row count every fold is empty, so capping the count
        there changes none of the folds before it."""
        def uncapped(y, cv):
            rng = np.random.default_rng(cv.seed)
            fold_of = np.empty(y.size, dtype=np.int64)
            for c in np.unique(y):
                idx = np.flatnonzero(y == c)
                idx = idx[rng.permutation(idx.size)]
                fold_of[idx] = np.arange(idx.size) % cv.folds
            return [np.flatnonzero(fold_of == f) for f in range(cv.folds)]

        rng = np.random.default_rng(4)
        for _ in range(200):
            y = rng.integers(0, rng.integers(1, 5), size=rng.integers(1, 30))
            cv = CvConfig(folds=int(rng.integers(2, 40)), seed=int(rng.integers(0, 9)))
            want = uncapped(y, cv)
            got = hpo._kfold_indices(y, cv)
            assert len(got) == min(cv.folds, y.size)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert all(w.size == 0 for w in want[len(got):])

    def test_degenerate_fold(self):
        X = np.random.default_rng(0).normal(size=(6, 2))
        y = np.array([0, 0, 0, 0, 0, 1])
        with pytest.raises(FoldDegenerate):
            cross_validate(X, y, FAST, CvConfig(folds=3, seed=0), "binary")


class TestFamilies:
    """Candidates that differ only in num_rounds share one fit per fold."""

    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    @pytest.mark.parametrize("weights_mode", ["none", "inverse_frequency"])
    @pytest.mark.parametrize("objective", ["binary", "multiclass"])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_family_scores_equal_single_scores(self, objective, weights_mode, subsample, data):
        n_classes = 2 if objective == "binary" else 3
        counts = data.draw(st.lists(st.integers(9, 40), min_size=n_classes, max_size=n_classes))
        X, y = gaussian_blobs(counts, scale=data.draw(st.sampled_from([3.0, 8.0])),
                              seed=data.draw(st.integers(0, 2**16)), n_features=3)
        base = GbtParams(learning_rate=data.draw(st.sampled_from([0.1, 0.3, 1.0])),
                         max_depth=data.draw(st.integers(1, 3)), subsample=subsample,
                         seed=data.draw(st.integers(0, 100)))
        cv = CvConfig(folds=3, metric=data.draw(st.sampled_from(["macro_f1", "accuracy"])),
                      seed=data.draw(st.integers(0, 100)))
        family = [replace(base, num_rounds=r) for r in data.draw(st.permutations([2, 3, 5]))]
        got = cross_validate(X, y, family, cv, objective, weights_mode)
        assert got == [cross_validate(X, y, p, cv, objective, weights_mode) for p in family]

    def test_family_differing_in_more_than_num_rounds(self):
        X, y = gaussian_blobs([30, 30], seed=1)
        family = [replace(FAST, num_rounds=2), replace(FAST, num_rounds=3, max_depth=3)]
        with pytest.raises(ValueError, match="only in num_rounds"):
            cross_validate(X, y, family, CvConfig(folds=3), "binary")

    def test_one_fit_per_family_per_fold(self):
        """Two families of three: 2 x 3 folds fits, not 6 x 3."""
        X, y = gaussian_blobs([60, 45], scale=4.0, seed=5)
        grid = HpGrid.from_mapping({"max_depth": [1, 2], "num_rounds": [2, 3, 5]})
        with mock.patch.object(hpo.gbt, "train_binary", wraps=hpo.gbt.train_binary) as fit:
            result = grid_search(grid, X, y, CvConfig(folds=3), base_params=FAST)
        assert fit.call_count == 6
        assert {call.args[3].num_rounds for call in fit.call_args_list} == {5}
        for t in result.trials:
            params = replace(FAST, **t.params)
            assert t.score == cross_validate(X, y, params, CvConfig(folds=3), "binary")
        # a family's members share its seconds equally, so the trials' seconds
        # sum to no more than the search's wall clock
        assert len({t.seconds for t in result.trials[:3]}) == 1
        assert len({t.seconds for t in result.trials[3:]}) == 1
        assert sum(t.seconds for t in result.trials) <= result.wall_clock


class TestGrid:
    def test_ascending_required(self):
        with pytest.raises(ValueError):
            HpGrid.from_mapping({"max_depth": [5, 3]})

    def test_combination_count(self):
        g = HpGrid.from_mapping({"max_depth": [2, 3, 4], "num_rounds": [5, 10]})
        assert g.size() == 6
        assert len(g.combinations()) == 6

    def test_enumeration_order_lexicographic(self):
        g = HpGrid.from_mapping({"num_rounds": [5, 10], "max_depth": [2, 3]})
        combos = g.combinations()
        assert combos[0] == {"max_depth": 2, "num_rounds": 5}
        assert combos[1] == {"max_depth": 2, "num_rounds": 10}

    def test_grid_file(self, tmp_path):
        p = tmp_path / "grid.json"
        p.write_text('{"max_depth": {"values": [2, 4], "prune": "upper_bound"}}')
        g = HpGrid.from_file(str(p))
        assert g.values["max_depth"] == (2, 4)
        assert g.prune["max_depth"] == "upper_bound"


class TestGridSearch:
    def test_single_combination(self):
        X, y = gaussian_blobs([40, 40], seed=4)
        g = HpGrid.from_mapping({"max_depth": [2]})
        res = grid_search(g, X, y, CvConfig(folds=2, seed=0), "binary", base_params=FAST)
        assert len(res.trials) == 1
        assert res.best_params.max_depth == 2

    def test_all_combinations_tried(self):
        X, y = gaussian_blobs([40, 40], seed=5)
        g = HpGrid.from_mapping({"max_depth": [2, 3, 4], "num_rounds": [3, 6]})
        res = grid_search(g, X, y, CvConfig(folds=2, seed=0), "binary", base_params=FAST)
        assert len(res.trials) == 6

    def test_best_matches_external_loop(self):
        X, y = gaussian_blobs([120, 60, 40, 20], scale=4.0, seed=6)
        g = HpGrid.from_mapping({"max_depth": [1, 3], "learning_rate": [0.1, 0.5]})
        cv = CvConfig(folds=3, seed=1)
        res = grid_search(g, X, y, cv, "multiclass", base_params=FAST)
        # oracle: independent re-run per combination
        best_score, best_combo = -1.0, None
        for combo in g.combinations():
            s = cross_validate(
                X, y, replace(FAST, **combo), cv, "multiclass"
            )
            if s > best_score:
                best_score, best_combo = s, combo
        assert res.best_score == pytest.approx(best_score)
        assert all(getattr(res.best_params, k) == v for k, v in best_combo.items())

    def test_optimality_invariant(self):
        X, y = gaussian_blobs([60, 40], scale=3.0, seed=7)
        g = HpGrid.from_mapping({"max_depth": [1, 2], "num_rounds": [2, 4]})
        res = grid_search(g, X, y, CvConfig(folds=2, seed=0), "binary", base_params=FAST)
        assert all(res.best_score >= t.score for t in res.trials)


class TestHalving:
    def test_schedule_9_factor3(self):
        sched = halving_schedule(9, 10_000, 3, 100)
        assert [n for n, _ in sched] == [9, 3, 1]
        assert [r for _, r in sched] == [100, 300, 900]

    def test_schedule_resource_cap(self):
        sched = halving_schedule(9, 500, 3, 100)
        assert sched == [(9, 100), (3, 300), (1, 500)]

    def test_schedule_terminates_on_full_data(self):
        sched = halving_schedule(20, 150, 2, 100)
        assert sched == [(20, 100), (10, 150)]

    def test_winner_close_to_gs(self):
        X, y = gaussian_blobs([300, 150, 80, 40], scale=5.0, seed=8)
        g = HpGrid.from_mapping({"max_depth": [1, 2, 3], "num_rounds": [3, 6]})
        cv = CvConfig(folds=3, seed=2)
        gs = grid_search(g, X, y, cv, "multiclass", base_params=FAST)
        hgs = halving_grid_search(
            g, X, y, cv, HalvingConfig(factor=3, min_resources=120, seed=2),
            "multiclass", base_params=FAST,
        )
        hgs_full = cross_validate(X, y, hgs.best_params, cv, "multiclass")
        assert gs.best_score - hgs_full <= 0.05

    def test_trials_record_schedule(self):
        X, y = gaussian_blobs([200, 200], seed=9)
        g = HpGrid.from_mapping({"max_depth": [1, 2, 3, 4]})
        hc = HalvingConfig(factor=2, min_resources=80, seed=0)
        res = halving_grid_search(g, X, y, CvConfig(folds=2, seed=0), hc, "binary", base_params=FAST)
        # the 160-row rung leaves one candidate: the 320-row rung is not scored,
        # and the winner is not re-scored on all 400 rows
        assert [t.resources for t in res.trials] == [80] * 4 + [160] * 2
        winner = {"max_depth": res.best_params.max_depth}
        assert res.best_score == max(t.score for t in res.trials[4:])
        assert [t.score for t in res.trials[4:] if t.params == winner] == [res.best_score]

    def test_determinism(self):
        X, y = gaussian_blobs([150, 80], scale=3.0, seed=10)
        g = HpGrid.from_mapping({"max_depth": [1, 2, 3]})
        hc = HalvingConfig(factor=2, min_resources=60, seed=5)
        cv = CvConfig(folds=2, seed=5)
        a = halving_grid_search(g, X, y, cv, hc, "binary", base_params=FAST)
        b = halving_grid_search(g, X, y, cv, hc, "binary", base_params=FAST)
        assert a.best_params == b.best_params
        assert [t.score for t in a.trials] == [t.score for t in b.trials]


class TestPrune:
    GRID = HpGrid.from_mapping({
        "max_depth": {"values": [3, 5, 7, 9], "prune": "upper_bound"},
        "num_rounds": {"values": [50, 100, 200], "prune": "upper_bound"},
        "min_child_weight": {"values": [1.0, 5.0], "prune": "lower_bound"},
        "learning_rate": {"values": [0.1, 0.3], "prune": "unpruned"},
    })

    def test_upper_bound(self):
        best = GbtParams(max_depth=5, num_rounds=50, min_child_weight=1.0, learning_rate=0.1)
        pruned = prune_grid(self.GRID, best)
        assert pruned.values["max_depth"] == (3, 5)
        assert pruned.values["num_rounds"] == (50,)

    def test_lower_bound_and_unpruned(self):
        best = GbtParams(max_depth=3, num_rounds=50, min_child_weight=5.0, learning_rate=0.3)
        pruned = prune_grid(self.GRID, best)
        assert pruned.values["min_child_weight"] == (5.0,)
        assert pruned.values["learning_rate"] == (0.1, 0.3)

    def test_best_always_survives(self):
        best = GbtParams(max_depth=9, num_rounds=200, min_child_weight=1.0, learning_rate=0.1)
        pruned = prune_grid(self.GRID, best)
        for name in pruned.values:
            assert getattr(best, name) in pruned.values[name]

    def test_value_not_in_grid(self):
        with pytest.raises(ValueNotInGrid):
            prune_grid(self.GRID, GbtParams(max_depth=4))

    def test_subset_property(self):
        best = GbtParams(max_depth=7, num_rounds=100, min_child_weight=5.0, learning_rate=0.1)
        pruned = prune_grid(self.GRID, best)
        for name, vals in pruned.values.items():
            assert set(vals) <= set(self.GRID.values[name])


class TestPhgs:
    def _setup(self):
        d = blob_dataset([600, 150, 60, 25], scale=1.0, seed=11)
        o = order_classes(class_frequencies(d))
        grid = HpGrid.from_mapping({
            "max_depth": {"values": [1, 2, 3], "prune": "upper_bound"},
            "num_rounds": {"values": [3, 6], "prune": "upper_bound"},
        })
        cv = CvConfig(folds=3, seed=0)
        hc = HalvingConfig(factor=2, min_resources=60, seed=0)
        return d, o, grid, cv, hc

    def test_stage_grids_shrink(self):
        d, o, grid, cv, hc = self._setup()
        model, results = phgs_cascade(d, o, grid, cv, hc, base_params=FAST)
        assert len(model.stages) == 4
        assert len(results) == 4
        # each stage's grid is a subset of the previous: trial param values
        # never exceed the previous stage's best for upper-bounded params
        for prev, cur in zip(results, results[1:]):
            for t in cur.trials:
                assert t.params["max_depth"] <= prev.best_params.max_depth
                assert t.params["num_rounds"] <= prev.best_params.num_rounds

    def test_fewer_trials_than_unpruned(self):
        d, o, grid, cv, hc = self._setup()
        _, pruned_results = phgs_cascade(d, o, grid, cv, hc, base_params=FAST)
        _, plain_results = phgs_cascade(d, o, HpGrid(grid.values, {}), cv, hc, base_params=FAST)
        n_pruned = sum(len(r.trials) for r in pruned_results)
        n_plain = sum(len(r.trials) for r in plain_results)
        interior = any(
            r.best_params.max_depth < 3 or r.best_params.num_rounds < 6
            for r in pruned_results[:-1]
        )
        if interior:
            assert n_pruned < n_plain

    def test_per_stage_gs(self):
        d, o, grid, cv, hc = self._setup()
        model, results = phgs_cascade(
            d, o, HpGrid(grid.values, {}), cv, HalvingConfig(min_resources=d.n_rows),
            base_params=FAST,
        )
        assert all(len(r.trials) == 6 for r in results)
        assert len(model.stages) == 4

    def test_one_walk_over_the_stages(self):
        """train_cascade builds the stage views once and hands each stage's
        rows to that stage's search; the search itself builds none."""
        d, o, grid, cv, hc = self._setup()
        with mock.patch.object(casc, "stage_views", wraps=casc.stage_views) as views:
            model, results = phgs_cascade(d, o, grid, cv, hc, base_params=FAST)
        assert views.call_count == 1
        assert [m.params for m in model.stages] == [r.best_params for r in results]

    def test_failed_search_names_its_stage(self):
        """Stage 1 holds 2 rows of its rarer class, so one of 3 folds sees
        only the stage's own class."""
        d = blob_dataset([60, 30, 2], seed=3)
        o = order_classes(class_frequencies(d))
        with pytest.raises(StageError) as err:
            phgs_cascade(d, o, HpGrid.from_mapping({"max_depth": [1, 2]}), CvConfig(folds=3),
                         HalvingConfig(min_resources=20), base_params=FAST)
        assert err.value.stage == 1
        assert str(err.value) == "stage 1: fold 2 degenerate: validation part has a single class"


# --- differential oracle ---------------------------------------------------
# Exhaustive grid search and per-stage gs/hgs written out directly, without
# successive halving; halving_grid_search and phgs_cascade must reproduce
# them bit for bit when given a single full-data rung or no pruning.

def reference_grid_search(grid, X, y, cv, objective="binary", weights_mode="none",
                          base_params=GbtParams()):
    t_start = time.perf_counter()
    trials = []
    best = None  # (score, index)
    combos = grid.combinations()
    for i, combo in enumerate(combos):
        params = replace(base_params, **combo)
        t0 = time.perf_counter()
        score = cross_validate(X, y, params, cv, objective, weights_mode)
        trials.append(Trial(combo, int(y.size), score, time.perf_counter() - t0))
        if best is None or score > best[0]:
            best = (score, i)
    return HpoResult(
        best_params=replace(base_params, **combos[best[1]]),
        best_score=best[0],
        trials=trials,
        wall_clock=time.perf_counter() - t_start,
    )


def reference_per_stage_search(train, o, grid, cv, mode, hc=None, weights_mode="none",
                               policy=LastStagePolicy(), base_params=GbtParams(),
                               threshold=casc.DEFAULT_THRESHOLD):
    if mode not in ("gs", "hgs", "phgs"):
        raise ValueError(f"mode must be gs, hgs or phgs, got {mode!r}")
    views = casc.stage_views(train, o, policy)
    stage_weights = "none" if weights_mode == "none" else "inverse_frequency"
    results = []
    best_per_stage = []
    for view in views:
        X = train.features[view.row_indices]
        y = view.binary_labels
        try:
            if mode == "gs":
                result = reference_grid_search(grid, X, y, cv, "binary", stage_weights, base_params)
            else:
                result = halving_grid_search(
                    grid, X, y, cv, hc or HalvingConfig(),
                    objective="binary", weights_mode=stage_weights, base_params=base_params,
                )
        except Exception as exc:
            raise StageError(view.stage, exc) from exc
        results.append(result)
        best_per_stage.append(result.best_params)
        if mode == "phgs":
            # the next stage keeps each bounded parameter's values on the
            # winner's side, the winner's own included
            kept = {}
            for name, vals in grid.values.items():
                best, side = getattr(result.best_params, name), grid.prune.get(name)
                kept[name] = tuple(v for v in vals if side not in ("upper_bound", "lower_bound")
                                   or (v <= best if side == "upper_bound" else v >= best))
            grid = HpGrid(kept, grid.prune)

    chosen = iter(best_per_stage)
    model = casc.train_cascade(train, o, lambda X, y: next(chosen), weights_mode, policy,
                               threshold)
    return model, results


class TestSearchDifferential:
    """gs, hgs and phgs read through cli._read_run and run by the one
    halving search reproduce the reference searches bit for bit."""

    # on "separated" every candidate scores the same, so the tie-break
    # decides each winner; on "overlapping" the scores differ
    DATASETS = {
        "separated": dict(counts=[600, 150, 60, 25], scale=1.0, seed=11),
        "overlapping": dict(counts=[300, 120, 45], scale=4.0, seed=4),
    }
    CFG = {
        "grid": {
            "max_depth": {"values": [1, 2, 3], "prune": "upper_bound"},
            "num_rounds": {"values": [3, 6], "prune": "upper_bound"},
        },
        "halving": {"factor": 2, "min_resources": 60, "seed": 3},
    }
    CV = CvConfig(folds=3, seed=1)

    def _run(self, method, mode, weights="none"):
        return cli._read_run(dict(self.CFG, method=method, hpo=mode, weights=weights,
                                  train_csv="unread.csv", cv={"folds": 3, "seed": 1},
                                  params={"num_rounds": 5, "max_depth": 2, "seed": 0}))

    @staticmethod
    def _same(result, ref):
        assert [(t.params, t.resources, t.score) for t in result.trials] == \
            [(t.params, t.resources, t.score) for t in ref.trials]
        assert result.best_params == ref.best_params
        assert result.best_score == ref.best_score

    @pytest.mark.parametrize("data", DATASETS)
    @pytest.mark.parametrize("mode", ["gs", "hgs", "phgs"])
    @pytest.mark.parametrize("weights", ["none", "inverse_frequency"])
    def test_cascade(self, data, mode, weights):
        d = blob_dataset(**self.DATASETS[data])
        o = order_classes(class_frequencies(d))
        model, results, _ = cli._train_one(self._run("sbc", mode, weights), d)

        full_grid = HpGrid.from_mapping(self.CFG["grid"])
        full_hc = HalvingConfig(**self.CFG["halving"])
        ref_model, ref_results = reference_per_stage_search(
            d, o, full_grid, self.CV, mode, full_hc, weights, base_params=FAST
        )
        assert len(results) == len(ref_results) == o.n
        for result, ref in zip(results, ref_results):
            self._same(result, ref)
        assert [m.to_dict() for m in model.stages] == [m.to_dict() for m in ref_model.stages]

    @pytest.mark.parametrize("data", DATASETS)
    @pytest.mark.parametrize("mode", ["gs", "hgs"])
    @pytest.mark.parametrize("objective", ["binary", "multiclass"])
    def test_single_search(self, data, mode, objective):
        X, y = gaussian_blobs(**self.DATASETS[data])
        if objective == "binary":
            y = (y == 0).astype(np.int64)
        run = self._run("mcc", mode)
        hc = run.halving or HalvingConfig(min_resources=y.size)  # gs: one rung, every row
        result = halving_grid_search(run.grid, X, y, run.cv, hc, objective, base_params=run.params)

        full_grid = HpGrid.from_mapping(self.CFG["grid"])
        if mode == "gs":
            ref = reference_grid_search(full_grid, X, y, self.CV, objective, base_params=FAST)
            self._same(grid_search(full_grid, X, y, self.CV, objective, base_params=FAST), ref)
        else:
            ref = halving_grid_search(
                full_grid, X, y, self.CV, HalvingConfig(**self.CFG["halving"]), objective,
                base_params=FAST,
            )
        self._same(result, ref)


def reference_halving_grid_search(grid, X, y, cv, hc, objective="binary", weights_mode="none",
                                  base_params=GbtParams()):
    """Successive halving that scores every rung, a single survivor's too,
    and re-scores the winner on all rows when the schedule stopped short of
    them (oracle)."""
    t_start = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    combos = grid.combinations()
    schedule = halving_schedule(len(combos), y.size, hc.factor, hc.min_resources)

    trials = []
    survivors = list(range(len(combos)))
    last_scores = {}
    for it, (n_cand, resources) in enumerate(schedule):
        assert len(survivors) == n_cand
        rng = np.random.default_rng(hc.seed + it)
        sub = hpo._stratified_subsample(y, resources, cv.folds, rng)
        scores = []
        for ci in survivors:
            params = replace(base_params, **combos[ci])
            t0 = time.perf_counter()
            score = cross_validate(X[sub], y[sub], params, cv, objective, weights_mode)
            trials.append(Trial(combos[ci], int(resources), score, time.perf_counter() - t0))
            scores.append(score)
        last_scores = dict(zip(survivors, scores))
        if it < len(schedule) - 1:
            keep = math.ceil(n_cand / hc.factor)
            order = sorted(range(len(survivors)), key=lambda j: -scores[j])
            survivors = sorted(survivors[j] for j in order[:keep])

    winner = max(survivors, key=lambda ci: (last_scores[ci], -ci))
    best_params = replace(base_params, **combos[winner])
    best_score = last_scores[winner]
    if schedule[-1][1] < y.size:
        t0 = time.perf_counter()
        best_score = cross_validate(X, y, best_params, cv, objective, weights_mode)
        trials.append(Trial(combos[winner], int(y.size), best_score, time.perf_counter() - t0))
    return HpoResult(
        best_params=best_params,
        best_score=best_score,
        trials=trials,
        wall_clock=time.perf_counter() - t_start,
    )


class TestHalvingDifferential:
    """halving_grid_search picks the reference's winner and scores the
    reference's trials, less its single-survivor rungs and its re-score;
    best_score is the winner's score at the last rung scored."""

    FAST_GRID = {"max_depth": [1, 2, 3], "num_rounds": [3, 6]}
    CV = CvConfig(folds=3, seed=1)

    @staticmethod
    def _expected(grid, n_rows, hc, ref):
        """The reference's trials without those the search skips."""
        schedule = halving_schedule(grid.size(), n_rows, hc.factor, hc.min_resources)
        if len(schedule) > 1 and schedule[-1][0] == 1:
            schedule = schedule[:-1]
        return ref.trials[:sum(n for n, _ in schedule)]

    def _check(self, result, ref, grid, n_rows, hc):
        want = self._expected(grid, n_rows, hc, ref)
        assert [(t.params, t.resources, t.score) for t in result.trials] == \
            [(t.params, t.resources, t.score) for t in want]
        assert result.best_params == ref.best_params
        last = [t for t in want if t.resources == want[-1].resources]
        winner = [t.score for t in last
                  if all(getattr(ref.best_params, k) == v for k, v in t.params.items())]
        assert [result.best_score] == winner

    # (grid, rows per class, halving config, the schedule it must run)
    CASES = {
        # 6 -> 3 -> 2 -> 1 candidates: the 1-candidate rung and the re-score go
        "single_survivor": (FAST_GRID, [250, 150], HalvingConfig(factor=2, min_resources=40, seed=3),
                            [(6, 40), (3, 80), (2, 160), (1, 320)]),
        # 1 -> at the row cap with 2 left: nothing goes
        "row_cap": (FAST_GRID, [50, 40], HalvingConfig(factor=3, min_resources=40, seed=0),
                    [(6, 40), (2, 90)]),
        # the first rung already holds one candidate: it is scored, not re-scored
        "one_candidate": ({"max_depth": [2]}, [80, 60], HalvingConfig(factor=2, min_resources=50),
                          [(1, 50)]),
        # the single survivor's rung is on all rows: skipped, and no re-score
        "single_survivor_at_cap": (FAST_GRID, [120, 80], HalvingConfig(factor=3, min_resources=40),
                                   [(6, 40), (2, 120), (1, 200)]),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("objective", ["binary", "multiclass"])
    def test_single_search(self, case, objective):
        mapping, counts, hc, schedule = self.CASES[case]
        if objective == "multiclass":
            counts = [counts[0] - 20, counts[1], 20]
        X, y = gaussian_blobs(counts, scale=6.0, seed=2)
        grid = HpGrid.from_mapping(mapping)
        assert halving_schedule(grid.size(), y.size, hc.factor, hc.min_resources) == schedule
        result = halving_grid_search(grid, X, y, self.CV, hc, objective, base_params=FAST)
        ref = reference_halving_grid_search(grid, X, y, self.CV, hc, objective, base_params=FAST)
        self._check(result, ref, grid, y.size, hc)

    @pytest.mark.parametrize("weights", ["none", "inverse_frequency"])
    def test_phgs_cascade(self, weights):
        d = blob_dataset([400, 150, 60, 25], scale=3.0, seed=11)
        o = order_classes(class_frequencies(d))
        grid = HpGrid.from_mapping({
            "max_depth": {"values": [1, 2, 3], "prune": "upper_bound"},
            "num_rounds": {"values": [3, 6], "prune": "upper_bound"},
        })
        hc = HalvingConfig(factor=2, min_resources=60, seed=3)
        model, results = phgs_cascade(d, o, grid, self.CV, hc, weights, base_params=FAST)
        with mock.patch.object(hpo, "halving_grid_search", reference_halving_grid_search):
            ref_model, ref_results = phgs_cascade(d, o, grid, self.CV, hc, weights,
                                                  base_params=FAST)
        assert len(results) == len(ref_results) == o.n
        views = casc.stage_views(d, o, LastStagePolicy())
        for result, ref, view in zip(results, ref_results, views):
            stage_grid = HpGrid.from_mapping({k: sorted({t.params[k] for t in ref.trials})
                                              for k in ref.trials[0].params})
            self._check(result, ref, stage_grid, view.row_indices.size, hc)
        assert [m.to_dict() for m in model.stages] == [m.to_dict() for m in ref_model.stages]


# --- the per-class shuffle and the halving loop as they were written before
# data.shuffled_classes and the ranked list: oracles, bit for bit

def reference_kfold_indices(y, cv):
    rng = np.random.default_rng(cv.seed)
    folds = min(cv.folds, y.size)
    fold_of = np.empty(y.size, dtype=np.int64)
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(idx.size)]
        fold_of[idx] = np.arange(idx.size) % folds
    return [np.flatnonzero(fold_of == f) for f in range(folds)]


def reference_stratified_subsample(y, size, folds, rng):
    n = y.size
    if size >= n:
        return np.arange(n)
    idx_parts = []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        quota = int(round(size * idx.size / n))
        quota = max(quota, min(idx.size, folds))
        quota = min(quota, idx.size)
        perm = rng.permutation(idx.size)
        idx_parts.append(idx[perm[:quota]])
    return np.sort(np.concatenate(idx_parts))


def reference_ranked_halving(grid, X, y, cv, hc, objective="binary", weights_mode="none",
                             base_params=GbtParams()):
    """halving_grid_search as it counted survivors with ceil(n / factor) and
    picked the winner with a separate max (oracle)."""
    t_start = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    combos = grid.combinations()
    schedule = halving_schedule(len(combos), y.size, hc.factor, hc.min_resources)

    trials = []
    survivors = list(range(len(combos)))
    last_scores = {}
    for it, (n_cand, resources) in enumerate(schedule):
        assert len(survivors) == n_cand
        if it and n_cand == 1:
            break
        rng = np.random.default_rng(hc.seed + it)
        sub = reference_stratified_subsample(y, resources, cv.folds, rng)
        scores = []
        for ci in survivors:
            params = replace(base_params, **combos[ci])
            t0 = time.perf_counter()
            score = hpo.cross_validate(X[sub], y[sub], params, cv, objective, weights_mode)
            trials.append(Trial(combos[ci], int(resources), score, time.perf_counter() - t0))
            scores.append(score)
        last_scores = dict(zip(survivors, scores))
        if it < len(schedule) - 1:
            keep = math.ceil(n_cand / hc.factor)
            order = sorted(range(len(survivors)), key=lambda j: -scores[j])
            survivors = sorted(survivors[j] for j in order[:keep])

    winner = max(survivors, key=lambda ci: (last_scores[ci], -ci))
    return HpoResult(
        best_params=replace(base_params, **combos[winner]),
        best_score=last_scores[winner],
        trials=trials,
        wall_clock=time.perf_counter() - t_start,
    )


@st.composite
def class_labels(draw, max_rows=60):
    """Labels over sparse class ids (some ids absent), single-row classes
    among them, in shuffled row order."""
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(1, max_rows // len(ids)) | st.just(1),
                           min_size=len(ids), max_size=len(ids)))
    y = np.repeat(np.array(ids, dtype=np.int64), counts)
    return y[draw(st.permutations(range(y.size)))]


class TestShuffleDifferential:
    @given(y=class_labels(), folds=st.integers(2, 70), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_kfold_indices(self, y, folds, seed):
        """folds > rows among the draws."""
        cv = CvConfig(folds=folds, seed=seed)
        got, want = hpo._kfold_indices(y, cv), reference_kfold_indices(y, cv)
        assert [f.tolist() for f in got] == [f.tolist() for f in want]

    @given(y=class_labels(), data=st.data(), folds=st.integers(2, 8),
           seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_stratified_subsample(self, y, data, folds, seed):
        """size >= rows among the draws; the generator must also be left in
        the same state for the next draw from it."""
        size = data.draw(st.integers(1, y.size + 3))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = hpo._stratified_subsample(y, size, folds, rng)
        want = reference_stratified_subsample(y, size, folds, ref_rng)
        assert got.tolist() == want.tolist()
        assert rng.integers(2**62) == ref_rng.integers(2**62)


@st.composite
def tied_searches(draw):
    """A grid, labels, a halving config and a score table of few levels, so
    many candidates tie."""
    values = {
        "max_depth": st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
        "num_rounds": st.lists(st.integers(1, 50), min_size=1, max_size=4, unique=True),
        "learning_rate": st.lists(st.sampled_from([0.05, 0.1, 0.3, 1.0]), min_size=1,
                                  max_size=3, unique=True),
        # enumerated after num_rounds, so a num_rounds family is not contiguous
        "subsample": st.lists(st.sampled_from([0.5, 0.7, 1.0]), min_size=1, max_size=2,
                              unique=True),
    }
    names = draw(st.lists(st.sampled_from(sorted(values)), min_size=1, unique=True))
    grid = HpGrid.from_mapping({n: sorted(draw(values[n])) for n in names})
    y = draw(class_labels(max_rows=120))
    hc = HalvingConfig(factor=draw(st.integers(2, 4)),
                       min_resources=draw(st.integers(1, y.size + 2)),
                       seed=draw(st.integers(0, 1000)))
    cv = CvConfig(folds=draw(st.integers(2, 5)), seed=draw(st.integers(0, 1000)))
    levels = draw(st.integers(1, 4))
    table = draw(st.lists(st.integers(0, levels - 1), min_size=grid.size(),
                          max_size=grid.size()))
    return grid, y, hc, cv, levels, table


class TestRankedHalvingDifferential:
    @given(tied_searches())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        """A fake CV score from the candidate's table entry and the rows of
        its rung's subsample ties candidates at will; the winner, its score
        and every trial but its time must match."""
        grid, y, hc, cv, levels, table = case
        X = np.arange(y.size, dtype=np.float64).reshape(-1, 1)  # column 0: row ids
        combos = grid.combinations()

        def score(X, y, family, cv, objective, weights_mode):
            # a rung hands over each family of candidates at once, as a list
            return [one_score(X, params) for params in family] \
                if isinstance(family, list) else one_score(X, family)

        def one_score(X, params):
            ci = combos.index({k: getattr(params, k) for k in combos[0]})
            return (table[ci] + int(X[:, 0].sum())) % levels / levels

        with mock.patch.object(hpo, "cross_validate", score):
            got = halving_grid_search(grid, X, y, cv, hc)
            want = reference_ranked_halving(grid, X, y, cv, hc)
        assert got.best_params == want.best_params
        assert got.best_score == want.best_score
        assert [(t.params, t.resources, t.score) for t in got.trials] == \
            [(t.params, t.resources, t.score) for t in want.trials]
