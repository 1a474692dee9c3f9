import json
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sbcboost.cascade import (
    UNKNOWN_ACTIONS,
    ClassOrdering,
    LastStagePolicy,
    Prediction,
    SbcModel,
    binarize_stage,
    last_stage_view,
    order_classes,
    predict_batch,
    route,
    train_cascade,
)
from sbcboost.data import Dataset, class_frequencies
from sbcboost.errors import (
    DimensionMismatch,
    LabelOutOfRange,
    PolicySourceEmpty,
    StageOutOfRange,
    TooFewClasses,
)
from sbcboost.gbt import GbtParams, train_binary
from sbcboost.metrics import UNKNOWN

from conftest import blob_dataset

PARAMS = GbtParams(num_rounds=8, max_depth=3, seed=4)


def reference_predict(m: SbcModel, x: np.ndarray) -> Prediction:
    """Walk stages 0,1,... stopping at the first probability >= threshold."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != m.n_features:
        raise DimensionMismatch(f"expected {m.n_features} features, got {x.shape[1]}")
    trace: list[tuple[int, float]] = []
    for i, stage in enumerate(m.stages):
        p = float(stage.predict_proba(x)[0])
        trace.append((i, p))
        if p >= m.thresholds[i]:
            return Prediction(m.ordering.class_at[i], trace)
    return Prediction(None, trace)


def reference_predict_batch(m: SbcModel, X: np.ndarray,
                            unknown_action: str = "emit_unknown") -> list[Prediction]:
    """The batch stage walk that route and its per-row view replaced: one
    trace list per row, appended stage by stage (oracle)."""
    if unknown_action not in UNKNOWN_ACTIONS:
        raise ValueError(f"unknown_action {unknown_action!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != m.n_features:
        raise DimensionMismatch(f"expected {m.n_features} features, got {X.shape[1]}")

    n_rows = X.shape[0]
    traces: list[list[tuple[int, float]]] = [[] for _ in range(n_rows)]
    outcome = np.full(n_rows, -1, dtype=np.int64)
    active = np.arange(n_rows)
    for i, stage in enumerate(m.stages):
        if active.size == 0:
            break
        probs = stage.predict_proba(X[active])
        accepted = probs >= m.thresholds[i]
        for r, p in zip(active, probs):
            traces[r].append((i, float(p)))
        outcome[active[accepted]] = m.ordering.class_at[i]
        active = active[~accepted]

    preds = []
    for r in range(n_rows):
        if outcome[r] >= 0:
            preds.append(Prediction(int(outcome[r]), traces[r]))
        elif unknown_action == "assign_last_class":
            preds.append(Prediction(m.ordering.class_at[m.ordering.n - 1], traces[r]))
        else:
            preds.append(Prediction(None, traces[r]))
    return preds


@lru_cache(maxsize=None)
def routing_model() -> SbcModel:
    """A four-stage cascade over two features, its class ids permuted by the
    ordering."""
    d = blob_dataset([10, 400, 20, 80], seed=9)
    return train_cascade(d, order_classes(class_frequencies(d)), PARAMS)


@st.composite
def routing_cases(draw):
    """Thresholds in (0, 1) for routing_model, rows for it (a batch, maybe
    empty, or one 1-D row) whose cells may be NaN or inf, and an unknown
    action."""
    thresholds = draw(st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True),
                               min_size=4, max_size=4))
    shape = draw(st.just((2,)) | st.tuples(st.integers(0, 25), st.just(2)))
    cells = st.floats(-15, 15) | st.sampled_from([np.nan, np.inf, -np.inf])
    return thresholds, draw(hnp.arrays(np.float64, shape, elements=cells)), \
        draw(st.sampled_from(UNKNOWN_ACTIONS))


def assert_routes_as_reference(thresholds, X, unknown_action) -> list[Prediction]:
    """route's classes and predict_batch's classes and traces equal the
    reference walk's; returns the reference's predictions."""
    m = replace(routing_model(), thresholds=thresholds)
    want = reference_predict_batch(m, X, unknown_action)
    class_id, proba = route(m, X, unknown_action)
    assert class_id.dtype == np.int64
    assert proba.shape == (len(want), m.ordering.n)
    assert class_id.tolist() == [UNKNOWN if p.is_unknown else p.class_id for p in want]
    got = predict_batch(m, X, unknown_action)
    assert [p.class_id for p in got] == [p.class_id for p in want]
    assert [p.stage_trace for p in got] == [p.stage_trace for p in want]
    return want


class TestOrdering:
    def test_sort(self):
        o = order_classes({0: 5, 1: 10, 2: 2})
        assert o.class_at == (1, 0, 2)
        assert o.ranks(np.array([1, 0, 2])).tolist() == [0, 1, 2]

    def test_tie_lower_id(self):
        o = order_classes({1: 3, 0: 3})
        assert o.class_at == (0, 1)

    def test_too_few(self):
        with pytest.raises(TooFewClasses):
            order_classes({0: 5})

    def test_bijection(self):
        o = order_classes({0: 7, 1: 1, 2: 9, 3: 3})
        assert o.ranks(np.array(o.class_at)).tolist() == list(range(o.n))


class TestStageViews:
    def _data(self, counts):
        return blob_dataset(counts, seed=1)

    def test_stage0_counts(self):
        d = self._data([100, 10, 5])
        o = order_classes(class_frequencies(d))
        v = binarize_stage(d, o, 0)
        assert v.n_rows == 115
        assert v.n_positive == 100

    def test_stage1_excludes_majority(self):
        d = self._data([100, 10, 5])
        o = order_classes(class_frequencies(d))
        v = binarize_stage(d, o, 1)
        assert v.n_rows == 15
        assert v.n_positive == 10
        assert not np.any(d.labels[v.row_indices] == 0)

    def test_out_of_range(self):
        d = self._data([10, 5, 3])
        o = order_classes(class_frequencies(d))
        with pytest.raises(StageOutOfRange):
            binarize_stage(d, o, 2)  # last stage needs last_stage_view

    def test_ranks_match_row_lookup(self):
        # class ids the ordering permutes, so a rank is not its class id
        d = self._data([5, 40, 12, 40])
        o = order_classes(class_frequencies(d))
        ranks = np.array([o.class_at.index(int(c)) for c in d.labels])  # row by row (oracle)
        for i in range(o.n - 1):
            v = binarize_stage(d, o, i)
            rows = np.flatnonzero(ranks >= i)
            assert np.array_equal(v.row_indices, rows)
            assert np.array_equal(v.binary_labels,
                                  (d.labels[rows] == o.class_at[i]).astype(np.int64))

    def test_label_outside_ordering(self):
        d = self._data([20, 10, 5])
        for o in (ClassOrdering((0, 1)), ClassOrdering((5, 0, 1))):
            with pytest.raises(LabelOutOfRange):
                binarize_stage(d, o, 0)

    def test_row_order_preserved(self):
        d = self._data([20, 10])
        o = order_classes(class_frequencies(d))
        v = binarize_stage(d, o, 0)
        assert np.array_equal(v.row_indices, np.sort(v.row_indices))

    def test_ordering_invariant_to_row_permutation(self):
        d = self._data([30, 12, 6])
        rng = np.random.default_rng(9)
        perm = rng.permutation(d.n_rows)
        d2 = Dataset(d.features[perm], d.labels[perm], d.class_names, d.feature_names)
        o1 = order_classes(class_frequencies(d))
        o2 = order_classes(class_frequencies(d2))
        assert o1.class_at == o2.class_at
        v1 = binarize_stage(d, o1, 1)
        v2 = binarize_stage(d2, o2, 1)
        assert set(map(tuple, d.features[v1.row_indices])) == set(
            map(tuple, d2.features[v2.row_indices])
        )


class TestLastStage:
    def test_majority_sampling(self):
        d = blob_dataset([1000, 100, 10], seed=2)
        o = order_classes(class_frequencies(d))
        v = last_stage_view(d, o, LastStagePolicy("majority_only", 1.0, seed=0))
        assert v.n_positive == 10
        assert v.n_rows == 20
        negs = v.row_indices[v.binary_labels == 0]
        assert np.all(d.labels[negs] == 0)

    def test_clamped_to_source(self):
        d = blob_dataset([20, 30, 10], seed=2)
        o = order_classes(class_frequencies(d))
        v = last_stage_view(d, o, LastStagePolicy("majority_only", 5.0, seed=0))
        # rarest class (10 rows) wants 50 negatives; majority has 30
        assert v.n_rows - v.n_positive == 30

    @pytest.mark.parametrize("source", ["majority_only", "all_others"])
    def test_huge_ratio_takes_the_whole_source(self, source):
        """A finite ratio whose count overflows to inf takes every source row,
        as a count just past the source's size does."""
        d = blob_dataset([20, 30, 10], seed=2)
        o = order_classes(class_frequencies(d))
        huge = last_stage_view(d, o, LastStagePolicy(source, 1e308, seed=0))
        past = last_stage_view(d, o, LastStagePolicy(source, 6.0, seed=0))
        assert np.array_equal(huge.row_indices, past.row_indices)
        assert np.array_equal(huge.binary_labels, past.binary_labels)
        assert huge.n_rows - huge.n_positive == (30 if source == "majority_only" else 50)

    def test_all_others_source(self):
        d = blob_dataset([50, 20, 5], seed=3)
        o = order_classes(class_frequencies(d))
        v = last_stage_view(d, o, LastStagePolicy("all_others", 2.0, seed=1))
        negs = v.row_indices[v.binary_labels == 0]
        assert negs.size == 10
        assert not np.any(d.labels[negs] == o.class_at[2])

    def test_deterministic(self):
        d = blob_dataset([100, 40, 8], seed=4)
        o = order_classes(class_frequencies(d))
        p = LastStagePolicy("majority_only", 1.0, seed=7)
        a = last_stage_view(d, o, p)
        b = last_stage_view(d, o, p)
        assert np.array_equal(a.row_indices, b.row_indices)

    def test_empty_source(self):
        d = blob_dataset([5, 5], seed=0)
        o = ClassOrdering((0, 1, 2))
        with pytest.raises(PolicySourceEmpty):
            last_stage_view(d, o, LastStagePolicy())


class TestTrainCascade:
    def test_metadata_sizes(self):
        d = blob_dataset([1000, 100, 10, 5], seed=5)
        o = order_classes(class_frequencies(d))
        m = train_cascade(d, o, PARAMS)
        sizes = [meta.train_size for meta in m.metadata]
        assert sizes[:3] == [1115, 115, 15]
        assert sizes[3] == 10  # 5 positives + 5 sampled negatives
        assert all(a > b for a, b in zip(sizes[:3], sizes[1:3]))

    def test_degenerate_two_class_matches_binary(self):
        d = blob_dataset([200, 200], seed=6)
        o = order_classes(class_frequencies(d))
        m = train_cascade(d, o, PARAMS)
        standalone = train_binary(d.features, (d.labels == o.class_at[0]).astype(int), None, PARAMS)
        assert np.array_equal(
            m.stages[0].predict_proba(d.features), standalone.predict_proba(d.features)
        )

    def test_params_broadcast_and_type_check(self):
        """One GbtParams trains every stage; a list is neither a GbtParams nor
        a function, and fails before any stage fits."""
        d = blob_dataset([50, 30, 10], seed=7)
        o = order_classes(class_frequencies(d))
        assert [s.params for s in train_cascade(d, o, PARAMS).stages] == [PARAMS] * 3
        with mock.patch("sbcboost.gbt.train_binary") as fit:
            with pytest.raises(TypeError, match="GbtParams or a function"):
                train_cascade(d, o, [PARAMS] * 3)
        fit.assert_not_called()

    def test_params_function_sees_each_stage_before_its_fit(self):
        """A params function is called once per stage, in rank order, on the
        stage's rows and labels, and its choice trains that stage. A stage's
        fit seconds leave out the function's time: only it moves the clock."""
        d = blob_dataset([50, 30, 10], seed=7)
        o = order_classes(class_frequencies(d))
        calls, clock = [], [0.0]

        def choose(X, y):
            calls.append((X.shape[0], int(y.sum()), fits.call_count))
            clock[0] += 100.0
            return replace(PARAMS, max_depth=len(calls))

        with mock.patch("sbcboost.gbt.train_binary", wraps=train_binary) as fits, \
                mock.patch("time.perf_counter", lambda: clock[0]):
            m = train_cascade(d, o, choose)
        assert calls == [(m.metadata[i].train_size, m.metadata[i].n_positive, i)
                         for i in range(3)]
        assert [s.params.max_depth for s in m.stages] == [1, 2, 3]
        assert [meta.train_seconds for meta in m.metadata] == [0.0] * 3

    def test_thresholds_checked(self):
        d = blob_dataset([50, 30, 10], seed=7)
        o = order_classes(class_frequencies(d))
        m = train_cascade(d, o, PARAMS, threshold=0.7)
        assert m.thresholds == [0.7] * 3
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="thresholds"):
                train_cascade(d, o, PARAMS, threshold=bad)
        for thresholds in ([0.5, 0.5], [0.5] * 4):
            with pytest.raises(ValueError, match="thresholds"):
                replace(m, thresholds=thresholds)
        with pytest.raises(ValueError, match="stages"):
            replace(m, stages=m.stages[:2])

    def test_determinism(self):
        d = blob_dataset([200, 60, 12], seed=8)
        o = order_classes(class_frequencies(d))
        a = train_cascade(d, o, PARAMS, "inverse_frequency")
        b = train_cascade(d, o, PARAMS, "inverse_frequency")
        da, db = a.to_dict(), b.to_dict()
        da.pop("metadata"), db.pop("metadata")  # wall-clock durations differ
        assert da == db


class TestPredict:
    @pytest.fixture
    def model(self):
        d = blob_dataset([400, 80, 20], seed=9)
        o = order_classes(class_frequencies(d))
        return train_cascade(d, o, PARAMS), d

    def test_first_accept_stops(self, model):
        m, d = model
        majority_rows = d.features[d.labels == m.ordering.class_at[0]]
        p = predict_batch(m, majority_rows[0])[0]
        assert p.class_id == m.ordering.class_at[0]
        assert len(p.stage_trace) == 1

    def test_unknown_full_trace(self, model):
        m, d = model
        far = np.full(d.n_features, 1e6)
        p = predict_batch(m, far)[0]
        if p.is_unknown:
            assert len(p.stage_trace) == m.ordering.n
            assert all(prob < m.thresholds[s] for s, prob in p.stage_trace)

    def test_trace_consistency(self, model):
        m, d = model
        for p in predict_batch(m, d.features[:50]):
            if not p.is_unknown:
                *early, (last_stage, last_prob) = p.stage_trace
                assert m.ordering.class_at[last_stage] == p.class_id
                assert last_prob >= m.thresholds[last_stage]
                assert all(prob < m.thresholds[s] for s, prob in early)

    def test_batch_equals_rowwise(self, model):
        m, d = model
        batch = predict_batch(m, d.features[:80], "emit_unknown")
        for row, bp in zip(d.features[:80], batch):
            rp = reference_predict(m, row)
            assert rp.class_id == bp.class_id
            assert rp.stage_trace == bp.stage_trace

    def test_assign_last_class(self, model):
        m, d = model
        far = np.full((3, d.n_features), 1e6)
        preds = predict_batch(m, far, "assign_last_class")
        last = m.ordering.class_at[m.ordering.n - 1]
        for p in preds:
            assert p.class_id is not None
            if len(p.stage_trace) == m.ordering.n and all(
                prob < m.thresholds[s] for s, prob in p.stage_trace
            ):
                assert p.class_id == last

    def test_dimension_mismatch(self, model):
        m, _ = model
        with pytest.raises(DimensionMismatch):
            predict_batch(m, np.zeros(7))
        with pytest.raises(DimensionMismatch):
            route(m, np.zeros((2, 7)))

    def test_bad_unknown_action(self, model):
        m, d = model
        with pytest.raises(ValueError, match="unknown_action"):
            route(m, d.features, "drop")

    @settings(max_examples=200, deadline=None)
    @given(routing_cases())
    def test_matches_reference_walk(self, case):
        assert_routes_as_reference(*case)

    @pytest.mark.parametrize("unknown_action", UNKNOWN_ACTIONS)
    def test_matches_reference_walk_at_the_edges(self, unknown_action):
        rows = np.array([[0.0, 0.0], [np.nan, 5.0], [-9.0, np.nan], [np.inf, -np.inf]])
        o = routing_model().ordering
        # every row exits at stage 0 under the least positive threshold
        want = assert_routes_as_reference([5e-324, 0.5, 0.5, 0.5], rows, unknown_action)
        assert [len(p.stage_trace) for p in want] == [1] * len(rows)
        # no stage accepts: every row walks them all
        want = assert_routes_as_reference([1 - 1e-9] * 4, rows, unknown_action)
        assert [len(p.stage_trace) for p in want] == [o.n] * len(rows)
        assert all(p.is_unknown == (unknown_action == "emit_unknown") for p in want)
        assert_routes_as_reference([0.5] * 4, rows[:0], unknown_action)
        assert len(assert_routes_as_reference([0.5] * 4, rows[1], unknown_action)) == 1

    def test_route_proba_ends_with_trace(self, model):
        m, d = model
        # the last stage's probabilities stay below 0.95: rows it sees are Unknown
        m = replace(m, thresholds=[0.5] * (m.ordering.n - 1) + [0.95])
        class_id, proba = route(m, d.features)
        preds = predict_batch(m, d.features)
        assert 0 < sum(p.is_unknown for p in preds) < len(preds)
        for c, row, p in zip(class_id, proba, preds):
            depth = len(p.stage_trace)
            assert not np.isnan(row[:depth]).any()
            assert np.isnan(row[depth:]).all()
            assert row[:depth].tolist() == [prob for _, prob in p.stage_trace]
            assert (c == UNKNOWN) == p.is_unknown


class TestSerialization:
    def test_round_trip(self):
        d = blob_dataset([300, 50, 10], seed=10)
        o = order_classes(class_frequencies(d))
        m = train_cascade(d, o, PARAMS)
        m2 = SbcModel.from_dict(json.loads(json.dumps(m.to_dict())))
        Xq = np.random.default_rng(4).normal(scale=10.0, size=(60, d.n_features))
        a = predict_batch(m, Xq, "emit_unknown")
        b = predict_batch(m2, Xq, "emit_unknown")
        for pa, pb in zip(a, b):
            assert pa.class_id == pb.class_id
            assert pa.stage_trace == pb.stage_trace
