import gc
import json
import multiprocessing
import threading
import tracemalloc
import warnings
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sbcboost import gbt
from sbcboost.errors import (DimensionMismatch, EmptyData, InvalidWeights, LabelOutOfRange,
                             SingleClassInput)
from sbcboost.gbt import (
    GbtModel,
    GbtParams,
    Tree,
    logistic_grad_hess,
    logistic_loss,
    softmax_grad_hess,
    softmax_loss,
    train_binary,
    train_multiclass,
)

from conftest import gaussian_blobs


def training_loss(m: GbtModel, X, y, w=None) -> float:
    """Weighted training loss of the full ensemble."""
    X = np.asarray(X, dtype=np.float64)
    if w is None:
        w = np.ones(X.shape[0])
    margin = m.predict_margin(X)
    if m.objective == "binary_logistic":
        return logistic_loss(margin, y, w)
    return softmax_loss(margin, y, w)


def max_path_depth(tree: Tree) -> int:
    def depth(i):
        if tree.left[i] < 0:
            return 0
        return 1 + max(depth(tree.left[i]), depth(tree.right[i]))
    return depth(0)


# --- differential oracle: the learner as it was before columns were sorted
# once per fit, with a stable argsort of every node's values per feature ---

def reference_best_split_for_feature(values, g, h, l2_lambda, min_child_weight, parent_score):
    miss = np.isnan(values)
    gm, hm = g[miss].sum(), h[miss].sum()
    v = values[~miss]
    gv, hv = g[~miss], h[~miss]
    if v.size < 2:
        return None
    order = np.argsort(v, kind="stable")
    v = v[order]
    gv = gv[order]
    hv = hv[order]

    cut = np.flatnonzero(v[:-1] < v[1:])
    if cut.size == 0:
        return None
    gl = np.cumsum(gv)[cut]
    hl = np.cumsum(hv)[cut]
    g_tot = gv.sum() + gm
    h_tot = hv.sum() + hm
    lo, hi = v[cut], v[cut + 1]
    with np.errstate(all="ignore"):
        mid = 0.5 * (lo + hi)
    # a midpoint outside (lo, hi] would send lo's rows right: use hi instead
    thresholds = np.where((lo < mid) & (mid <= hi), mid, hi)

    best = None
    for add_left in (True, False):
        GL = gl + (gm if add_left else 0.0)
        HL = hl + (hm if add_left else 0.0)
        GR = g_tot - GL
        HR = h_tot - HL
        # a child of zero hessian at l2_lambda 0 would score 0/0
        ok = (HL >= min_child_weight) & (HR >= min_child_weight) \
            & (HL + l2_lambda != 0) & (HR + l2_lambda != 0)
        if not ok.any():
            continue
        score = GL**2 / (HL + l2_lambda) + GR**2 / (HR + l2_lambda)
        score = np.where(ok, score, -np.inf)
        i = int(np.argmax(score))
        gain = 0.5 * (score[i] - parent_score)
        if best is None or gain > best[0]:
            best = (float(gain), float(thresholds[i]), add_left)
    return best


def reference_build_tree(X, g, h, rows, params: GbtParams) -> Tree:
    tree = {name: [] for name in Tree.__slots__}  # the Tree's arrays, as lists
    lam = params.l2_lambda
    mcw = params.min_child_weight

    def add_node(feature, threshold, default_left, value):
        for name, x in zip(Tree.__slots__, (feature, threshold, -1, -1, default_left, value)):
            tree[name].append(x)
        return len(tree["value"]) - 1

    def add_leaf(G, H):
        return add_node(-1, 0.0, True, float(-G / (H + lam) if H + lam else 0.0))

    def grow(rows, depth):
        G = g[rows].sum()
        H = h[rows].sum()
        if depth >= params.max_depth or rows.size < 2 or not H + lam:
            return add_leaf(G, H)
        parent_score = G**2 / (H + lam)
        best = None
        for f in range(X.shape[1]):
            cand = reference_best_split_for_feature(X[rows, f], g[rows], h[rows], lam, mcw,
                                                    parent_score)
            if cand is None:
                continue
            gain, thr, dl = cand
            if best is None or gain > best[0]:
                best = (gain, f, thr, dl)
        if best is None or best[0] <= gbt._GAIN_EPS:
            return add_leaf(G, H)
        gain, f, thr, dl = best
        node = add_node(f, thr, dl, 0.0)
        v = X[rows, f]
        miss = np.isnan(v)
        go_left = np.where(miss, dl, v < thr)
        tree["left"][node] = grow(rows[go_left], depth + 1)
        tree["right"][node] = grow(rows[~go_left], depth + 1)
        return node

    grow(rows, 0)
    return Tree(**tree)


# --- differential oracle: the split search as it was before a node's features
# were scored as one block, one feature of the presorted block at a time ---

def reference_best_split(XT, g, h, seg, lam, mcw, parent_score):
    best = None
    for f in range(XT.shape[0]):
        order = seg[f]
        v = XT[f].take(order)
        n_ok = v.size
        if np.isnan(v[-1]):  # NaNs sort last, in row order
            n_ok -= int(np.count_nonzero(np.isnan(v)))
        if n_ok < 2:
            continue
        has_missing = n_ok < v.size
        gm = g[order[n_ok:]].sum() if has_missing else 0.0
        hm = h[order[n_ok:]].sum() if has_missing else 0.0
        v, gv, hv = v[:n_ok], g.take(order[:n_ok]), h.take(order[:n_ok])
        cut = (v[:-1] < v[1:]).nonzero()[0]
        if cut.size == 0:
            continue
        gl = gv.cumsum()[cut]
        hl = hv.cumsum()[cut]
        g_tot = gv.sum() + gm
        h_tot = hv.sum() + hm
        feature_best = None
        for add_left in (True, False) if has_missing else (True,):
            GL, HL = (gl + gm, hl + hm) if add_left and has_missing else (gl, hl)
            GR = g_tot - GL
            HR = h_tot - HL
            ok = (HL >= mcw) & (HR >= mcw) & (HL + lam != 0) & (HR + lam != 0)
            if not ok.any():
                continue
            score = GL**2 / (HL + lam) + GR**2 / (HR + lam)
            score[~ok] = -np.inf
            i = int(score.argmax())
            gain = 0.5 * (score[i] - parent_score)
            if feature_best is None or gain > feature_best[0]:
                c = cut[i]
                lo, hi = float(v[c]), float(v[c + 1])
                thr = 0.5 * (lo + hi)
                feature_best = (float(gain), thr if lo < thr <= hi else hi, add_left)
        if feature_best is None:
            continue
        gain, thr, dl = feature_best
        if best is None or gain > best[0]:
            best = (gain, f, thr, dl)
    return best


def reference_train_binary(X, y, w, p: GbtParams) -> GbtModel:
    X, y, w = gbt._validate_training_input(X, y, w)
    if set(np.unique(y).tolist()) != {0, 1}:
        raise SingleClassInput("binary training needs labels {0,1} with both present")
    pos = float(w[y == 1].sum())
    tot = float(w.sum())
    prior = min(max(pos / tot, 1e-12), 1 - 1e-12)
    base = float(np.log(prior / (1.0 - prior)))
    margin = np.full(X.shape[0], base, dtype=np.float64)
    trees = []
    for t in range(p.num_rounds):
        g, h = logistic_grad_hess(margin, y, w)
        rows = gbt._subsample_rows(X.shape[0], p, t)
        tree = reference_build_tree(X, g, h, rows, p)
        trees.append([tree])
        margin += p.learning_rate * tree.predict(X)
    return GbtModel("binary_logistic", 1, base, trees, p, X.shape[1])


def reference_train_multiclass(X, y, w, p: GbtParams) -> GbtModel:
    X, y, w = gbt._validate_training_input(X, y, w)
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassInput("multiclass training needs >= 2 classes")
    n_classes = int(classes.max()) + 1
    margin = np.zeros((X.shape[0], n_classes), dtype=np.float64)
    trees = []
    for t in range(p.num_rounds):
        g, h = softmax_grad_hess(margin, y, w)
        rows = gbt._subsample_rows(X.shape[0], p, t)
        group = []
        for k in range(n_classes):
            tree = reference_build_tree(X, g[:, k], h[:, k], rows, p)
            group.append(tree)
            margin[:, k] += p.learning_rate * tree.predict(X)
        trees.append(group)
    return GbtModel("multiclass_softmax", n_classes, 0.0, trees, p, X.shape[1])


def brute_force_threshold_accuracy(X, y):
    """Best single-feature single-threshold classifier accuracy (oracle for
    separability of synthetic data)."""
    best = 0.0
    for f in range(X.shape[1]):
        for thr in np.unique(X[:, f]):
            pred = (X[:, f] >= thr).astype(int)
            best = max(best, (pred == y).mean(), (pred != y).mean())
    return best


class TestGradients:
    def test_analytic_point(self):
        g, h = logistic_grad_hess(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        assert g[0] == pytest.approx(-0.5)
        assert h[0] == pytest.approx(0.25)

    def test_softmax_uniform(self):
        g, _ = softmax_grad_hess(np.zeros((1, 3)), np.array([0]), np.array([1.0]))
        assert np.allclose(g[0], [-2 / 3, 1 / 3, 1 / 3])

    def test_leaf_weight_formula(self):
        # one-leaf tree: G=-3, H=2, lambda=1 -> -G/(H+lambda) = 1.0
        g = np.array([-3.0])
        h = np.array([2.0])
        XT = np.array([[0.0]])
        block = gbt._tree_block(gbt._sort_columns(XT), np.array([0]))
        tree, _ = gbt._build_tree(XT, g, h, block, gbt._root_cuts(XT, block),
                                  GbtParams(l2_lambda=1.0))
        assert tree.value[0] == pytest.approx(1.0)


class TestBinary:
    def test_separable_blobs(self):
        X, y = gaussian_blobs([500, 500], seed=7)
        assert brute_force_threshold_accuracy(X, y) >= 0.99  # oracle: separable
        m = train_binary(X, y, None, GbtParams(num_rounds=10, max_depth=3, seed=7))
        assert (m.predict_class(X) == y).mean() >= 0.99

    def test_single_class_error(self):
        X = np.ones((5, 2))
        with pytest.raises(SingleClassInput):
            train_binary(X, np.zeros(5, dtype=int), None, GbtParams())

    def test_empty_error(self):
        with pytest.raises(EmptyData):
            train_binary(np.empty((0, 2)), np.empty(0, dtype=int), None, GbtParams())

    def test_determinism(self):
        X, y = gaussian_blobs([80, 60], seed=3)
        p = GbtParams(num_rounds=8, max_depth=4, subsample=0.7, seed=42)
        a = train_binary(X, y, None, p)
        b = train_binary(X, y, None, p)
        assert a.to_dict() == b.to_dict()

    def test_monotone_training_loss(self):
        X, y = gaussian_blobs([100, 60], scale=4.0, seed=5)
        w = np.ones(y.size)
        p = GbtParams(num_rounds=15, max_depth=3, subsample=1.0, seed=0)
        m = train_binary(X, y, w, p)
        losses = []
        for r in range(p.num_rounds + 1):
            partial = GbtModel("binary_logistic", 1, m.base_score, m.trees[:r], p, 2)
            losses.append(training_loss(partial, X, y, w))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_depth_and_child_weight_bounds(self):
        X, y = gaussian_blobs([120, 90], scale=3.0, seed=11)
        p = GbtParams(num_rounds=6, max_depth=3, min_child_weight=2.0, seed=1)
        m = train_binary(X, y, None, p)
        for group in m.trees:
            assert max_path_depth(group[0]) <= p.max_depth

    def test_duplicate_row_equals_double_weight(self):
        X, y = gaussian_blobs([30, 30], scale=2.0, seed=13)
        p = GbtParams(num_rounds=5, max_depth=2, seed=0)
        X_dup = np.vstack([X, X[:5]])
        y_dup = np.concatenate([y, y[:5]])
        w = np.ones(y.size)
        w[:5] = 2.0
        a = train_binary(X_dup, y_dup, None, p)
        b = train_binary(X, y, w, p)
        # identical structure; leaf values agree up to summation-order ulps
        for ga, gb in zip(a.trees, b.trees):
            assert np.array_equal(ga[0].feature, gb[0].feature)
            assert np.array_equal(ga[0].threshold, gb[0].threshold)
            assert np.allclose(ga[0].value, gb[0].value, atol=1e-12)

    def test_base_score_is_weighted_prior(self):
        X, y = gaussian_blobs([90, 10], seed=2)
        m = train_binary(X, y, None, GbtParams(num_rounds=1, seed=0))
        prior = y.mean()
        assert m.base_score == pytest.approx(np.log(prior / (1 - prior)))


class TestWeights:
    @pytest.mark.parametrize("w", [
        [1.0, np.nan, 1.0, 1.0],
        [1.0, np.inf, 1.0, 1.0],
        [1.0, -1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ], ids=["nan", "inf", "negative", "all_zero"])
    @pytest.mark.parametrize("train", [train_binary, train_multiclass])
    def test_bad_weights_rejected(self, train, w):
        X = np.arange(4.0).reshape(-1, 1)
        with pytest.raises(InvalidWeights):
            train(X, np.array([0, 1, 0, 1]), np.array(w), GbtParams(num_rounds=1))

    # with subsample 0.5 and seed 0, the only tree's root holds rows 2 and 3,
    # whose weights are 0: at l2_lambda 0 its H + lambda is 0
    ZERO_HESSIAN_ROOT = GbtParams(num_rounds=1, max_depth=2, l2_lambda=0,
                                  min_child_weight=0, subsample=0.5, seed=0)

    def test_zero_hessian_leaf_is_zero(self):
        with np.errstate(all="ignore"):
            m = train_binary([[0], [1], [2], [3]], [0, 1, 0, 1], [1, 1, 0, 0],
                             self.ZERO_HESSIAN_ROOT)
        assert m.trees[0][0].value.tolist() == [0.0]
        assert m.predict_proba(np.arange(4.0).reshape(-1, 1)).tolist() == [0.5] * 4

    def test_zero_hessian_node_is_leaf(self):
        # its parent score would be 0/0, and so would every cut's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = train_binary([[0], [1], [2], [3]], [0, 1, 0, 1], [1, 1, 0, 0],
                             self.ZERO_HESSIAN_ROOT)
        tree = m.trees[0][0]
        assert tree.value.size == 1
        assert tree.left[0] == tree.right[0] == -1

    def test_zero_hessian_cut_not_chosen(self):
        # at l2_lambda 0 the cuts at 1.5 and 2.5 leave rows 2 and 3, of weight
        # 0, in a child of zero hessian, which would score 0/0; only the cut at
        # 0.5 is scored, and no cut of the right child {1, 2, 3} is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = train_binary([[0], [1], [2], [3]], [0, 1, 0, 1], [1, 1, 0, 0],
                             GbtParams(num_rounds=1, max_depth=2, l2_lambda=0,
                                       min_child_weight=0))
        tree = m.trees[0][0]
        assert tree.threshold[0] == 0.5
        assert tree.value.size == 3
        assert (tree.left[1:] == -1).all() and (tree.right[1:] == -1).all()

    def test_some_zero_weights_train(self):
        X = np.arange(4.0).reshape(-1, 1)
        m = train_binary(X, np.array([0, 1, 0, 1]), np.array([1.0, 1.0, 0.0, 0.0]),
                         GbtParams(num_rounds=1))
        assert m.base_score == 0.0


class TestMulticlass:
    def test_three_blobs(self):
        X, y = gaussian_blobs([300, 300, 300], seed=7)
        m = train_multiclass(X, y, None, GbtParams(num_rounds=8, max_depth=3, seed=7))
        assert (m.predict_class(X) == y).mean() >= 0.99

    def test_k2_softmax_matches_binary_argmax(self):
        X, y = gaussian_blobs([200, 200], seed=19)
        p = GbtParams(num_rounds=1, max_depth=1, seed=0)
        mb = train_binary(X, y, None, p)
        ms = train_multiclass(X, y, None, p)
        assert np.array_equal(mb.predict_class(X), ms.predict_class(X))

    def test_single_class_error(self):
        with pytest.raises(SingleClassInput):
            train_multiclass(np.ones((4, 2)), np.zeros(4, dtype=int), None, GbtParams())


class TestLabels:
    # each trained before as a cast label: -1 as the last class (a negative
    # index into the softmax's columns), 2.5 as 2, and 0.5 as 0
    @pytest.mark.parametrize("train, y, bad", [
        (train_multiclass, [-1, 0, 1, 1], "-1"),
        (train_multiclass, [0, 1, 2.5, 1], "2.5"),
        (train_binary, [0.5, 1, 0, 1], "0.5"),
        (train_multiclass, [0, 1, np.nan, 1], "nan"),
    ], ids=["negative", "fractional", "binary_fractional", "nan"])
    def test_bad_label_rejected(self, train, y, bad):
        X = np.arange(8.0).reshape(4, 2)
        with pytest.raises(LabelOutOfRange, match=f"training label {bad} "):
            train(X, y, None, GbtParams(num_rounds=1))

    def test_whole_float_labels_train(self):
        X, y = gaussian_blobs([20, 20, 20], seed=2)
        p = GbtParams(num_rounds=2, max_depth=2)
        assert train_multiclass(X, y.astype(float), None, p).to_dict() == \
            train_multiclass(X, y, None, p).to_dict()


class TestPredict:
    def test_zero_tree_base_half(self):
        m = GbtModel("binary_logistic", 1, 0.0, [], GbtParams(), 2)
        p = m.predict_proba(np.zeros((3, 2)))
        assert np.allclose(p, 0.5)

    def test_softmax_sums_to_one(self):
        X, y = gaussian_blobs([50, 50, 50], seed=1)
        m = train_multiclass(X, y, None, GbtParams(num_rounds=3, max_depth=2, seed=1))
        p = m.predict_proba(np.random.default_rng(0).normal(size=(20, 2)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_threshold_boundary_inclusive(self):
        m = GbtModel("binary_logistic", 1, 0.0, [], GbtParams(), 1)
        assert m.predict_class(np.zeros((1, 1)), threshold=0.5)[0] == 1
        assert m.predict_class(np.zeros((1, 1)), threshold=0.9)[0] == 0

    def test_softmax_tie_lower_id(self):
        m = GbtModel("multiclass_softmax", 3, 0.0, [], GbtParams(), 2)
        assert m.predict_class(np.zeros((1, 2)))[0] == 0

    def test_softmax_infinite_margin(self):
        """An infinite top margin takes its row's whole mass, shared with any
        equal margin; rows of -inf only are uniform."""
        p = gbt._softmax(np.array([[0.0, np.inf], [np.inf, np.inf], [-np.inf, -np.inf],
                                   [-np.inf, 0.0]]))
        assert p.tolist() == [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda k: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
        min_size=1, max_size=5)))
    def test_softmax_finite_bits(self, rows):
        """On finite margins, the same bits as subtracting each row's max."""
        scores = np.array(rows)
        with np.errstate(all="ignore"):
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            assert gbt._softmax(scores).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    def test_dimension_mismatch(self):
        X, y = gaussian_blobs([20, 20], seed=0)
        m = train_binary(X, y, None, GbtParams(num_rounds=2, seed=0))
        with pytest.raises(DimensionMismatch):
            m.predict_proba(np.zeros((2, 5)))


class TestSerialization:
    def test_round_trip_bit_identical(self):
        X, y = gaussian_blobs([60, 40], scale=3.0, seed=23)
        m = train_binary(X, y, None, GbtParams(num_rounds=6, max_depth=4, seed=5))
        blob = json.dumps(m.to_dict())
        m2 = GbtModel.from_dict(json.loads(blob))
        Xq = np.random.default_rng(1).normal(scale=5.0, size=(100, 2))
        assert np.array_equal(m.predict_proba(Xq), m2.predict_proba(Xq))

    def test_multiclass_round_trip(self):
        X, y = gaussian_blobs([40, 40, 30], seed=2)
        m = train_multiclass(X, y, None, GbtParams(num_rounds=3, max_depth=2, seed=2))
        m2 = GbtModel.from_dict(json.loads(json.dumps(m.to_dict())))
        Xq = np.random.default_rng(3).normal(scale=8.0, size=(50, 2))
        assert np.array_equal(m.predict_proba(Xq), m2.predict_proba(Xq))

    def test_version_check(self):
        with pytest.raises(ValueError):
            GbtModel.from_dict({"format_version": 99})

    @pytest.mark.parametrize("X, y, w, p, threshold", [
        ([[0], [1], [2], [3]], [0, 1, 0, 1], [1, 1, 0, 0], TestWeights.ZERO_HESSIAN_ROOT, 0.0),
        ([[0], [1], [2], [3]], [0, 1, 0, 1], [1, 1, 0, 0],
         GbtParams(num_rounds=1, max_depth=2, l2_lambda=0, min_child_weight=0), 0.5),
        ([[1.0]] * 4 + [[np.inf]] * 4, [0] * 4 + [1] * 4, None,
         GbtParams(num_rounds=2, max_depth=1), np.inf),
    ], ids=["zero_hessian_root", "zero_hessian_cut", "inf_data"])
    def test_edge_fits_load(self, X, y, w, p, threshold):
        # a load rejects NaN in a value, threshold or base_score; training
        # writes none, even at zero hessians, and an inf threshold loads
        with np.errstate(all="ignore"):
            m = train_binary(X, y, w, p)
        text = json.dumps(m.to_dict())
        assert json.dumps(GbtModel.from_dict(json.loads(text)).to_dict()) == text
        assert m.trees[0][0].threshold[0] == threshold


@st.composite
def feature_matrix(draw, n, max_features=4):
    """Columns with heavy ties, constant and all-NaN columns, copies of an
    earlier column (gains tied across features), and NaN cells."""
    cols = []
    for _ in range(draw(st.integers(1, max_features))):
        kind = draw(st.sampled_from(["ties", "floats", "constant", "all_nan", "copy"]))
        if kind == "copy" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
            continue
        if kind in ("ties", "copy"):
            # 0.5 * (0.0 + 5e-324) rounds to 0.0: a split that empties a child
            cell = st.sampled_from([-1.5, 0.0, 5e-324, 1.0, 2.0, np.nan])
        elif kind == "floats":
            cell = st.floats(-1e3, 1e3) | st.just(np.nan)
        elif kind == "constant":
            cell = st.just(draw(st.floats(-5.0, 5.0)))
        else:
            cell = st.just(np.nan)
        cols.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return np.array(cols, dtype=np.float64).T


@st.composite
def gbt_params(draw):
    return GbtParams(
        num_rounds=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 4)),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 4.0, 1e3])),
        l2_lambda=draw(st.sampled_from([0.0, 1.0])),
        subsample=draw(st.sampled_from([1.0, 0.6])),
        seed=draw(st.integers(0, 3)),
    )


@st.composite
def training_inputs(draw, max_label=3):
    n = draw(st.integers(1, 40))
    X = draw(feature_matrix(n))
    y = np.array(draw(st.lists(st.integers(0, max_label), min_size=n, max_size=n)))
    w = draw(st.none() | st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    return X, y, None if w is None else np.array(w), draw(gbt_params())


def _fit_json(train, X, y, w, p):
    """The model's to_dict() as JSON text, so NaNs compare equal, or the
    name of the error the fit raised: both learners must fail alike too."""
    try:
        return json.dumps(train(X, y, w, p).to_dict())
    except Exception as exc:
        return type(exc).__name__


class TestPresortDifferential:
    """Sorting each column once per fit grows the same trees, bit for bit, as
    sorting every node's values (the reference learner above)."""

    @settings(max_examples=200, deadline=None)
    @given(training_inputs())
    def test_train_binary(self, case):
        X, y, w, p = case
        y = y % 2
        with np.errstate(all="ignore"):
            assert _fit_json(train_binary, X, y, w, p) == \
                _fit_json(reference_train_binary, X, y, w, p)

    # up to 12 classes: from 8 on, softmax row sums round differently when
    # the margin is not C-contiguous
    @settings(max_examples=200, deadline=None)
    @given(training_inputs(max_label=11))
    def test_train_multiclass(self, case):
        X, y, w, p = case
        with np.errstate(all="ignore"):
            assert _fit_json(train_multiclass, X, y, w, p) == \
                _fit_json(reference_train_multiclass, X, y, w, p)

    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    def test_split_with_empty_child(self, max_depth):
        # the midpoint of 0.0 and 5e-324 rounds down to 0.0, so the threshold
        # is 5e-324 and the 0.0 rows go left
        X = np.array([[np.nan], [0.0], [0.0], [5e-324], [np.nan], [0.0], [0.0], [0.0]])
        y = np.array([0, 0, 0, 0, 0, 0, 1, 0])
        for lam in (0.0, 1.0):
            p = GbtParams(num_rounds=2, max_depth=max_depth, min_child_weight=0.0, l2_lambda=lam)
            with np.errstate(all="ignore"):
                got = _fit_json(train_binary, X, y, None, p)
                assert got == _fit_json(reference_train_binary, X, y, None, p)
            assert '"value": [' in got

    @pytest.mark.parametrize("lo, hi", [(1e308, 1.7e308), (-np.inf, 0.0), (0.0, 5e-324)],
                             ids=["overflow", "minus_inf", "adjacent"])
    def test_threshold_inside_cut(self, lo, hi):
        # 0.5 * (lo + hi) is not in (lo, hi]: inf, -inf and 0.0
        X = np.array([[lo]] * 4 + [[hi]] * 4)
        y = np.array([0] * 4 + [1] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = train_binary(X, y, None, GbtParams(num_rounds=3, max_depth=1))
        assert m.trees[0][0].threshold[0] == hi
        assert np.array_equal(m.predict_class(X), y)

    def test_tree_block_orders_ties_by_row(self):
        # small arrays sort stably under any numpy kind, so this one is large
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(2000, 3)).astype(np.float64)
        X[rng.random(X.shape) < 0.1] = np.nan
        rows = np.sort(rng.choice(2000, 1500, replace=False))
        block = gbt._tree_block(gbt._sort_columns(np.ascontiguousarray(X.T)), rows)
        for f in range(X.shape[1]):
            # value order, NaNs last, ties by row
            assert np.array_equal(block[f], rows[np.lexsort((rows, X[rows, f]))])
        assert np.array_equal(block[-1], rows)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_build_tree(self, data):
        n = data.draw(st.integers(1, 30))
        X = data.draw(feature_matrix(n))
        g = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
        h = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        p = data.draw(gbt_params())
        XT = np.ascontiguousarray(X.T)
        block = gbt._tree_block(gbt._sort_columns(XT), rows)
        with np.errstate(all="ignore"):
            got, column = gbt._build_tree(XT, g, h, block, gbt._root_cuts(XT, block), p)
            want = reference_build_tree(X, g, h, rows, p)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        # the partition gives each row the value of the leaf the tree sends it to
        assert np.array_equal(column[rows], want.predict(X[rows]), equal_nan=True)


def _split_node(X, g, h, rows, lam, mcw, pad=(0, 0)):
    """_best_split's arguments for a node over ``rows``: its segment is a view
    into a block ``pad`` columns wider, as a child's is."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    g, h, rows = (np.asarray(a, dtype=dt) for a, dt in ((g, float), (h, float), (rows, int)))
    node = gbt._tree_block(gbt._sort_columns(XT), rows)
    wide = np.zeros((node.shape[0], pad[0] + rows.size + pad[1]), dtype=np.int32)
    wide[:, pad[0]:pad[0] + rows.size] = node
    G, H = g[rows].sum(), h[rows].sum()
    with np.errstate(all="ignore"):
        parent_score = G**2 / (H + lam)
    return XT, g, h, wide[:, pad[0]:pad[0] + rows.size], lam, mcw, parent_score


@st.composite
def split_nodes(draw):
    """A node's split search inputs, and the cells of one block to scan them
    in: one feature per block when the node has more rows than that."""
    n = draw(st.integers(2, 40))
    X = draw(feature_matrix(n, max_features=8))
    cell = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-5.0, 5.0)
    g = np.array(draw(st.lists(cell, min_size=n, max_size=n)))
    h = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 0.25]) | st.floats(0.0, 5.0),
                               min_size=n, max_size=n)))
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))  # rows of weight 0
    g[zero] = h[zero] = 0.0
    rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2)))
    lam = draw(st.sampled_from([0.0, 1.0]))
    mcw = draw(st.sampled_from([0.0, 1.0, 4.0]))
    pad = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    block = draw(st.sampled_from([gbt._BLOCK, 1, 2, 5, 16, 64]))
    return _split_node(X, g, h, rows, lam, mcw, pad), block


def _split_json(split, node):
    with np.errstate(all="ignore"):
        return json.dumps(split(*node))  # NaN gains compare equal; numpy types fail


class TestBlockScanDifferential:
    """Scoring a node's features as (features x rows) blocks finds the same
    split, bit for bit, as scanning them one at a time (the oracle above)."""

    # at l2_lambda 0, feature 1's only cut leaves a child of zero hessian
    # whichever side its missing rows take (0/0, then 1/0): both passes score
    # -inf, so feature 0 wins with gain 0
    @example((_split_node([[1.0, 1.0], [1.0, 0.0], [2.0, np.nan], [1.0, np.nan]],
                          [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0],
                          [0, 1, 2, 3], 0.0, 0.0), gbt._BLOCK))
    # GL**2 overflows to inf on every cut, so each gain is inf - inf = NaN:
    # the first line's NaN gain is kept, at its first cut
    @example((_split_node([[0.0], [1.0], [2.0], [3.0]], [1e200] * 4, [1.0] * 4,
                          [0, 1, 2, 3], 1.0, 0.0), gbt._BLOCK))
    @settings(max_examples=400, deadline=None)
    @given(split_nodes())
    def test_best_split(self, case):
        node, block = case
        with mock.patch.object(gbt, "_BLOCK", block):
            want = _split_json(reference_best_split, node)
            assert _split_json(gbt._best_split, node) == want
            # the same split from cuts found before the scoring, as a root's are
            XT, seg = node[0], node[3]
            assert _split_json(gbt._best_split, node + (gbt._root_cuts(XT, seg),)) == want

    @pytest.mark.parametrize("n_rows, n_features", [(gbt._BLOCK + 100, 3), (1000, 40)],
                             ids=["one_feature_per_block", "two_blocks"])
    def test_best_split_wide(self, n_rows, n_features):
        # the last feature, in the last block, carries the best split
        rng = np.random.default_rng(n_features)
        X = rng.integers(0, 50, size=(n_rows, n_features)).astype(np.float64)
        X[rng.random(X.shape) < 0.05] = np.nan
        X[:, 0] = np.nan
        g = np.where(X[:, -1] < 25, -1.0, 1.0) + rng.normal(scale=0.1, size=n_rows)
        h = rng.random(n_rows)
        rows = np.flatnonzero(rng.random(n_rows) < 0.9)
        node = _split_node(X, g, h, rows, 1.0, 1.0, pad=(5, 7))
        got = _split_json(gbt._best_split, node)
        assert got == _split_json(reference_best_split, node)
        assert json.loads(got)[1] == n_features - 1

    @pytest.mark.parametrize("train, reference, max_label", [
        (train_binary, reference_train_binary, 1),
        (train_multiclass, reference_train_multiclass, 3),
    ], ids=["binary", "multiclass"])
    def test_fit_across_blocks(self, train, reference, max_label):
        # 1500 rows: the root scores its 30 features in two blocks
        rng = np.random.default_rng(9)
        X = np.round(rng.normal(size=(1500, 30)), 1)
        X[rng.random(X.shape) < 0.05] = np.nan
        y = rng.integers(0, max_label + 1, size=1500)
        w = rng.random(1500)
        p = GbtParams(num_rounds=2, max_depth=3, subsample=0.8, seed=3)
        assert _fit_json(train, X, y, w, p) == _fit_json(reference, X, y, w, p)

    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    @pytest.mark.parametrize("train, reference, max_label", [
        (train_binary, reference_train_binary, 1),
        (train_multiclass, reference_train_multiclass, 3),
    ], ids=["binary", "multiclass"])
    def test_fit_with_shared_root_cuts(self, train, reference, max_label, subsample):
        # one feature per block: the root cuts, found once per fit (or per
        # round when subsampling), span 12 blocks, and each tree's margins
        # come from its partition; the reference keeps per-node cuts and
        # Tree.predict margins
        rng = np.random.default_rng(17)
        X = np.round(rng.normal(size=(300, 12)), 1)
        X[rng.random(X.shape) < 0.05] = np.nan
        y = rng.integers(0, max_label + 1, size=300)
        w = rng.random(300)
        p = GbtParams(num_rounds=3, max_depth=3, subsample=subsample, seed=5)
        with mock.patch.object(gbt, "_BLOCK", 64):
            assert _fit_json(train, X, y, w, p) == _fit_json(reference, X, y, w, p)


class TestMemory:
    @pytest.mark.parametrize("train, n_labels", [(train_binary, 2), (train_multiclass, 4)],
                             ids=["binary", "multiclass"])
    def test_fit_peak_memory(self, train, n_labels):
        # a fit holds the transposed matrix, its sort order, a tree's block
        # and the root's cut positions: about 5-6 times X's bytes at this size
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8000, 40))
        X[:, :20] = np.round(X[:, :20], 1)  # ties
        y = rng.integers(0, n_labels, size=8000)
        p = GbtParams(num_rounds=3, max_depth=4)
        # tracemalloc sees only this process: grow the trees in it
        with mock.patch.object(gbt, "_usable_cpus", return_value=1):
            tracemalloc.start()
            try:
                train(X, y, None, p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 6.5 * X.nbytes


class TestNoReferenceCycles:
    def test_fit_leaves_no_cyclic_garbage(self):
        # a tree builder that closes over itself keeps every tree, and the
        # gradients it captured, alive until the cyclic collector runs
        X, y = gaussian_blobs([30, 30, 30], seed=4)
        p = GbtParams(num_rounds=3, max_depth=3, seed=0)
        train_multiclass(X, y, None, p)  # warm-up
        gc.collect()
        gc.disable()
        try:
            train_binary(X, (y == 0).astype(int), None, p)
            train_multiclass(X, y, None, p)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _fit_in_daemon(X, y, p):
    """A multiclass fit's JSON from inside a daemonic process, which may not
    start a pool."""
    assert multiprocessing.current_process().daemon
    with mock.patch.object(gbt, "_usable_cpus", return_value=2), \
            mock.patch.object(futures, "ProcessPoolExecutor", side_effect=AssertionError("pool")):
        return json.dumps(train_multiclass(X, y, None, p).to_dict())


class TestParallelRounds:
    """A softmax round's trees grown in a fork pool equal those grown one
    after another in this process, bit for bit, and no worker outlives the
    fit."""

    @staticmethod
    def _data(n_classes):
        rng = np.random.default_rng(n_classes)
        X = np.round(rng.normal(size=(300, 12)), 1)
        X[rng.random(X.shape) < 0.05] = np.nan
        return X, rng.integers(0, n_classes, size=300), rng.random(300)

    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    @pytest.mark.parametrize("n_classes", [2, 4, 10])
    def test_matches_one_worker(self, n_classes, subsample):
        X, y, w = self._data(n_classes)
        p = GbtParams(num_rounds=3, max_depth=3, subsample=subsample, seed=5)
        with mock.patch.object(gbt, "_BLOCK", 64):  # the root's cuts span 12 blocks
            with mock.patch.object(gbt, "_usable_cpus", return_value=1), \
                    mock.patch.object(futures, "ProcessPoolExecutor", side_effect=AssertionError):
                want = _fit_json(train_multiclass, X, y, w, p)
            # three workers, so this holds on one CPU too
            with mock.patch.object(gbt, "_usable_cpus", return_value=3), \
                    mock.patch.object(futures, "ProcessPoolExecutor",
                                      wraps=futures.ProcessPoolExecutor) as pool:
                got = _fit_json(train_multiclass, X, y, w, p)
        assert pool.call_count == 1
        assert pool.call_args.args[0] == min(n_classes, 3)
        assert got == want and want.startswith('{"format_version"')
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_caller(self):
        X, y, _ = self._data(4)
        boom = mock.Mock(side_effect=RuntimeError("boom"))
        with mock.patch.object(gbt, "_usable_cpus", return_value=2), \
                mock.patch.object(gbt, "_build_tree", boom):
            with pytest.raises(RuntimeError, match="boom"):
                train_multiclass(X, y, None, GbtParams(num_rounds=2, max_depth=2))
        boom.assert_not_called()  # it raised in a worker, not here
        assert multiprocessing.active_children() == []

    def test_daemon_caller_grows_trees_serially(self):
        X, y, _ = self._data(4)
        p = GbtParams(num_rounds=3, max_depth=3)
        with multiprocessing.get_context("fork").Pool(1) as daemons:
            got = daemons.apply_async(_fit_in_daemon, (X, y, p)).get(timeout=120)
        assert got == json.dumps(train_multiclass(X, y, None, p).to_dict())

    def test_two_threads_fit_at_once(self):
        # every fit keeps its own state: neither sees the other's data
        fits = [self._data(k) + (GbtParams(num_rounds=4, max_depth=3, subsample=s),)
                for k, s in ((3, 1.0), (5, 0.7))]
        with mock.patch.object(gbt, "_usable_cpus", return_value=1):
            want = [_fit_json(train_multiclass, *fit) for fit in fits]
        got = [None, None]

        def fit(i):
            got[i] = _fit_json(train_multiclass, *fits[i])

        with mock.patch.object(gbt, "_usable_cpus", return_value=2):
            threads = [threading.Thread(target=fit, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert got == want and all(w.startswith('{"format_version"') for w in want)
        assert multiprocessing.active_children() == []
