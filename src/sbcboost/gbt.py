"""Self-contained gradient-boosted decision trees.

Supports a binary-logistic head (cascade base classifier) and a
multiclass-softmax head (baseline). Split finding is exact greedy over
columns sorted once per fit (the column-block layout of XGBoost); all
randomness flows from the params seed, so training is reproducible
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .errors import DimensionMismatch, EmptyData, SingleClassInput

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class GbtParams:
    num_rounds: int = 50
    learning_rate: float = 0.3
    max_depth: int = 4
    min_child_weight: float = 1.0
    l2_lambda: float = 1.0
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0,1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight must be >= 0")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError("subsample must be in (0,1]")


class Tree:
    """A single regression tree stored as flat parallel arrays.

    Internal nodes hold (feature, threshold, default_left); leaves hold an
    additive log-odds contribution in ``value``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "default_left", "value", "is_leaf")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.default_left: list[bool] = []
        self.value: list[float] = []
        self.is_leaf: list[bool] = []

    def add_leaf(self, value: float) -> int:
        idx = len(self.value)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.default_left.append(True)
        self.value.append(float(value))
        self.is_leaf.append(True)
        return idx

    def add_split(self, feature: int, threshold: float, default_left: bool) -> int:
        idx = len(self.value)
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.default_left.append(bool(default_left))
        self.value.append(0.0)
        self.is_leaf.append(False)
        return idx

    def predict(self, X: np.ndarray) -> np.ndarray:
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        default_left = np.asarray(self.default_left)
        value = np.asarray(self.value)
        is_leaf = np.asarray(self.is_leaf)

        node = np.zeros(X.shape[0], dtype=np.int64)
        active = ~is_leaf[node]
        while active.any():
            rows = np.flatnonzero(active)
            nd = node[rows]
            v = X[rows, feature[nd]]
            miss = np.isnan(v)
            go_left = np.where(miss, default_left[nd], v < threshold[nd])
            node[rows] = np.where(go_left, left[nd], right[nd])
            active = ~is_leaf[node]
        return value[node]

    def max_path_depth(self) -> int:
        def depth(i):
            if self.is_leaf[i]:
                return 0
            return 1 + max(depth(self.left[i]), depth(self.right[i]))
        return depth(0) if self.value else 0

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": [float(t) for t in self.threshold],
            "left": list(self.left),
            "right": list(self.right),
            "default_left": list(self.default_left),
            "value": [float(v) for v in self.value],
            "is_leaf": list(self.is_leaf),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        t = cls()
        t.feature = [int(x) for x in d["feature"]]
        t.threshold = [float(x) for x in d["threshold"]]
        t.left = [int(x) for x in d["left"]]
        t.right = [int(x) for x in d["right"]]
        t.default_left = [bool(x) for x in d["default_left"]]
        t.value = [float(x) for x in d["value"]]
        t.is_leaf = [bool(x) for x in d["is_leaf"]]
        return t


@dataclass
class GbtModel:
    objective: str              # binary_logistic | multiclass_softmax
    n_classes: int              # 1 for binary, K for softmax
    base_score: float
    trees: list                 # rounds x tree-groups
    params: GbtParams
    n_features: int

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(f"expected {self.n_features} features, got {X.shape[1]}")
        return X

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        X = self._check_input(X)
        lr = self.params.learning_rate
        if self.objective == "binary_logistic":
            margin = np.full(X.shape[0], self.base_score, dtype=np.float64)
            for group in self.trees:
                margin += lr * group[0].predict(X)
            return margin
        margin = np.full((X.shape[0], self.n_classes), self.base_score, dtype=np.float64)
        for group in self.trees:
            for k, tree in enumerate(group):
                margin[:, k] += lr * tree.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        margin = self.predict_margin(X)
        if self.objective == "binary_logistic":
            return _sigmoid(margin)
        return _softmax(margin)

    def predict_class(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        proba = self.predict_proba(X)
        if self.objective == "binary_logistic":
            if not (0.0 < threshold < 1.0):
                raise ValueError("threshold must be in (0,1)")
            return (proba >= threshold).astype(np.int64)
        return np.argmax(proba, axis=1).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "objective": self.objective,
            "n_classes": self.n_classes,
            "base_score": float(self.base_score),
            "n_features": self.n_features,
            "params": asdict(self.params),
            "trees": [[t.to_dict() for t in group] for group in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GbtModel":
        if d.get("format_version") != 1:
            raise ValueError(f"unsupported model format version {d.get('format_version')!r}")
        return cls(
            objective=d["objective"],
            n_classes=int(d["n_classes"]),
            base_score=float(d["base_score"]),
            trees=[[Tree.from_dict(t) for t in group] for group in d["trees"]],
            params=GbtParams(**d["params"]),
            n_features=int(d["n_features"]),
        )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logistic_grad_hess(score, y, w):
    """Per-instance gradient/hessian of the weighted logistic loss wrt score."""
    p = _sigmoid(np.asarray(score, dtype=np.float64))
    g = w * (p - y)
    h = w * p * (1.0 - p)
    return g, h


def logistic_loss(score, y, w):
    score = np.asarray(score, dtype=np.float64)
    # log(1 + e^-|s|) formulation avoids overflow
    return float(np.sum(w * (np.logaddexp(0.0, -np.abs(score)) + np.maximum(score, 0) - score * y)))


def softmax_grad_hess(scores, y, w):
    """Gradient/diagonal hessian of weighted cross-entropy wrt class scores."""
    p = _softmax(np.atleast_2d(np.asarray(scores, dtype=np.float64)))
    onehot = np.zeros_like(p)
    onehot[np.arange(p.shape[0]), np.asarray(y, dtype=int)] = 1.0
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    g = w * (p - onehot)
    h = w * p * (1.0 - p)
    return g, h


def softmax_loss(scores, y, w):
    p = _softmax(np.atleast_2d(np.asarray(scores, dtype=np.float64)))
    py = p[np.arange(p.shape[0]), np.asarray(y, dtype=int)]
    return float(np.sum(np.asarray(w) * -np.log(np.clip(py, 1e-300, None))))


def _best_split_for_feature(v, gv, hv, gm, hm, has_missing, l2_lambda, min_child_weight,
                            parent_score):
    """Scan one feature's non-missing values, sorted ascending with their g and
    h; gm/hm sum the missing rows. Returns (gain, threshold, default_left).

    Missing values are routed as a block to whichever side scores better.
    """
    cut = (v[:-1] < v[1:]).nonzero()[0]
    if cut.size == 0:
        return None
    gl = gv.cumsum()[cut]
    hl = hv.cumsum()[cut]
    g_tot = gv.sum() + gm
    h_tot = hv.sum() + hm

    best = None
    # With no missing rows, gm = hm = 0.0 and the False pass scores exactly as
    # the True one, so it never wins the strict ">" below and is skipped.
    # Adding 0.0 only turns -0.0 into 0.0, which no score below can see.
    for add_left in (True, False) if has_missing else (True,):
        GL, HL = (gl + gm, hl + hm) if add_left and has_missing else (gl, hl)
        GR = g_tot - GL
        HR = h_tot - HL
        ok = (HL >= min_child_weight) & (HR >= min_child_weight)
        if not ok.any():
            continue
        score = GL**2 / (HL + l2_lambda) + GR**2 / (HR + l2_lambda)
        score[~ok] = -np.inf
        i = int(score.argmax())  # argmax takes the first max: lowest threshold
        gain = 0.5 * (score[i] - parent_score)
        # strict ">" keeps default_left on ties (no-missing nodes are symmetric)
        if best is None or gain > best[0]:
            c = cut[i]
            best = (float(gain), float(0.5 * (v[c] + v[c + 1])), add_left)
    return best


def _sort_columns(XT) -> np.ndarray:
    """Each feature's rows in ascending value order, NaNs last and ties in row
    order, as an (F, n) int32 array: the one sort of a fit."""
    return np.argsort(XT, axis=1, kind="stable").astype(np.int32)


def _tree_block(order, rows) -> np.ndarray:
    """The (F+1, m) int32 block a tree grows over: line f lists ``rows`` in
    feature f's sorted order and the last line lists them in row order.

    Filtering a stable sort keeps tied values in row order, as a stable sort
    of each node's own rows would.
    """
    n_features, n = order.shape
    if rows.size < n:
        keep = np.zeros(n, dtype=bool)
        keep[rows] = True
        order = order[keep[order]].reshape(n_features, rows.size)
    return np.vstack([order, rows.astype(np.int32)])


def _best_split(XT, g, h, seg, lam, mcw, parent_score):
    """Best (gain, feature, threshold, default_left) of the node whose block
    segment is ``seg``, or None."""
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
        ok = order[:n_ok]
        cand = _best_split_for_feature(v[:n_ok], g.take(ok), h.take(ok), gm, hm, has_missing,
                                       lam, mcw, parent_score)
        if cand is None:
            continue
        gain, thr, dl = cand
        if best is None or gain > best[0]:  # strict: lowest feature index wins ties
            best = (gain, f, thr, dl)
    return best


def _build_tree(XT, g, h, block, params: GbtParams) -> Tree:
    """Grow one tree over ``block`` (see _tree_block), partitioning it in
    place: each node owns the columns [s, e) of every line, and a split moves
    its left rows, in order, to the front. Nodes are numbered in preorder."""
    tree = Tree()
    lam = params.l2_lambda
    mcw = params.min_child_weight
    goes_left = np.zeros(XT.shape[1], dtype=bool)
    stack = [(0, block.shape[1], 0, -1, True)]  # (s, e, depth, parent, is_left)
    while stack:
        s, e, depth, parent, is_left = stack.pop()
        seg = block[:, s:e]
        rows = seg[-1]
        G = g[rows].sum()
        H = h[rows].sum()
        best = None
        if depth < params.max_depth and rows.size >= 2:
            best = _best_split(XT, g, h, seg, lam, mcw, G**2 / (H + lam))
        if best is None or best[0] <= _GAIN_EPS:
            node = tree.add_leaf(-G / (H + lam))
        else:
            _, f, thr, dl = best
            node = tree.add_split(f, thr, dl)
            v = XT[f].take(rows)
            go_left = np.where(np.isnan(v), dl, v < thr)
            goes_left[rows] = go_left
            # children at max_depth are leaves: they only need their rows
            lines = seg if depth + 1 < params.max_depth else seg[-1:]
            mask = goes_left[lines]
            n_left = int(np.count_nonzero(go_left))
            left, right = lines[mask], lines[~mask]
            # a child can be empty: the midpoint of two adjacent doubles
            # may round down to the lower one, sending its rows right
            lines[:, :n_left] = left.reshape(len(lines), n_left)
            lines[:, n_left:] = right.reshape(len(lines), e - s - n_left)
            stack.append((s + n_left, e, depth + 1, node, False))
            stack.append((s, s + n_left, depth + 1, node, True))
        if parent >= 0:
            (tree.left if is_left else tree.right)[parent] = node
    return tree


def _subsample_rows(n, params: GbtParams, round_index: int) -> np.ndarray:
    if params.subsample >= 1.0:
        return np.arange(n)
    k = max(1, int(round(params.subsample * n)))
    rng = np.random.default_rng(params.seed + round_index)
    return np.sort(rng.choice(n, size=k, replace=False))


def _validate_training_input(X, y, w):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyData("empty feature matrix")
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatch("labels length != rows")
    if w is None:
        w = np.ones(X.shape[0], dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64)
        if w.shape[0] != X.shape[0]:
            raise DimensionMismatch("weights length != rows")
    return X, y, w


def train_binary(X, y, w, p: GbtParams) -> GbtModel:
    """Fit a binary-logistic boosted ensemble; y must contain both classes."""
    X, y, w = _validate_training_input(X, y, w)
    if set(np.unique(y).tolist()) != {0, 1}:
        raise SingleClassInput("binary training needs labels {0,1} with both present")

    # weighted prior as starting log-odds; stabilizes heavily imbalanced stages
    pos = float(w[y == 1].sum())
    tot = float(w.sum())
    prior = min(max(pos / tot, 1e-12), 1 - 1e-12)
    base = float(np.log(prior / (1.0 - prior)))

    XT = np.ascontiguousarray(X.T)
    order = _sort_columns(XT)
    margin = np.full(X.shape[0], base, dtype=np.float64)
    trees: list[list[Tree]] = []
    for t in range(p.num_rounds):
        g, h = logistic_grad_hess(margin, y, w)
        rows = _subsample_rows(X.shape[0], p, t)
        tree = _build_tree(XT, g, h, _tree_block(order, rows), p)
        trees.append([tree])
        margin += p.learning_rate * tree.predict(X)
    return GbtModel("binary_logistic", 1, base, trees, p, X.shape[1])


def train_multiclass(X, y, w, p: GbtParams) -> GbtModel:
    """Fit a softmax boosted ensemble with one tree per class per round."""
    X, y, w = _validate_training_input(X, y, w)
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassInput("multiclass training needs >= 2 classes")
    n_classes = int(classes.max()) + 1

    XT = np.ascontiguousarray(X.T)
    order = _sort_columns(XT)
    margin = np.zeros((X.shape[0], n_classes), dtype=np.float64)
    trees: list[list[Tree]] = []
    for t in range(p.num_rounds):
        g, h = (np.ascontiguousarray(a.T) for a in softmax_grad_hess(margin, y, w))
        rows = _subsample_rows(X.shape[0], p, t)
        group = []
        for k in range(n_classes):
            tree = _build_tree(XT, g[k], h[k], _tree_block(order, rows), p)
            group.append(tree)
            margin[:, k] += p.learning_rate * tree.predict(X)
        trees.append(group)
    return GbtModel("multiclass_softmax", n_classes, 0.0, trees, p, X.shape[1])


def training_loss(m: GbtModel, X, y, w=None) -> float:
    """Weighted training loss of the full ensemble (used by invariant tests)."""
    X = np.asarray(X, dtype=np.float64)
    if w is None:
        w = np.ones(X.shape[0])
    margin = m.predict_margin(X)
    if m.objective == "binary_logistic":
        return logistic_loss(margin, y, w)
    return softmax_loss(margin, y, w)
