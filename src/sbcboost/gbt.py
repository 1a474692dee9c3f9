"""Self-contained gradient-boosted decision trees.

Supports a binary-logistic head (cascade base classifier) and a
multiclass-softmax head (baseline), boosted by one loop: the binary head is
its one-column case. Split finding is exact greedy over
columns sorted once per fit (the column-block layout of XGBoost); all
randomness flows from the params seed, so training is reproducible
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import DimensionMismatch, EmptyData, InvalidWeights, SingleClassInput

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
    """A single regression tree stored as parallel numpy arrays, nodes in
    preorder.

    Internal nodes hold (feature, threshold, default_left) and the indices of
    their children; a leaf has ``left == right == -1`` and holds an additive
    log-odds contribution in ``value``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "default_left", "value")

    def __init__(self, feature, threshold, left, right, default_left, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.default_left = np.asarray(default_left, dtype=bool)
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.left[node] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            nd = node[rows]
            v = X[rows, self.feature[nd]]
            go_left = np.where(np.isnan(v), self.default_left[nd], v < self.threshold[nd])
            node[rows] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.left[node] >= 0
        return self.value[node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "default_left": self.default_left.tolist(),
            "value": self.value.tolist(),
            "is_leaf": (self.left < 0).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """Decode and check a tree: every node's children come after it and
        within the tree, so a walk always ends at a leaf."""
        t = cls(*(d[name] for name in cls.__slots__))
        n = t.value.size
        if n == 0 or any(getattr(t, name).shape != (n,) for name in cls.__slots__):
            raise ValueError("tree fields must be non-empty lists of equal length")
        leaf = t.left == -1
        if not np.array_equal(leaf, t.right == -1):
            raise ValueError("a tree node has only one child")
        if not np.array_equal(leaf, np.asarray(d["is_leaf"], dtype=bool)):
            raise ValueError("a tree's is_leaf disagrees with its children")
        split = np.flatnonzero(~leaf)
        for child in (t.left[split], t.right[split]):
            if np.any((child <= split) | (child >= n)):
                raise ValueError("a tree child index is not after its parent and within the tree")
        f = t.feature[split]
        if np.any((f < 0) | (f >= n_features)):
            raise ValueError(f"a tree splits on a feature outside [0, {n_features})")
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
        margin = np.full((X.shape[0], self.n_classes), self.base_score, dtype=np.float64)
        for group in self.trees:
            for k, tree in enumerate(group):
                margin[:, k] += self.params.learning_rate * tree.predict(X)
        return margin[:, 0] if self.objective == "binary_logistic" else margin

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
        objective = d["objective"]
        n_classes = int(d["n_classes"])
        if objective not in ("binary_logistic", "multiclass_softmax"):
            raise ValueError(f"unknown objective {objective!r}")
        if n_classes < 2 if objective == "multiclass_softmax" else n_classes != 1:
            raise ValueError(f"{objective} cannot have n_classes={n_classes}")
        n_features = int(d["n_features"])
        trees = [[Tree.from_dict(t, n_features) for t in group] for group in d["trees"]]
        if any(len(group) != n_classes for group in trees):
            raise ValueError(f"every tree group must hold {n_classes} trees")
        return cls(
            objective=objective,
            n_classes=n_classes,
            base_score=float(d["base_score"]),
            trees=trees,
            params=GbtParams(**d["params"]),
            n_features=n_features,
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
            lo, hi = float(v[c]), float(v[c + 1])  # Python floats overflow silently
            # the midpoint leaves (lo, hi] on an overflow to inf, a -inf lo or
            # adjacent doubles rounding down; hi still sends lo's rows left
            thr = 0.5 * (lo + hi)
            best = (float(gain), thr if lo < thr <= hi else hi, add_left)
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
    lam = params.l2_lambda
    mcw = params.min_child_weight
    goes_left = np.zeros(XT.shape[1], dtype=bool)
    nodes = []                      # (feature, threshold, default_left, value)
    left_of, right_of = [], []      # each node's children; -1 at a leaf
    stack = [(0, block.shape[1], 0, -1, True)]  # (s, e, depth, parent, is_left)
    while stack:
        s, e, depth, parent, is_left = stack.pop()
        node = len(nodes)
        seg = block[:, s:e]
        rows = seg[-1]
        G = g[rows].sum()
        H = h[rows].sum()
        best = None
        if depth < params.max_depth and rows.size >= 2:
            best = _best_split(XT, g, h, seg, lam, mcw, G**2 / (H + lam))
        if best is None or best[0] <= _GAIN_EPS:
            nodes.append((-1, 0.0, True, -G / (H + lam)))
        else:
            _, f, thr, dl = best
            nodes.append((f, thr, dl, 0.0))
            v = XT[f].take(rows)
            go_left = np.where(np.isnan(v), dl, v < thr)
            goes_left[rows] = go_left
            # children at max_depth are leaves: they only need their rows
            lines = seg if depth + 1 < params.max_depth else seg[-1:]
            mask = goes_left[lines]
            n_left = int(np.count_nonzero(go_left))
            left, right = lines[mask], lines[~mask]
            lines[:, :n_left] = left.reshape(len(lines), n_left)
            lines[:, n_left:] = right.reshape(len(lines), e - s - n_left)
            stack.append((s + n_left, e, depth + 1, node, False))
            stack.append((s, s + n_left, depth + 1, node, True))
        left_of.append(-1)
        right_of.append(-1)
        if parent >= 0:
            (left_of if is_left else right_of)[parent] = node
    feature, threshold, default_left, value = zip(*nodes)
    return Tree(feature, threshold, left_of, right_of, default_left, value)


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
        if not (np.isfinite(w).all() and (w >= 0).all() and w.any()):
            raise InvalidWeights("weights must be finite, non-negative and not all zero")
    return X, y, w


def _boost(X, p: GbtParams, margin, grad_hess) -> list[list[Tree]]:
    """Each round, grow one tree per column of the (n, K) ``margin`` from
    ``grad_hess(margin)``'s (n, K) gradients and hessians, and add its scaled
    predictions to that column in place. Keep ``margin`` C-contiguous: from
    K = 8 on, softmax row sums round differently in another layout."""
    XT = np.ascontiguousarray(X.T)
    order = _sort_columns(XT)
    trees = []
    for t in range(p.num_rounds):
        g, h = (np.ascontiguousarray(a.T) for a in grad_hess(margin))
        rows = _subsample_rows(X.shape[0], p, t)
        group = []
        for k in range(margin.shape[1]):
            tree = _build_tree(XT, g[k], h[k], _tree_block(order, rows), p)
            group.append(tree)
            margin[:, k] += p.learning_rate * tree.predict(X)
        trees.append(group)
    return trees


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

    margin = np.full((X.shape[0], 1), base, dtype=np.float64)
    y, w = y[:, None], w[:, None]
    trees = _boost(X, p, margin, lambda m: logistic_grad_hess(m, y, w))
    return GbtModel("binary_logistic", 1, base, trees, p, X.shape[1])


def train_multiclass(X, y, w, p: GbtParams) -> GbtModel:
    """Fit a softmax boosted ensemble with one tree per class per round."""
    X, y, w = _validate_training_input(X, y, w)
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassInput("multiclass training needs >= 2 classes")
    n_classes = int(classes.max()) + 1

    margin = np.zeros((X.shape[0], n_classes), dtype=np.float64)
    trees = _boost(X, p, margin, lambda m: softmax_grad_hess(m, y, w))
    return GbtModel("multiclass_softmax", n_classes, 0.0, trees, p, X.shape[1])
