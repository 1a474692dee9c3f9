"""Self-contained gradient-boosted decision trees.

Supports a binary-logistic head (cascade base classifier) and a
multiclass-softmax head (baseline), boosted by one loop: the binary head is
its one-column case. Split finding is exact greedy over
columns sorted once per fit (the column-block layout of XGBoost), each node
scoring its features as blocks in a few numpy calls, and the root's cuts,
which depend only on its rows, found once per row set. A softmax round's
trees grow in forked worker processes, one per usable CPU; all randomness
flows from the params seed, so training is reproducible bit-for-bit.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from .errors import (DimensionMismatch, EmptyData, InvalidWeights, LabelOutOfRange,
                     SingleClassInput)

_GAIN_EPS = 1e-12
_BLOCK = 2**15  # (features x rows) cells _best_split scores at once


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
        if not 0 <= self.min_child_weight < np.inf:
            raise ValueError("min_child_weight must be finite and >= 0")
        if not 0 <= self.l2_lambda < np.inf:
            raise ValueError("l2_lambda must be finite and >= 0")
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
        # training writes inf thresholds (a cut next to inf data) but no NaN
        if np.isnan(t.value).any() or np.isnan(t.threshold).any():
            raise ValueError("a tree's value or threshold holds NaN")
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
        # leaves may sum past the largest double: an infinite margin is a valid vote
        with np.errstate(over="ignore", invalid="ignore"):
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
        base_score = float(d["base_score"])
        if not np.isfinite(base_score):
            raise ValueError(f"base_score must be finite, got {base_score!r}")
        return cls(
            objective=objective,
            n_classes=n_classes,
            base_score=base_score,
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
    top = scores.max(axis=1, keepdims=True)
    # a margin equal to its row's top gives 0 without subtracting, so an
    # infinite top gives 0, not inf - inf = NaN
    z = np.subtract(scores, top, out=np.zeros_like(scores), where=scores != top)
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


def _block_cuts(XT, lines, a):
    """The part of scoring the block of features ``a, a+1, ...`` (sorted row
    ``lines``) that depends on no gradient: the flat (line, position) of each
    cut's lower value, the block's ``bounds`` into them, per-line cut counts,
    the lines that have cuts and where their cuts start, and the lines ending
    in NaN with their non-missing counts. None if the block has no cut."""
    n = XT.shape[1]
    kb, m = lines.shape
    V = XT.take(lines + np.arange(a * n, (a + kb) * n, n)[:, None])
    is_cut = np.zeros((kb, m), dtype=bool)
    np.less(V[:, :-1], V[:, 1:], out=is_cut[:, :-1])
    cut = np.flatnonzero(is_cut)
    if cut.size == 0:
        return None
    bounds = np.searchsorted(cut, np.arange(kb + 1) * m)
    count = np.diff(bounds)
    cut_lines = np.flatnonzero(count)
    missing = np.flatnonzero(np.isnan(V[:, -1]))
    n_ok = m - np.count_nonzero(np.isnan(V[missing]), axis=1)
    return cut, bounds, count, cut_lines, bounds[cut_lines], missing, n_ok


def _block_lines(seg, n_features):
    """Each block of features _best_split scores a node at once: its first
    feature and its (features x m) sorted row lines, ``seg``'s last line, the
    rows, left out. Blocks hold up to ``_BLOCK // m`` features."""
    k = max(1, _BLOCK // seg.shape[1])
    for a in range(0, n_features, k):
        # take() is far slower on int32 indices than on intp ones
        yield a, seg[a:min(a + k, n_features)].astype(np.intp)


def _root_cuts(XT, block) -> list:
    """_block_cuts of each block of a tree's root, shared by every tree grown
    over the same rows."""
    return [_block_cuts(XT, lines, a) for a, lines in _block_lines(block, XT.shape[0])]


def _best_split(XT, g, h, seg, lam, mcw, parent_score, cuts=None):
    """Best (gain, feature, threshold, default_left) of the node whose block
    segment is ``seg``, or None; ``cuts`` is the node's _root_cuts, if known.

    Scores each of _block_lines' blocks in a few numpy calls over its
    (features x m) sorted g and h. A cut lies between two adjacent values
    that differ; NaNs sort last and compare false, so they cut nothing, and
    their rows go as one group to whichever side scores better. Ties keep the
    lowest feature, then default_left, then the lowest threshold; a NaN gain,
    once first, is kept.
    """
    m = seg.shape[1]
    best = None
    for i, (a, lines) in enumerate(_block_lines(seg, XT.shape[0])):
        block_cuts = _block_cuts(XT, lines, a) if cuts is None else cuts[i]
        if block_cuts is None:
            continue
        cut, bounds, count, cut_lines, starts, missing, n_ok = block_cuts
        kb = lines.shape[0]
        G = g.take(lines)
        H = h.take(lines)
        gl = G.cumsum(axis=1).take(cut)
        hl = H.cumsum(axis=1).take(cut)
        g_tot = G.sum(axis=1)  # a C-contiguous row sums bit for bit as a 1-D array
        h_tot = H.sum(axis=1)
        passes = [(gl, hl)]
        if missing.size:
            gm = np.zeros(kb)
            hm = np.zeros(kb)
            for j, n_j in zip(missing.tolist(), n_ok.tolist()):
                gm[j] = G[j, n_j:].sum()
                hm[j] = H[j, n_j:].sum()
                g_tot[j] = G[j, :n_j].sum() + gm[j]
                h_tot[j] = H[j, :n_j].sum() + hm[j]
            passes.insert(0, (gl + np.repeat(gm, count), hl + np.repeat(hm, count)))
        scores, gains = [], []
        g_tot, h_tot = np.repeat(g_tot, count), np.repeat(h_tot, count)  # per cut
        for GL, HL in passes:  # missing rows left, then right
            GR = g_tot - GL
            HR = h_tot - HL
            DL, DR = HL + lam, HR + lam
            # a child of zero hessian at l2_lambda 0 would score 0/0
            ok = (HL >= mcw) & (HR >= mcw) & (DL != 0) & (DR != 0)
            score = GL**2 / DL + GR**2 / DR
            score[~ok] = -np.inf
            scores.append(score)
            # NaN if any score is, as argmax picks the first NaN; -inf if no
            # cut leaves both children min_child_weight
            high = np.maximum.reduceat(score, starts)
            gains.append(np.where(high == -np.inf, -np.inf, 0.5 * (high - parent_score)))
        gain = gains[0]
        right = np.zeros(cut_lines.size, dtype=bool)
        if len(passes) == 2:
            # missing rows go right only for a strictly greater gain; a line
            # with none scores the same twice
            right = gains[1] > gain
            gain = np.where(right, gains[1], gain)
        # strict ">" in feature order: the first line's NaN gain is kept, and
        # a later NaN replaces nothing
        top = np.where(np.isnan(gain), -np.inf, gain)
        j = int(top.argmax())
        if best is None and np.isnan(gain[0]):
            j = 0
        elif not top[j] > (-np.inf if best is None else best[0]):
            continue
        line = int(cut_lines[j])
        s, e = bounds[line], bounds[line + 1]
        c = int(cut[s + int(scores[int(right[j])][s:e].argmax())]) - line * m  # the first max
        f = a + line
        # Python floats overflow silently
        lo, hi = float(XT[f, lines[line, c]]), float(XT[f, lines[line, c + 1]])
        # the midpoint leaves (lo, hi] on an overflow to inf, a -inf lo or
        # adjacent doubles rounding down; hi still sends lo's rows left
        thr = 0.5 * (lo + hi)
        best = (float(gain[j]), f, thr if lo < thr <= hi else hi, not right[j])
    return best


def _build_tree(XT, g, h, block, root_cuts, params: GbtParams):
    """Grow one tree over ``block`` (see _tree_block), whose root's cuts are
    ``root_cuts`` (see _root_cuts), partitioning it in place: each node owns
    the columns [s, e) of every line, and a split moves its left rows, in
    order, to the front. Nodes are numbered in preorder. Returns the tree and
    a row-ordered column of each block row's leaf value; others are unset."""
    lam = params.l2_lambda
    mcw = params.min_child_weight
    goes_left = np.zeros(XT.shape[1], dtype=bool)
    column = np.empty(XT.shape[1])
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
        # H + lam is 0 only with l2_lambda 0 and hessians that are all 0: the
        # node's value is 0, and so would every descendant's be
        if depth < params.max_depth and rows.size >= 2 and H + lam:
            # NaN and inf scores are handled explicitly (see _best_split)
            with np.errstate(divide="ignore", invalid="ignore"):
                best = _best_split(XT, g, h, seg, lam, mcw, G**2 / (H + lam),
                                   root_cuts if node == 0 else None)
        if best is None or best[0] <= _GAIN_EPS:
            nodes.append((-1, 0.0, True, -G / (H + lam) if H + lam else 0.0))
            column[rows] = nodes[-1][3]
        else:
            _, f, thr, dl = best
            nodes.append((f, thr, dl, 0.0))
            v = XT[f].take(rows)
            go_left = np.where(np.isnan(v), dl, v < thr)
            goes_left[rows] = go_left
            # children at max_depth are leaves: they only need their rows
            lines = seg if depth + 1 < params.max_depth else seg[-1:]
            # a stable 1-D partition of every line at once; a contiguous
            # segment's ravel() is a view, so both halves are copied first
            flat = lines.ravel()
            mask = goes_left.take(flat)
            left, right = flat.compress(mask), flat.compress(~mask)
            n_left = int(np.count_nonzero(go_left))
            lines[:, :n_left] = left.reshape(len(lines), n_left)
            lines[:, n_left:] = right.reshape(len(lines), e - s - n_left)
            stack.append((s + n_left, e, depth + 1, node, False))
            stack.append((s, s + n_left, depth + 1, node, True))
        left_of.append(-1)
        right_of.append(-1)
        if parent >= 0:
            (left_of if is_left else right_of)[parent] = node
    feature, threshold, default_left, value = zip(*nodes)
    return Tree(feature, threshold, left_of, right_of, default_left, value), column


def _subsample_rows(n, params: GbtParams, round_index: int) -> np.ndarray:
    if params.subsample >= 1.0:
        return np.arange(n)
    k = max(1, int(round(params.subsample * n)))
    rng = np.random.default_rng(params.seed + round_index)
    return np.sort(rng.choice(n, size=k, replace=False))


def _validate_training_input(X, y, w):
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyData("empty feature matrix")
    if labels.shape[0] != X.shape[0]:
        raise DimensionMismatch("labels length != rows")
    # the cast would truncate 2.5 to 2 and keep -1, a negative class index
    with np.errstate(invalid="ignore"):  # NaN and inf cast to some integer
        y = labels.astype(np.int64)
    bad = (y < 0) | (y != labels)
    if bad.any():
        raise LabelOutOfRange(f"training label {labels[bad][0]} is not a whole number >= 0")
    if w is None:
        w = np.ones(X.shape[0], dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64)
        if w.shape[0] != X.shape[0]:
            raise DimensionMismatch("weights length != rows")
        if not (np.isfinite(w).all() and (w >= 0).all() and w.any()):
            raise InvalidWeights("weights must be finite, non-negative and not all zero")
    return X, y, w


class _TreeGrower:
    """The one owner of a fit's boosting rounds: ``grower((t, g, h))`` grows
    round ``t``'s tree from one column's gradients ``g`` and hessians ``h``
    and returns it and its leaf value at every row, a row-ordered column.

    It draws a round's sample from the seed and builds its block and root
    cuts once (once per fit without subsampling); each tree partitions a
    copy of the block, and unsampled rows take Tree.predict's values. A fork
    pool's workers inherit it and work the rounds out alike."""

    def __init__(self, X, p: GbtParams):
        self.X, self.XT, self.p = X, np.ascontiguousarray(X.T), p
        self.order = _sort_columns(self.XT)
        self._use_round(0)

    def _use_round(self, t):
        self.round = t
        rows = _subsample_rows(self.X.shape[0], self.p, t)
        self.out = np.delete(np.arange(self.X.shape[0]), rows)
        self.block = _tree_block(self.order, rows)
        self.root_cuts = _root_cuts(self.XT, self.block)

    def __call__(self, task):
        t, g, h = task
        if t != self.round and self.p.subsample < 1.0:
            self._use_round(t)
        tree, column = _build_tree(self.XT, g, h, self.block.copy(), self.root_cuts, self.p)
        if self.out.size:
            column[self.out] = tree.predict(self.X[self.out])
        return tree, column


_worker_grower = None  # a pool worker's inherited _TreeGrower; None elsewhere


def _init_worker(grower):
    global _worker_grower
    _worker_grower = grower


def _grow_in_worker(task):
    return _worker_grower(task)


def _usable_cpus() -> int:
    """The CPUs this process may run on, which taskset limits; 1 where the
    OS cannot say (macOS and Windows, where fork is unsafe or missing)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def _tree_map(grower, n_trees):
    """The map a fit runs ``grower`` over each round's tasks with: a fork
    pool's, whose workers, one per usable CPU up to ``n_trees``, inherit
    ``grower``; or the builtin map, with one worker, without fork, or in a
    daemonic process, which may not start children."""
    workers = min(n_trees, _usable_cpus())
    if workers > 1:
        import multiprocessing  # here, as most fits and commands start no pool
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_init_worker, initargs=(grower,)) as pool:
                yield partial(pool.map, _grow_in_worker)
            return
    yield partial(map, grower)


def _boost(X, p: GbtParams, margin, grad_hess) -> list[list[Tree]]:
    """Each round, grow one tree per column of the (n, K) ``margin`` from
    ``grad_hess(margin)``'s (n, K) gradients and hessians, and add its scaled
    leaf value column to that column in place. Keep ``margin`` C-contiguous:
    from K = 8 on, softmax row sums round differently in another layout.

    A round's trees depend only on its gradients, so _tree_map may grow them
    at once; their values are added in column order all the same."""
    trees = []
    with _tree_map(_TreeGrower(X, p), margin.shape[1]) as tree_map:
        for t in range(p.num_rounds):
            g, h = (np.ascontiguousarray(a.T) for a in grad_hess(margin))
            group = []
            for k, (tree, column) in enumerate(tree_map([(t, *gh) for gh in zip(g, h)])):
                group.append(tree)
                margin[:, k] += p.learning_rate * column
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
