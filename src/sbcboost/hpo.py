"""Hyperparameter search: k-fold grid search, successive halving, and the
pruned per-stage variant for cascades.

Candidates are enumerated lexicographically over parameter name, then
value index; ties in score always resolve to the earlier candidate, so
every search is deterministic given its seeds.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import cascade as casc
from . import gbt
from .data import Dataset, compute_sample_weights, shuffled_classes
from .errors import FoldDegenerate, SingleClassInput, StageError, ValueNotInGrid
from .gbt import GbtParams
from .metrics import accuracy_score, macro_f1

PRUNE_DIRECTIONS = ("upper_bound", "lower_bound", "unpruned")

# directions applied when a grid file doesn't name one
DEFAULT_PRUNE = {
    "max_depth": "upper_bound",
    "num_rounds": "upper_bound",
    "min_child_weight": "lower_bound",
    "learning_rate": "unpruned",
    "l2_lambda": "unpruned",
    "subsample": "unpruned",
}


@dataclass(frozen=True)
class HpGrid:
    """Per parameter: ascending candidate values and a pruning direction."""

    values: dict[str, tuple]
    prune: dict[str, str]

    def __post_init__(self):
        for name, vals in self.values.items():
            if not vals:
                raise ValueError(f"empty candidate list for {name!r}")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"candidates for {name!r} must be strictly ascending")
            if self.prune.get(name, "unpruned") not in PRUNE_DIRECTIONS:
                raise ValueError(f"bad prune direction for {name!r}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "HpGrid":
        values, prune = {}, {}
        for name, spec in mapping.items():
            if not isinstance(spec, dict):
                spec = {"values": spec}
            values[name] = tuple(spec["values"])
            prune[name] = spec.get("prune", DEFAULT_PRUNE.get(name, "unpruned"))
        return cls(values, prune)

    @classmethod
    def from_file(cls, path: str) -> "HpGrid":
        with open(path, encoding="utf-8") as fh:
            return cls.from_mapping(json.load(fh))

    def combinations(self) -> list[dict]:
        names = sorted(self.values)
        out = []
        for combo in itertools.product(*(self.values[n] for n in names)):
            out.append(dict(zip(names, combo)))
        return out

    def size(self) -> int:
        return math.prod(len(v) for v in self.values.values())


@dataclass(frozen=True)
class CvConfig:
    folds: int = 3
    metric: str = "macro_f1"        # macro_f1 | accuracy
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.metric not in ("macro_f1", "accuracy"):
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class HalvingConfig:
    factor: int = 3
    min_resources: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.factor < 2:
            raise ValueError("factor must be >= 2")
        if self.min_resources < 1:
            raise ValueError("min_resources must be >= 1")


@dataclass
class Trial:
    params: dict
    resources: int
    score: float
    seconds: float


@dataclass
class HpoResult:
    """A search's winner and its scored trials, one per candidate per scored
    rung; ``best_score`` is the winner's score at the rung that chose it."""

    best_params: GbtParams
    best_score: float
    trials: list[Trial]
    wall_clock: float

    def export_trials(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.trials:
                fh.write(json.dumps(asdict(t)) + "\n")


def _kfold_indices(y: np.ndarray, cv: CvConfig) -> list[np.ndarray]:
    """Deterministic stratified fold membership for each row. The fold
    count is capped at the row count: every fold past it would be empty,
    and numpy cannot take a count such as 10**30."""
    folds = min(cv.folds, y.size)
    fold_of = np.empty(y.size, dtype=np.int64)
    for _, idx in shuffled_classes(y, np.random.default_rng(cv.seed)):
        fold_of[idx] = np.arange(idx.size) % folds
    return [np.flatnonzero(fold_of == f) for f in range(folds)]


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    params: GbtParams,
    cv: CvConfig,
    objective: str = "binary",
    weights_mode: str = "none",
) -> float:
    """Mean held-out metric across folds; folds fixed by the cv seed."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    folds = _kfold_indices(y, cv)
    scores = []
    for f, val_idx in enumerate(folds):
        if np.unique(y[val_idx]).size < 2:
            raise FoldDegenerate(f, "validation part has a single class")
        mask = np.ones(y.size, dtype=bool)
        mask[val_idx] = False
        tr_idx = np.flatnonzero(mask)
        y_tr = y[tr_idx]
        w = compute_sample_weights(y_tr, weights_mode)
        try:
            if objective == "binary":
                model = gbt.train_binary(X[tr_idx], y_tr, w, params)
            else:
                model = gbt.train_multiclass(X[tr_idx], y_tr, w, params)
        except SingleClassInput as exc:
            raise FoldDegenerate(f, str(exc)) from exc
        pred = model.predict_class(X[val_idx])
        if cv.metric == "accuracy":
            scores.append(accuracy_score(y[val_idx], pred))
        else:
            scores.append(macro_f1(y[val_idx], pred, n_classes, present_only=True))
    return float(np.mean(scores))


def grid_search(
    grid: HpGrid,
    X: np.ndarray,
    y: np.ndarray,
    cv: CvConfig,
    objective: str = "binary",
    weights_mode: str = "none",
    base_params: GbtParams = GbtParams(),
) -> HpoResult:
    """Exhaustive search: successive halving with a single rung, so every
    combination is scored on the full data and ``best_score`` is the
    winner's full-data score."""
    return halving_grid_search(
        grid, X, y, cv, HalvingConfig(min_resources=len(y)), objective, weights_mode, base_params
    )


def halving_schedule(n_candidates: int, n_rows: int, factor: int, min_resources: int) -> list[tuple[int, int]]:
    """(candidate count, row budget) per iteration.

    Survivors shrink by ceil(n/factor); resources multiply by factor until
    capped at the full row count. Stops once a single candidate remains or
    the cap is reached. A trailing single-candidate iteration holds the
    previous one's winner, so halving_grid_search does not score it.
    """
    schedule = []
    n = n_candidates
    r = min(min_resources, n_rows)
    while True:
        schedule.append((n, r))
        if n == 1 or r >= n_rows:
            break
        n = math.ceil(n / factor)
        r = min(r * factor, n_rows)
    return schedule


def _stratified_subsample(y: np.ndarray, size: int, folds: int, rng) -> np.ndarray:
    """Roughly proportional subsample keeping >= min(count, folds) rows per
    class so every CV fold can still see every class."""
    n = y.size
    if size >= n:
        return np.arange(n)
    parts = []
    for _, idx in shuffled_classes(y, rng):
        quota = min(max(round(size * idx.size / n), folds), idx.size)
        parts.append(idx[:quota])
    return np.sort(np.concatenate(parts))


def halving_grid_search(
    grid: HpGrid,
    X: np.ndarray,
    y: np.ndarray,
    cv: CvConfig,
    hc: HalvingConfig,
    objective: str = "binary",
    weights_mode: str = "none",
    base_params: GbtParams = GbtParams(),
) -> HpoResult:
    """Successive halving over the grid's combinations.

    Each rung cross-validates the schedule's count of top-ranked candidates
    on a fresh stratified subsample, in enumeration order, and re-ranks them:
    best score first, equal scores in enumeration order. A later rung that
    holds one candidate is not scored, since that candidate won the rung
    before, and the winner is not re-scored on the full data.
    """
    t_start = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    combos = grid.combinations()
    schedule = halving_schedule(len(combos), y.size, hc.factor, hc.min_resources)

    trials = []
    ranked = list(range(len(combos)))
    for it, (n_cand, resources) in enumerate(schedule):
        if it and n_cand == 1:
            break  # ranked[0] won the rung before
        rng = np.random.default_rng(hc.seed + it)
        sub = _stratified_subsample(y, resources, cv.folds, rng)
        X_sub, y_sub = X[sub], y[sub]
        scores = {}
        for ci in sorted(ranked[:n_cand]):
            params = replace(base_params, **combos[ci])
            t0 = time.perf_counter()
            scores[ci] = cross_validate(X_sub, y_sub, params, cv, objective, weights_mode)
            trials.append(Trial(combos[ci], int(resources), scores[ci], time.perf_counter() - t0))
        ranked = sorted(scores, key=lambda ci: -scores[ci])  # stable: ties keep enumeration order

    return HpoResult(
        best_params=replace(base_params, **combos[ranked[0]]),
        best_score=scores[ranked[0]],
        trials=trials,
        wall_clock=time.perf_counter() - t_start,
    )


def prune_grid(grid: HpGrid, best_prev: GbtParams) -> HpGrid:
    """Shrink each bounded parameter's list around the previous stage's best.

    upper_bound keeps candidates <= the best value, lower_bound keeps >=;
    the best value itself always survives, so the result is never empty.
    """
    values = {}
    for name, vals in grid.values.items():
        best = getattr(best_prev, name)
        if best not in vals:
            raise ValueNotInGrid(f"{name}={best!r} not among candidates {vals}")
        direction = grid.prune.get(name, "unpruned")
        if direction == "upper_bound":
            values[name] = tuple(v for v in vals if v <= best)
        elif direction == "lower_bound":
            values[name] = tuple(v for v in vals if v >= best)
        else:
            values[name] = vals
    return HpGrid(values, dict(grid.prune))


def phgs_cascade(
    train: Dataset,
    o: casc.ClassOrdering,
    grid: HpGrid,
    cv: CvConfig,
    hc: HalvingConfig,
    weights_mode: str = "none",
    policy: casc.LastStagePolicy = casc.LastStagePolicy(),
    base_params: GbtParams = GbtParams(),
    threshold: float = casc.DEFAULT_THRESHOLD,
) -> tuple[casc.SbcModel, list[HpoResult]]:
    """Per-stage halving search where stage i's grid is the previous stage's
    effective grid pruned around its best parameters.

    This is the only per-stage driver: hgs is a grid whose prune map is
    empty (every parameter unpruned), and gs is that grid with
    ``hc.min_resources`` at least ``train.n_rows``, one rung on each
    stage's full data.
    """
    views = casc.stage_views(train, o, policy)
    results = []
    best_per_stage = []
    current_grid = grid
    for view in views:
        X = train.features[view.row_indices]
        y = view.binary_labels
        try:
            result = halving_grid_search(
                current_grid, X, y, cv, hc,
                objective="binary", weights_mode=weights_mode, base_params=base_params,
            )
        except Exception as exc:
            raise StageError(view.stage, exc) from exc
        results.append(result)
        best_per_stage.append(result.best_params)
        if view.stage < o.n - 1:
            current_grid = prune_grid(current_grid, result.best_params)

    model = casc.train_cascade(train, o, best_per_stage, weights_mode, policy, threshold)
    return model, results
