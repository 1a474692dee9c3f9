"""Frequency-ordered cascade of binary classifiers.

Stage i separates the i-th most frequent class from everything rarer;
the last stage gets sampled negatives from earlier classes. Inference
walks the stages in order and stops at the first acceptance; rows no
stage accepts come back as Unknown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from . import gbt
from .data import Dataset, compute_sample_weights
from .errors import (
    DimensionMismatch,
    LabelOutOfRange,
    PolicySourceEmpty,
    StageError,
    StageOutOfRange,
    TooFewClasses,
)
from .gbt import GbtModel, GbtParams
from .metrics import UNKNOWN

DEFAULT_THRESHOLD = 0.5
# what route does with a row no stage accepts
UNKNOWN_ACTIONS = ("emit_unknown", "assign_last_class")


@dataclass(frozen=True)
class ClassOrdering:
    """Bijection between original class ids and descending-frequency ranks."""

    class_at: tuple[int, ...]   # rank -> class id; class_at[0] is the majority class

    @property
    def n(self) -> int:
        return len(self.class_at)

    def ranks(self, ids: np.ndarray) -> np.ndarray:
        """Each non-negative class id's rank; -1 for an id not ordered."""
        lookup = np.full(max(max(self.class_at), int(ids.max(initial=0))) + 1, -1)
        lookup[list(self.class_at)] = np.arange(self.n)
        return lookup[ids]


@dataclass(frozen=True)
class StageView:
    stage: int
    row_indices: np.ndarray     # indices into the training Dataset
    binary_labels: np.ndarray   # 1 = this stage's class, 0 = rarer classes / sampled negatives

    @property
    def n_rows(self) -> int:
        return self.row_indices.size

    @property
    def n_positive(self) -> int:
        return int(self.binary_labels.sum())


@dataclass(frozen=True)
class LastStagePolicy:
    source: str = "majority_only"       # majority_only | all_others
    negatives_per_positive: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.source not in ("majority_only", "all_others"):
            raise ValueError(f"bad last-stage source {self.source!r}")
        if not 0 < self.negatives_per_positive < np.inf:
            raise ValueError("negatives_per_positive must be finite and > 0")


@dataclass
class StageMetadata:
    train_size: int
    n_positive: int
    train_seconds: float


@dataclass
class Prediction:
    class_id: int | None                    # None = Unknown
    stage_trace: list[tuple[int, float]]    # (stage, probability) in evaluation order

    @property
    def is_unknown(self) -> bool:
        return self.class_id is None


@dataclass
class SbcModel:
    ordering: ClassOrdering
    stages: list[GbtModel]
    thresholds: list[float]
    last_stage_policy: LastStagePolicy
    metadata: list[StageMetadata]
    class_names: list[str]
    n_features: int

    def __post_init__(self):
        if not len(self.thresholds) == len(self.stages) == self.ordering.n:
            raise ValueError(f"{self.ordering.n} classes need as many stages and thresholds, "
                             f"got {len(self.stages)} and {len(self.thresholds)}")
        if not all(0.0 < t < 1.0 for t in self.thresholds):
            raise ValueError(f"thresholds must be in (0, 1), got {self.thresholds}")
        if any(s.objective != "binary_logistic" for s in self.stages):
            raise ValueError("every cascade stage must be a binary_logistic model")
        ids = self.ordering.class_at
        if min(ids, default=0) < 0 or len(set(ids)) < len(ids):
            raise ValueError(f"class_at must hold distinct non-negative class ids, got {list(ids)}")

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "class_at": list(self.ordering.class_at),
            "thresholds": [float(t) for t in self.thresholds],
            "last_stage_policy": asdict(self.last_stage_policy),
            "metadata": [asdict(m) for m in self.metadata],
            "class_names": list(self.class_names),
            "n_features": self.n_features,
            "stages": [m.to_dict() for m in self.stages],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SbcModel":
        if d.get("format_version") != 1:
            raise ValueError(f"unsupported cascade format version {d.get('format_version')!r}")
        return cls(
            ordering=ClassOrdering(tuple(int(c) for c in d["class_at"])),
            stages=[GbtModel.from_dict(m) for m in d["stages"]],
            thresholds=[float(t) for t in d["thresholds"]],
            last_stage_policy=LastStagePolicy(**d["last_stage_policy"]),
            metadata=[StageMetadata(**m) for m in d["metadata"]],
            class_names=list(d["class_names"]),
            n_features=int(d["n_features"]),
        )


def order_classes(freqs: dict[int, int]) -> ClassOrdering:
    """Sort class ids by descending count; ties go to the lower class id."""
    if len(freqs) < 2:
        raise TooFewClasses("need at least 2 classes")
    if any(c <= 0 for c in freqs.values()):
        raise ValueError("all class counts must be > 0")
    return ClassOrdering(tuple(sorted(freqs, key=lambda c: (-freqs[c], c))))


def binarize_stage(train: Dataset, o: ClassOrdering, i: int) -> StageView:
    """View for stage i < n-1: this stage's class vs all rarer classes."""
    if not (0 <= i <= o.n - 2):
        raise StageOutOfRange(f"stage {i} not in [0, {o.n - 2}]")
    ranks = o.ranks(train.labels)
    if ranks.min(initial=0) < 0:
        raise LabelOutOfRange(f"a training label is not in the class ordering {list(o.class_at)}")
    rows = np.flatnonzero(ranks >= i)
    labels = (train.labels[rows] == o.class_at[i]).astype(np.int64)
    return StageView(i, rows, labels)


def last_stage_view(train: Dataset, o: ClassOrdering, p: LastStagePolicy) -> StageView:
    """View for the final stage: all rarest-class rows plus sampled negatives."""
    rarest = o.class_at[o.n - 1]
    pos = np.flatnonzero(train.labels == rarest)
    if pos.size == 0:
        raise PolicySourceEmpty(f"class {rarest} has no training rows")
    if p.source == "majority_only":
        source = np.flatnonzero(train.labels == o.class_at[0])
    else:
        source = np.flatnonzero(train.labels != rarest)
    if source.size == 0:
        raise PolicySourceEmpty(f"negative source {p.source!r} empty")
    n_neg = min(source.size, int(round(p.negatives_per_positive * pos.size)))
    rng = np.random.default_rng(p.seed)
    neg = source[np.sort(rng.choice(source.size, size=n_neg, replace=False))]
    rows = np.sort(np.concatenate([pos, neg]))
    labels = (train.labels[rows] == rarest).astype(np.int64)
    return StageView(o.n - 1, rows, labels)


def stage_views(train: Dataset, o: ClassOrdering, p: LastStagePolicy) -> list[StageView]:
    views = [binarize_stage(train, o, i) for i in range(o.n - 1)]
    views.append(last_stage_view(train, o, p))
    return views


def train_cascade(
    train: Dataset,
    o: ClassOrdering,
    params_per_stage: GbtParams | list[GbtParams],
    weights_mode: str = "none",
    policy: LastStagePolicy = LastStagePolicy(),
    threshold: float = DEFAULT_THRESHOLD,
) -> SbcModel:
    """Train all n stages in rank order.

    ``weights_mode`` is a compute_sample_weights scheme, applied to each
    stage's binarized labels. A single GbtParams broadcasts to every stage;
    every stage accepts at ``threshold``.
    """
    n = o.n
    if isinstance(params_per_stage, GbtParams):
        params_per_stage = [params_per_stage] * n
    if len(params_per_stage) != n:
        raise ValueError(f"need {n} GbtParams, got {len(params_per_stage)}")

    stages = []
    metadata = []
    for view in stage_views(train, o, policy):
        i = view.stage
        X = train.features[view.row_indices]
        y = view.binary_labels
        w = compute_sample_weights(y, weights_mode)
        t0 = time.perf_counter()
        try:
            model = gbt.train_binary(X, y, w, params_per_stage[i])
        except Exception as exc:
            raise StageError(i, exc) from exc
        metadata.append(StageMetadata(view.n_rows, view.n_positive, time.perf_counter() - t0))
        stages.append(model)

    return SbcModel(
        ordering=o,
        stages=stages,
        thresholds=[float(threshold)] * n,
        last_stage_policy=policy,
        metadata=metadata,
        class_names=list(train.class_names),
        n_features=train.n_features,
    )


def route(m: SbcModel, X: np.ndarray, unknown_action: str = "emit_unknown") -> tuple[np.ndarray, np.ndarray]:
    """Walk the stages for every row of ``X`` (or one 1-D row); a row stops
    at the first stage whose probability is >= its threshold. Returns int64
    class ids, UNKNOWN where no stage accepts (the rarest class under
    ``assign_last_class``), and the stage probabilities, NaN past each exit."""
    if unknown_action not in UNKNOWN_ACTIONS:
        raise ValueError(f"unknown_action {unknown_action!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != m.n_features:
        raise DimensionMismatch(f"expected {m.n_features} features, got {X.shape[1]}")

    unknown = m.ordering.class_at[-1] if unknown_action == "assign_last_class" else UNKNOWN
    class_id = np.full(X.shape[0], unknown, dtype=np.int64)
    proba = np.full((X.shape[0], len(m.stages)), np.nan)
    active = np.arange(X.shape[0])
    for i, stage in enumerate(m.stages):
        if active.size == 0:
            break
        probs = stage.predict_proba(X[active])
        proba[active, i] = probs
        accepted = probs >= m.thresholds[i]
        class_id[active[accepted]] = m.ordering.class_at[i]
        active = active[~accepted]
    return class_id, proba


def predict_batch(m: SbcModel, X: np.ndarray, unknown_action: str = "emit_unknown") -> list[Prediction]:
    """``route`` as one Prediction per row. A row's trace is the stages it
    reached: through its class's rank, or every stage when none accepted it."""
    class_id, proba = route(m, X, unknown_action)
    # an Unknown row reached every stage, as a row the last stage accepts did
    depth = m.ordering.ranks(np.where(class_id == UNKNOWN, m.ordering.class_at[-1], class_id)) + 1
    reached = np.arange(m.ordering.n) < depth[:, None]
    # every reached (stage, probability) in row order: each trace is a slice
    cells = list(zip(np.nonzero(reached)[1].tolist(), proba[reached].tolist()))
    ends = np.cumsum(depth).tolist()
    return [Prediction(None if c == UNKNOWN else c, cells[start:end])
            for c, start, end in zip(class_id.tolist(), [0] + ends[:-1], ends)]
