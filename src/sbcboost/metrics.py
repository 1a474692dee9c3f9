"""Closed-set evaluation: confusion matrices, per-class P/R/F1, summaries.

Pure functions over immutable inputs. Degenerate 0/0 precision/recall is
defined as 0 so absent predictions penalize a class instead of emitting
NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LabelOutOfRange, LengthMismatch

UNKNOWN = -1  # sentinel prediction label for rows rejected by every stage


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray      # (n, n) or (n, n+1) with trailing Unknown column
    n_classes: int
    has_unknown: bool

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassReport:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalSummary:
    accuracy: float
    avg_f1: float
    std_f1: float       # population convention
    per_class: list[ClassReport]
    timings: dict[str, float] = field(default_factory=dict)


def confusion(y_true, y_pred, n: int, has_unknown: bool = False) -> ConfusionMatrix:
    """Count matrix with rows = true class, columns = predicted class.

    Predictions equal to UNKNOWN go to a trailing extra column when
    ``has_unknown`` is set.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"{y_true.shape} vs {y_pred.shape}")
    if y_true.size and (y_true.min() < 0 or y_true.max() >= n):
        raise LabelOutOfRange("true label out of range")
    unknown = y_pred == UNKNOWN
    bad = ((y_pred < 0) | (y_pred >= n)) & ~(unknown & has_unknown)
    if bad.any():
        p = int(y_pred[bad.argmax()])  # the first bad row's
        if p == UNKNOWN:
            raise LabelOutOfRange("UNKNOWN prediction without an unknown column")
        raise LabelOutOfRange(f"predicted label {p} out of range")
    cols = n + 1 if has_unknown else n
    cells = y_true * cols + np.where(unknown, n, y_pred)
    counts = np.bincount(cells, minlength=n * cols).astype(np.int64, copy=False)
    return ConfusionMatrix(counts.reshape(n, cols), n, has_unknown)


def per_class_report(cm: ConfusionMatrix) -> list[ClassReport]:
    """Precision/recall/F1 per class from the square part of the matrix.

    Unknown-column counts contribute to row sums (missed recall) but to no
    class's precision.
    """
    n = cm.n_classes
    out = []
    for tp, col, row in zip(cm.counts.diagonal().tolist(), cm.counts[:, :n].sum(axis=0).tolist(),
                            cm.counts.sum(axis=1).tolist()):
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
        out.append(ClassReport(precision, recall, f1, row))
    return out


def summarize(cm: ConfusionMatrix, per_class: list[ClassReport], timings: dict[str, float] | None = None) -> EvalSummary:
    total = cm.total
    trace = int(np.trace(cm.counts[:, : cm.n_classes]))
    accuracy = trace / total if total else 0.0
    f1s = np.array([r.f1 for r in per_class])
    return EvalSummary(
        accuracy=accuracy,
        avg_f1=float(f1s.mean()) if f1s.size else 0.0,
        std_f1=float(f1s.std()) if f1s.size else 0.0,
        per_class=list(per_class),
        timings=dict(timings or {}),
    )


def macro_f1(y_true, y_pred, n: int, present_only: bool = False) -> float:
    """Unweighted mean of per-class F1; the toolkit's headline CV metric.

    ``present_only`` averages only over classes with support, which keeps
    cross-validation folds comparable when a rare class misses a fold.
    """
    cm = confusion(y_true, y_pred, n)
    report = per_class_report(cm)
    if present_only:
        f1s = [r.f1 for r in report if r.support > 0]
    else:
        f1s = [r.f1 for r in report]
    return float(np.mean(f1s)) if f1s else 0.0


def accuracy_score(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"{y_true.shape} vs {y_pred.shape}")
    return float((y_true == y_pred).mean()) if y_true.size else 0.0


def normalize_percent(cm: ConfusionMatrix) -> np.ndarray:
    """Row-normalize to percentages; zero-support rows stay all-zero."""
    counts = cm.counts.astype(np.float64)
    sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(sums > 0, 100.0 * counts / sums, 0.0)
    return out


def format_summary(summary: EvalSummary, class_names: list[str]) -> str:
    lines = [f"{'class':30s} {'precision':>9s} {'recall':>9s} {'f1':>9s} {'support':>8s}"]
    for name, r in zip(class_names, summary.per_class):
        lines.append(f"{name:30s} {r.precision:9.4f} {r.recall:9.4f} {r.f1:9.4f} {r.support:8d}")
    lines.append("")
    lines.append(f"Accuracy    {summary.accuracy:.4f}")
    lines.append(f"Average F1  {summary.avg_f1:.4f}")
    lines.append(f"Std-dev F1  {summary.std_f1:.4f}")
    for key in ("hpo_s", "train_s", "test_s"):
        if key in summary.timings:
            lines.append(f"{key:11s} {summary.timings[key]:.3f}")
    return "\n".join(lines) + "\n"


def export_matrix(matrix: np.ndarray, path: str) -> None:
    np.savetxt(path, matrix, delimiter=",", fmt="%s")
