"""Tabular dataset loading, cleaning, splitting and per-class weighting.

All arrays are numpy; `Dataset` is treated as immutable after construction
and is safe to share between workers.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllRowsDropped,
    EmptyData,
    EmptyDataset,
    FingerprintMismatch,
    InvalidFraction,
    MalformedRow,
    MissingLabelColumn,
)

# sample weighting schemes compute_sample_weights accepts
WEIGHT_SCHEMES = ("none", "inverse_frequency")


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with integer class labels.

    Labels index into ``class_names``; encoding follows first appearance
    in the source file.
    """

    features: np.ndarray          # (n_rows, n_features) float64
    labels: np.ndarray            # (n_rows,) int64 in [0, n_classes)
    class_names: list[str]
    feature_names: list[str]

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features/labels row count mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise ValueError("label out of range of class_names")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, row_indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[row_indices],
            self.labels[row_indices],
            list(self.class_names),
            list(self.feature_names),
        )


@dataclass(frozen=True)
class CleaningPolicy:
    """What to do with duplicate rows and anomalous cells.

    The negative-value action applies to every feature. Its default, keep,
    drops no row.
    """

    drop_duplicates: bool = True
    missing_value_action: str = "drop_row"
    infinity_action: str = "drop_row"
    negative_action: str = "keep"

    MISSING_ACTIONS = ("drop_row", "impute_zero", "impute_median")
    INFINITY_ACTIONS = ("drop_row", "clamp_to_finite_max")
    NEGATIVE_ACTIONS = ("keep", "drop_row", "clamp_zero")

    def __post_init__(self):
        if self.missing_value_action not in self.MISSING_ACTIONS:
            raise ValueError(f"bad missing_value_action {self.missing_value_action!r}")
        if self.infinity_action not in self.INFINITY_ACTIONS:
            raise ValueError(f"bad infinity_action {self.infinity_action!r}")
        if self.negative_action not in self.NEGATIVE_ACTIONS:
            raise ValueError(f"bad negative_action {self.negative_action!r}")


@dataclass
class CleaningReport:
    rows_in: int = 0
    rows_out: int = 0
    duplicates_dropped: int = 0
    rows_dropped_missing: int = 0
    cells_imputed: int = 0
    rows_dropped_infinite: int = 0
    cells_clamped_infinite: int = 0
    rows_dropped_negative: int = 0
    cells_clamped_negative: int = 0

    def as_text(self) -> str:
        pairs = [
            ("rows_in", self.rows_in),
            ("rows_out", self.rows_out),
            ("duplicates_dropped", self.duplicates_dropped),
            ("rows_dropped_missing", self.rows_dropped_missing),
            ("cells_imputed", self.cells_imputed),
            ("rows_dropped_infinite", self.rows_dropped_infinite),
            ("cells_clamped_infinite", self.cells_clamped_infinite),
            ("rows_dropped_negative", self.rows_dropped_negative),
            ("cells_clamped_negative", self.cells_clamped_negative),
        ]
        return "\n".join(f"{k}: {v}" for k, v in pairs) + "\n"


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise InvalidFraction(f"test_fraction must be in (0,1), got {self.test_fraction}")


def _read_rows(path: str) -> list[list[str]]:
    """The file's CSV rows as cell strings, blank lines skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise EmptyDataset(path)
    return rows


def _parse_row(ri: int, row: list[str], columns: list[str]) -> list[float]:
    """One row under the cell rules: a blank cell, "NaN" or "nan" becomes
    NaN; a ragged row or any other non-numeric cell raises MalformedRow."""
    if len(row) != len(columns):
        raise MalformedRow(ri, f"expected {len(columns)} cells, got {len(row)}")
    out = []
    for cell, name in zip(row, columns):
        cell = cell.strip()
        try:
            out.append(float(cell or "nan"))
        except ValueError:
            raise MalformedRow(ri, f"non-numeric cell {cell!r} in column {name!r}") from None
    return out


def _parse_features(rows: list[list[str]], columns: list[str]) -> np.ndarray:
    """(len(rows), len(columns)) float64 matrix under _parse_row's rules."""
    X = np.empty((len(rows), len(columns)), dtype=np.float64)
    for ri, row in enumerate(rows):
        try:
            # a row whose every cell float() reads parses as _parse_row would
            # parse it, only faster; blanks and bad cells take the slow path
            vals = list(map(float, row))
        except ValueError:
            vals = None
        if vals is None or len(vals) != len(columns):
            vals = _parse_row(ri, row, columns)
        X[ri] = vals
    return X


def load_csv(path: str, label_column: str) -> Dataset:
    """Read a comma-delimited UTF-8 file with a header row into a Dataset.

    Class names are encoded by first appearance. Blank, "NaN" and "nan"
    cells become NaN markers for the cleaner; any other non-numeric feature
    cell raises MalformedRow.
    """
    rows = _read_rows(path)
    columns, body = rows[0], rows[1:]

    if label_column not in columns:
        raise MissingLabelColumn(f"{label_column!r} not in {columns}")
    label_idx = columns.index(label_column)
    feature_names = [c for i, c in enumerate(columns) if i != label_idx]

    if not body:
        raise EmptyDataset(path)

    class_names: list[str] = []
    class_index: dict[str, int] = {}
    labels = np.empty(len(body), dtype=np.int64)
    for ri, row in enumerate(body):
        if len(row) != len(columns):
            raise MalformedRow(ri, f"expected {len(columns)} cells, got {len(row)}")
        name = row.pop(label_idx).strip()
        if name not in class_index:
            class_index[name] = len(class_names)
            class_names.append(name)
        labels[ri] = class_index[name]

    features = _parse_features(body, feature_names)
    return Dataset(features, labels, class_names, feature_names)


def load_features(path: str) -> np.ndarray:
    """Read an unlabeled CSV of feature rows under load_csv's cell rules.

    Row 0 is a header only if one of its cells is neither numeric nor
    blank, "NaN" or "nan".
    """
    rows = _read_rows(path)
    columns = [str(i) for i in range(len(rows[0]))]
    try:
        _parse_row(0, rows[0], columns)
        body = rows
    except MalformedRow:
        columns, body = rows[0], rows[1:]
    if not body:
        raise EmptyDataset(path)
    return _parse_features(body, columns)


def export_csv(d: Dataset, path: str, label_column: str = "label") -> None:
    """Write a Dataset back out in the canonical CSV form load_csv accepts."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(d.feature_names + [label_column])
        for i in range(d.n_rows):
            cells = [repr(float(v)) for v in d.features[i]]
            writer.writerow(cells + [d.class_names[d.labels[i]]])


def clean(d: Dataset, p: CleaningPolicy) -> tuple[Dataset, CleaningReport]:
    """Apply a CleaningPolicy; returns a Dataset free of NaN/infinite cells.

    Actions run in order: missing, infinity, negative, duplicates. Row
    order of survivors is preserved.
    """
    report = CleaningReport(rows_in=d.n_rows)
    X = d.features.copy()
    y = d.labels.copy()

    nan_mask = np.isnan(X)
    if nan_mask.any():
        if p.missing_value_action == "drop_row":
            bad = nan_mask.any(axis=1)
            report.rows_dropped_missing = int(bad.sum())
            X, y = X[~bad], y[~bad]
        elif p.missing_value_action == "impute_zero":
            report.cells_imputed = int(nan_mask.sum())
            X[nan_mask] = 0.0
        else:  # impute_median, over finite values per column
            report.cells_imputed = int(nan_mask.sum())
            for j in range(X.shape[1]):
                col = X[:, j]
                m = np.isnan(col)
                if m.any():
                    finite = col[~m & np.isfinite(col)]
                    col[m] = float(np.median(finite)) if finite.size else 0.0

    inf_mask = np.isinf(X)
    if inf_mask.any():
        if p.infinity_action == "drop_row":
            bad = inf_mask.any(axis=1)
            report.rows_dropped_infinite = int(bad.sum())
            X, y = X[~bad], y[~bad]
        else:  # clamp to largest finite value of the column (sign-aware)
            report.cells_clamped_infinite = int(inf_mask.sum())
            for j in range(X.shape[1]):
                col = X[:, j]
                m = np.isinf(col)
                if m.any():
                    finite = col[np.isfinite(col)]
                    hi = float(finite.max()) if finite.size else 0.0
                    lo = float(finite.min()) if finite.size else 0.0
                    col[m & (col > 0)] = hi
                    col[m & (col < 0)] = lo

    if p.negative_action != "keep":
        neg = X < 0
        if p.negative_action == "drop_row":
            bad = neg.any(axis=1)
            report.rows_dropped_negative = int(bad.sum())
            X, y = X[~bad], y[~bad]
        else:
            report.cells_clamped_negative = int(neg.sum())
            X[neg] = 0.0

    if p.drop_duplicates and X.shape[0]:
        combined = np.column_stack([X, y.astype(np.float64)])
        seen: set[bytes] = set()
        keep = np.ones(X.shape[0], dtype=bool)
        for i in range(X.shape[0]):
            key = combined[i].tobytes()
            if key in seen:
                keep[i] = False
            else:
                seen.add(key)
        report.duplicates_dropped = int((~keep).sum())
        X, y = X[keep], y[keep]

    if X.shape[0] == 0:
        raise AllRowsDropped("cleaning removed every row")

    report.rows_out = X.shape[0]
    return Dataset(X, y, list(d.class_names), list(d.feature_names)), report


def stratified_split(d: Dataset, s: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic train/test partition.

    Per class the test count is round-half-up(count * test_fraction),
    clamped so at least one row stays in training. Single-exemplar classes
    go entirely to train with a warning.
    """
    rng = np.random.default_rng(s.seed)
    test_parts = []
    train_parts = []
    for c in range(d.n_classes):
        idx = np.flatnonzero(d.labels == c)
        if idx.size == 0:
            continue
        k = int(np.floor(idx.size * s.test_fraction + 0.5))
        k = min(max(k, 0), idx.size - 1)
        if idx.size == 1:
            warnings.warn(
                f"class {d.class_names[c]!r} has a single exemplar; kept entirely in train"
            )
        perm = rng.permutation(idx.size)
        test_parts.append(idx[perm[:k]])
        train_parts.append(idx[perm[k:]])

    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts)) if any(p.size for p in test_parts) else np.array([], dtype=int)
    return d.subset(train_idx), d.subset(test_idx)


def align_to(d: Dataset, class_names: list[str]) -> Dataset:
    """Re-encode labels against an external class-name order.

    Used when a test file is loaded separately from the training file, so
    both speak the same label ids. Class names ``class_names`` lacks raise
    FingerprintMismatch.
    """
    index = {name: i for i, name in enumerate(class_names)}
    extra = [c for c in d.class_names if c not in index]
    if extra:
        raise FingerprintMismatch(f"dataset classes {extra} unknown to bundle")
    labels = np.array([index[d.class_names[c]] for c in d.labels], dtype=np.int64)
    return Dataset(d.features, labels, list(class_names), list(d.feature_names))


def class_frequencies(d: Dataset) -> dict[int, int]:
    """Counts per class id, keyed in ascending class id order."""
    counts = np.bincount(d.labels, minlength=d.n_classes)
    return {c: int(counts[c]) for c in range(d.n_classes) if counts[c] > 0}


def compute_sample_weights(labels: np.ndarray, scheme: str = "none") -> np.ndarray:
    """Per-row weights; ``inverse_frequency`` gives class c weight N/(K*n_c).

    The normalization makes weighting a no-op on balanced data.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptyData("empty label vector")
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    if scheme == "none":
        return np.ones(labels.size, dtype=np.float64)
    classes, counts = np.unique(labels, return_counts=True)
    n_total = labels.size
    k = classes.size
    per_class = n_total / (k * counts.astype(np.float64))
    lookup = dict(zip(classes.tolist(), per_class.tolist()))
    return np.array([lookup[c] for c in labels.tolist()], dtype=np.float64)
