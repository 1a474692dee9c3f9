"""Tabular dataset loading, cleaning, splitting and per-class weighting.

All arrays are numpy; `Dataset` is treated as immutable after construction
and is safe to share between workers.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AllRowsDropped,
    EmptyData,
    EmptyDataset,
    FingerprintMismatch,
    InvalidFraction,
    MalformedRow,
    MissingLabelColumn,
    UnreadableFile,
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
        return "".join(f"{f.name}: {getattr(self, f.name)}\n" for f in fields(self))


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise InvalidFraction(f"test_fraction must be in (0,1), got {self.test_fraction}")


def _parse_row(ri: int, row: list[str], columns: list[str]) -> list[float]:
    """One row under the cell rules: a blank cell, "NaN" or "nan" becomes
    NaN; any other non-numeric cell raises MalformedRow."""
    out = []
    for cell, name in zip(row, columns):
        cell = cell.strip()
        try:
            out.append(float(cell or "nan"))
        except ValueError:
            raise MalformedRow(ri, f"non-numeric cell {cell!r} in column {name!r}") from None
    return out


def _read_csv(path: str, label_column: str | None = None):
    """One pass over a comma-delimited UTF-8 file, parsing each row as
    csv.reader yields it: blank lines are skipped, a row's width is checked
    once, its label cell (if any) popped and stripped, and its feature cells
    parsed under _parse_row's rules into an 8-bytes-per-cell buffer.

    Returns (features, labels, class_names, feature_names). Without a
    label column the labels are empty, and row 0 is a header only if one of
    its cells is neither numeric nor blank, "NaN" or "nan".
    """
    X, labels, class_index = array("d"), array("q"), {}
    ri = None  # the body row last parsed, once the first row is read
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = filter(None, csv.reader(fh))
            columns = next(rows, None)
            if columns is None:
                raise EmptyDataset(path)
            width, label_idx = len(columns), None
            if label_column is not None:
                if label_column not in columns:
                    raise MissingLabelColumn(f"{label_column!r} not in {columns}")
                label_idx = columns.index(label_column)
                columns = columns[:label_idx] + columns[label_idx + 1:]
            else:
                names = [str(i) for i in range(width)]
                try:
                    _parse_row(0, columns, names)
                    rows, columns = itertools.chain([columns], rows), names
                except MalformedRow:
                    pass
            ri = -1
            for ri, row in enumerate(rows):
                if len(row) != width:
                    raise MalformedRow(ri, f"expected {width} cells, got {len(row)}")
                if label_idx is not None:
                    labels.append(class_index.setdefault(row.pop(label_idx).strip(),
                                                         len(class_index)))
                try:
                    # a row whose every cell float() reads parses as _parse_row
                    # would parse it, only faster; blanks and bad cells do not
                    vals = list(map(float, row))
                except ValueError:
                    vals = _parse_row(ri, row, columns)
                X.fromlist(vals)
    except UnicodeDecodeError as exc:
        # decoding runs a chunk ahead of the rows parsed, so no row is named
        raise UnreadableFile(f"{path} is not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        if ri is None:
            raise UnreadableFile(f"{path}: first row: {exc}") from None
        raise MalformedRow(ri + 1, f"{path}: {exc}") from None
    if ri < 0:
        raise EmptyDataset(path)
    features = np.frombuffer(X, dtype=np.float64).reshape(ri + 1, len(columns))
    return features, np.frombuffer(labels, dtype=np.int64), list(class_index), columns


def load_csv(path: str, label_column: str) -> Dataset:
    """Read a comma-delimited UTF-8 file with a header row into a Dataset.

    Class names are encoded by first appearance. Blank, "NaN" and "nan"
    cells become NaN markers for the cleaner; any other non-numeric feature
    cell raises MalformedRow.
    """
    return Dataset(*_read_csv(path, label_column))


def load_features(path: str) -> np.ndarray:
    """Read an unlabeled CSV of feature rows under load_csv's cell rules.

    Row 0 is a header only if one of its cells is neither numeric nor
    blank, "NaN" or "nan".
    """
    return _read_csv(path)[0]


def export_csv(d: Dataset, path: str, label_column: str = "label") -> None:
    """Write a Dataset back out in the canonical CSV form load_csv accepts.

    csv writes each float as its repr; rows are converted one at a time, so
    the matrix is never held as Python floats."""
    names = d.class_names
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(d.feature_names + [label_column])
        writer.writerows(row.tolist() + [names[c]]
                         for row, c in zip(d.features, d.labels.tolist()))


def clean(d: Dataset, p: CleaningPolicy) -> tuple[Dataset, CleaningReport]:
    """Apply a CleaningPolicy; returns a Dataset free of NaN/infinite cells.

    Actions run in order: missing, infinity, negative, duplicates. Row
    order of survivors is preserved.
    """
    report = CleaningReport(rows_in=d.n_rows)
    X, y = d.features.copy(), d.labels.copy()

    def drop(bad, field):
        """Count the rows ``bad`` marks into ``field`` and drop them."""
        nonlocal X, y
        n = int(bad.sum())
        setattr(report, field, n)
        if n:
            X, y = X[~bad], y[~bad]

    def fill(mask, field, value):
        """Count the cells ``mask`` marks into ``field`` and set them, column
        by column, to value(the column's finite values, its marked cells), or
        to 0.0 in a column with no finite value."""
        setattr(report, field, int(mask.sum()))
        for j in np.flatnonzero(mask.any(axis=0)):
            col, m = X[:, j], mask[:, j]
            finite = col[np.isfinite(col)]
            col[m] = value(finite, col[m]) if finite.size else 0.0

    nan_mask = np.isnan(X)
    if p.missing_value_action == "drop_row":
        drop(nan_mask.any(axis=1), "rows_dropped_missing")
    elif p.missing_value_action == "impute_zero":
        fill(nan_mask, "cells_imputed", lambda finite, cells: 0.0)
    else:
        fill(nan_mask, "cells_imputed", lambda finite, cells: float(np.median(finite)))

    inf_mask = np.isinf(X)
    if p.infinity_action == "drop_row":
        drop(inf_mask.any(axis=1), "rows_dropped_infinite")
    else:  # clamp to the column's largest or smallest finite value, by sign
        fill(inf_mask, "cells_clamped_infinite",
             lambda finite, cells: np.where(cells > 0, finite.max(), finite.min()))

    if p.negative_action == "drop_row":
        drop((X < 0).any(axis=1), "rows_dropped_negative")
    elif p.negative_action == "clamp_zero":
        fill(X < 0, "cells_clamped_negative", lambda finite, cells: 0.0)

    if p.drop_duplicates:
        # rows compare by their bytes, so -0.0 and 0.0 differ
        seen: set[bytes] = set()
        dup = np.zeros(len(y), dtype=bool)
        for i, row in enumerate(np.column_stack([X, y.astype(np.float64)])):
            key = row.tobytes()
            dup[i] = key in seen
            seen.add(key)
        drop(dup, "duplicates_dropped")

    if not len(y):
        raise AllRowsDropped("cleaning removed every row")

    report.rows_out = len(y)
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
    test_idx = np.sort(np.concatenate(test_parts))
    return tuple(Dataset(d.features[i], d.labels[i], list(d.class_names), list(d.feature_names))
                 for i in (train_idx, test_idx))


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
    lookup = np.array([index[name] for name in d.class_names], dtype=np.int64)
    return Dataset(d.features, lookup[d.labels], list(class_names), list(d.feature_names))


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
    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    per_class = labels.size / (classes.size * counts.astype(np.float64))
    return per_class[inverse]
