"""Tabular dataset loading, cleaning, splitting and per-class weighting.

All arrays are numpy; `Dataset` is treated as immutable after construction
and is safe to share between workers.
"""

from __future__ import annotations

import csv
import itertools
import logging
import os
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

logger = logging.getLogger(__name__)

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


def _header(first: list[str], label_column: str | None):
    """(columns, label index, whether ``first`` is a header) for a file's
    first row. With a label column the row is a header holding it; without,
    it is one only if one of its cells is neither numeric nor blank, "NaN"
    or "nan", and the columns are named by position otherwise."""
    if label_column is not None:
        if label_column not in first:
            raise MissingLabelColumn(f"{label_column!r} not in {first}")
        i = first.index(label_column)
        return first[:i] + first[i + 1:], i, True
    names = [str(i) for i in range(len(first))]
    try:
        _parse_row(0, first, names)
    except MalformedRow:
        return first, None, True
    return names, None, False


def _read_csv(path: str, label_column: str | None = None):
    """(features, labels, class_names, feature_names) of a comma-delimited
    UTF-8 file whose first row _header reads. Without a label column the
    labels are empty.

    A regular file is first read whole by _load_array; any file it does not
    read exactly as the rows would be read goes to _read_rows, the one source
    of errors, row indices and blank-cell NaNs.
    """
    if os.path.isfile(path):  # a pipe can be read only once
        try:
            return _load_array(path, label_column)
        except (ValueError, MissingLabelColumn):
            pass  # the row path runs outside the handler, so the attempt's arrays are freed
    return _read_rows(path, label_column)


_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": None}


def _comma_count(path: str) -> int:
    """The commas in ``path``, counted in blocks of half csv's field size
    limit. ValueError where csv could split the file other than at its line
    ends and commas (a quote or NUL byte anywhere), or where a field could
    pass that limit (a whole block with no line end)."""
    block, commas = max(1, csv.field_size_limit() // 2), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(block):
            if b'"' in chunk or b"\0" in chunk or (len(chunk) == block and b"\n" not in chunk):
                raise ValueError(f"{path} is not plain comma-separated lines")
            commas += chunk.count(b",")
    return commas


def _load_array(path: str, label_column: str | None):
    """_read_rows's result through np.loadtxt: one read of the feature
    columns and one of the label column. Raises ValueError (or _header's
    MissingLabelColumn) for any file the row path might read otherwise or
    reject: a blank first line, no body row, a cell loadtxt cannot parse (a
    blank one among them), a row wider than the header, or a file
    _comma_count refuses. With no quote in the file, csv's rows are its
    non-blank lines cut at commas, and a line's width is checked by the
    total of commas."""
    with open(path, encoding="utf-8") as fh:  # \r, \r\n and \n end a line, as in csv
        first = fh.readline().rstrip("\n").split(",")
        if first == [""]:
            raise ValueError(f"{path} does not start with a row")
        width = len(first)
        columns, label_idx, header = _header(first, label_column)
        if not header:
            fh.seek(0)
        body = fh.tell()
        while (line := fh.readline()) == "\n":
            pass
        if not line:  # loadtxt would warn that it read no data
            raise ValueError(f"{path} has no body row")
        fh.seek(body)
        features = np.loadtxt(fh, usecols=[i for i in range(width) if i != label_idx],
                              ndmin=2, **_LOADTXT)
        raw, class_index = [], {}
        if label_idx is not None:
            fh.seek(body)  # object cells: a str dtype reads in chunks, warning at blank lines
            raw = np.loadtxt(fh, usecols=[label_idx], dtype=object, ndmin=1, **_LOADTXT)
        labels = np.fromiter((class_index.setdefault(name.strip(), len(class_index))
                              for name in raw), np.int64, len(raw))
    # usecols lets a row hold more cells than it reads, and every row holds
    # at least ``width``, since the two reads take each index below it
    if _comma_count(path) != (width - 1) * (len(features) + header):
        raise ValueError(f"{path} has a row wider than its first")
    return features, labels, list(class_index), columns


def _read_rows(path: str, label_column: str | None = None):
    """One pass over the file, parsing each row as csv.reader yields it:
    blank lines are skipped, a row's width is checked once, its label cell
    (if any) popped and stripped, and its feature cells parsed under
    _parse_row's rules into an 8-bytes-per-cell buffer. Returns what
    _read_csv does."""
    X, labels, class_index = array("d"), array("q"), {}
    ri = None  # the body row last parsed, once the first row is read
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = filter(None, csv.reader(fh))
            first = next(rows, None)
            if first is None:
                raise EmptyDataset(path)
            width = len(first)
            columns, label_idx, header = _header(first, label_column)
            if not header:
                rows = itertools.chain([first], rows)
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


def _finite_median(finite: np.ndarray) -> float:
    """np.median of finite values, kept finite: where the two middle values
    sum past the largest double, each is halved before the add, which is
    exact at that size."""
    with np.errstate(over="ignore"):
        median = float(np.median(finite))
    if np.isfinite(median):
        return median
    k = finite.size // 2
    lo, hi = np.partition(finite, (k - 1, k))[k - 1:k + 1]
    return float(lo / 2 + hi / 2)


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
        fill(nan_mask, "cells_imputed", lambda finite, cells: _finite_median(finite))

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


def shuffled_classes(labels: np.ndarray, rng) -> list[tuple[int, np.ndarray]]:
    """(class id, row indices) for each class present, in ascending id order;
    each class's rows are shuffled by one ``rng.permutation``, class by
    class, so a seeded split, fold set or subsample draws the same bits."""
    out = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        out.append((int(c), idx[rng.permutation(idx.size)]))
    return out


def stratified_split(d: Dataset, s: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic train/test partition.

    Per class the test count is round-half-up(count * test_fraction),
    clamped so at least one row stays in training. Single-exemplar classes
    go entirely to train, with a logged warning.
    """
    test_parts = []
    train_parts = []
    for c, idx in shuffled_classes(d.labels, np.random.default_rng(s.seed)):
        if idx.size == 1:
            logger.warning(
                "class %r has a single exemplar; kept entirely in train", d.class_names[c])
        k = min(int(np.floor(idx.size * s.test_fraction + 0.5)), idx.size - 1)
        test_parts.append(idx[:k])
        train_parts.append(idx[k:])

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
