import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbcboost import data as ds
from sbcboost.errors import (
    AllRowsDropped,
    EmptyData,
    EmptyDataset,
    InvalidFraction,
    MalformedRow,
    MissingLabelColumn,
)

from conftest import blob_dataset


class TestLoadCsv:
    def test_first_appearance_encoding(self, tiny_csv):
        d = ds.load_csv(tiny_csv, "label")
        assert d.class_names == ["a", "b"]
        assert d.labels.tolist() == [0, 0, 1, 0]
        assert d.feature_names == ["f0", "f1"]

    def test_missing_label_column(self, tiny_csv):
        with pytest.raises(MissingLabelColumn):
            ds.load_csv(tiny_csv, "nope")

    def test_malformed_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,label\n1.0,a\nxyz,b\n")
        with pytest.raises(MalformedRow) as exc:
            ds.load_csv(str(p), "label")
        assert exc.value.row_index == 1

    def test_missing_token_becomes_nan(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("f0,f1,label\n1.0,,a\n2.0,NaN,b\n")
        d = ds.load_csv(str(p), "label")
        assert np.isnan(d.features[0, 1]) and np.isnan(d.features[1, 1])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("f0,label\n")
        with pytest.raises(EmptyDataset):
            ds.load_csv(str(p), "label")

    def test_round_trip_bit_for_bit(self, tmp_path):
        src = blob_dataset([20, 10], seed=3)
        first = tmp_path / "first.csv"
        ds.export_csv(src, str(first))
        d = ds.load_csv(str(first), "label")
        out = tmp_path / "rt.csv"
        ds.export_csv(d, str(out))
        d2 = ds.load_csv(str(out), "label")
        assert np.array_equal(d.features, d2.features)
        assert np.array_equal(d.labels, d2.labels)
        assert d2.class_names == d.class_names


def reference_features(path, label_column):
    """load_csv's feature matrix as its earlier cell-by-cell loop read it.
    The first bad row in file order, ragged or not, raises MalformedRow."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    columns, body = rows[0], rows[1:]
    label_idx = columns.index(label_column)
    features = np.empty((len(body), len(columns) - 1), dtype=np.float64)
    for ri, row in enumerate(body):
        if len(row) != len(columns):
            raise MalformedRow(ri, "ragged")
        ci = 0
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            cell = cell.strip()
            if cell in ("", "NaN", "nan"):
                features[ri, ci] = np.nan
            else:
                try:
                    features[ri, ci] = float(cell)
                except ValueError:
                    raise MalformedRow(ri, "non-numeric")
            ci += 1
    return features


# The readers before they streamed: each held the whole file as strings, and
# load_csv checked every row's width in its label loop before it parsed a cell.


def _reference_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise EmptyDataset(path)
    return rows


def _reference_parse_row(ri, row, columns):
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


def _reference_parse_features(rows, columns):
    X = np.empty((len(rows), len(columns)), dtype=np.float64)
    for ri, row in enumerate(rows):
        try:
            vals = list(map(float, row))
        except ValueError:
            vals = None
        if vals is None or len(vals) != len(columns):
            vals = _reference_parse_row(ri, row, columns)
        X[ri] = vals
    return X


def reference_load_csv(path, label_column):
    rows = _reference_rows(path)
    columns, body = rows[0], rows[1:]
    if label_column not in columns:
        raise MissingLabelColumn(f"{label_column!r} not in {columns}")
    label_idx = columns.index(label_column)
    feature_names = [c for i, c in enumerate(columns) if i != label_idx]
    if not body:
        raise EmptyDataset(path)
    class_names, class_index = [], {}
    labels = np.empty(len(body), dtype=np.int64)
    for ri, row in enumerate(body):
        if len(row) != len(columns):
            raise MalformedRow(ri, f"expected {len(columns)} cells, got {len(row)}")
        name = row.pop(label_idx).strip()
        if name not in class_index:
            class_index[name] = len(class_names)
            class_names.append(name)
        labels[ri] = class_index[name]
    return ds.Dataset(_reference_parse_features(body, feature_names), labels, class_names,
                      feature_names)


def reference_load_features(path):
    rows = _reference_rows(path)
    columns = [str(i) for i in range(len(rows[0]))]
    try:
        _reference_parse_row(0, rows[0], columns)
        body = rows
    except MalformedRow:
        columns, body = rows[0], rows[1:]
    if not body:
        raise EmptyDataset(path)
    return _reference_parse_features(body, columns)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


CELLS = ["", " ", "NaN", "nan", " nan ", "-nan", "NAN", "1.5", " -2 ", "1e400", "-inf",
         "1_0", "0.1", "abc", "0x1"]
GOOD_CELLS = CELLS[:-2]
# what a fault does to a row: drop or add a cell, or put a bad cell in it
FAULTS = ["drop", "extra", "abc", "1,5", "2\n3"]
LABELS = ["x", " x ", "y,z", "two\nlines", 'say "hi"', ""]


class TestCellRules:
    @given(
        cells=st.lists(st.lists(st.sampled_from(CELLS), min_size=3, max_size=3),
                       min_size=1, max_size=6),
        label_at=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_readers_match_reference(self, tmp_path_factory, cells, label_at):
        """load_csv, load_features and the old loop agree bit for bit,
        down to which row is malformed."""
        d = tmp_path_factory.mktemp("cells")
        names = ["a", "b", "c"]
        labeled, unlabeled = d / "l.csv", d / "u.csv"
        with open(labeled, "w", newline="") as fl, open(unlabeled, "w", newline="") as fu:
            wl, wu = csv.writer(fl), csv.writer(fu)
            wl.writerow(names[:label_at] + ["label"] + names[label_at:])
            wu.writerow(names)
            for row in cells:
                wl.writerow(row[:label_at] + ["x"] + row[label_at:])
                wu.writerow(row)
        try:
            expect = reference_features(str(labeled), "label")
        except MalformedRow as exc:
            for read in (lambda: ds.load_csv(str(labeled), "label"),
                         lambda: ds.load_features(str(unlabeled))):
                with pytest.raises(MalformedRow) as got:
                    read()
                assert got.value.row_index == exc.row_index
            return
        for got in (ds.load_csv(str(labeled), "label").features,
                    ds.load_features(str(unlabeled))):
            assert _same_bits(got, expect)

    @given(
        rows=st.lists(st.lists(st.sampled_from(GOOD_CELLS), min_size=3, max_size=3),
                      min_size=1, max_size=6),
        faults=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(FAULTS)), max_size=2),
        blanks=st.lists(st.integers(0, 6), max_size=2),
        labels=st.lists(st.sampled_from(LABELS), min_size=6, max_size=6),
        label_at=st.integers(0, 3),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        header=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_reference_readers(self, tmp_path_factory, rows, faults, blanks,
                                          labels, label_at, quoting, header):
        """Ragged rows, blank lines, quoted cells holding commas or newlines
        and the label at any position: both readers return what the old
        ones did, or fail at the same row. load_csv names the first bad row
        in file order, as reference_features does."""
        for i, fault in faults:
            if i < len(rows):
                row = rows[i]
                rows[i] = {"drop": row[:-1], "extra": row + ["1"]}.get(
                    fault, row[:1] + [fault] + row[2:])
        lines_l = [row[:label_at] + [name] + row[label_at:] for row, name in zip(rows, labels)]
        lines_u = list(rows)
        for at in sorted(blanks, reverse=True):
            lines_l.insert(at, [])
            lines_u.insert(at, [])
        d = tmp_path_factory.mktemp("rows")
        labeled, unlabeled = str(d / "l.csv"), str(d / "u.csv")
        names = ["a", "b", "c"]
        for path, head, lines in ((labeled, names[:label_at] + ["label"] + names[label_at:],
                                   lines_l), (unlabeled, names if header else None, lines_u)):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, quoting=quoting)
                if head:
                    writer.writerow(head)
                writer.writerows(lines)

        try:
            want = reference_load_csv(labeled, "label")
        except MalformedRow:
            with pytest.raises(MalformedRow) as first:
                reference_features(labeled, "label")
            with pytest.raises(MalformedRow) as got:
                ds.load_csv(labeled, "label")
            assert got.value.row_index == first.value.row_index
        else:
            got = ds.load_csv(labeled, "label")
            assert _same_bits(got.features, want.features)
            assert got.labels.tolist() == want.labels.tolist()
            assert got.class_names == want.class_names
            assert got.feature_names == want.feature_names

        try:
            want_u = reference_load_features(unlabeled)
        except (MalformedRow, EmptyDataset) as exc:
            with pytest.raises(type(exc)) as got:
                ds.load_features(unlabeled)
            assert getattr(got.value, "row_index", None) == getattr(exc, "row_index", None)
        else:
            assert _same_bits(ds.load_features(unlabeled), want_u)

    def test_first_bad_row_in_file_order(self, tmp_path):
        # the old load_csv checked every width first, so it named row 2
        p = tmp_path / "order.csv"
        p.write_text("f0,f1,label\n1,2,a\nxyz,2,a\n1,2\n")
        with pytest.raises(MalformedRow) as exc:
            ds.load_csv(str(p), "label")
        assert exc.value.row_index == 1


class TestReaderMemory:
    def test_peak_within_twice_the_matrix(self, tmp_path):
        """Neither reader holds the file as strings: tracemalloc's peak is
        at most twice the bytes of the matrix it returns."""
        X = np.round(np.random.default_rng(0).random((20_000, 40)) * 1000, 3)
        text = "\n".join(",".join(map(repr, row)) for row in X.tolist())
        labels = [f"class{i % 7}" for i in range(len(X))]
        labeled, unlabeled = tmp_path / "l.csv", tmp_path / "u.csv"
        header = ",".join(f"f{j}" for j in range(X.shape[1]))
        unlabeled.write_text(header + "\n" + text + "\n")
        labeled.write_text(header + ",label\n" + "\n".join(
            f"{line},{name}" for line, name in zip(text.split("\n"), labels)) + "\n")
        del text
        for read in (lambda: ds.load_csv(str(labeled), "label").features,
                     lambda: ds.load_features(str(unlabeled))):
            tracemalloc.start()
            try:
                got = read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert _same_bits(got, X)
            assert peak <= 2 * got.nbytes, peak / got.nbytes


class TestClean:
    def _make(self, X, y=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.zeros(X.shape[0], dtype=np.int64) if y is None else np.asarray(y)
        names = [f"c{i}" for i in range(int(y.max()) + 1)]
        return ds.Dataset(X, y, names, [f"f{j}" for j in range(X.shape[1])])

    def test_dedup(self):
        d = self._make([[1.0, 2.0], [1.0, 2.0]])
        cleaned, report = ds.clean(d, ds.CleaningPolicy())
        assert cleaned.n_rows == 1
        assert report.duplicates_dropped == 1

    def test_infinity_drop(self):
        d = self._make([[1.0, np.inf], [1.0, 2.0]])
        cleaned, report = ds.clean(d, ds.CleaningPolicy(infinity_action="drop_row"))
        assert cleaned.n_rows == 1
        assert report.rows_dropped_infinite == 1

    def test_infinity_clamp(self):
        d = self._make([[1.0, np.inf], [1.0, 2.0], [0.0, 5.0]])
        cleaned, _ = ds.clean(d, ds.CleaningPolicy(infinity_action="clamp_to_finite_max"))
        assert cleaned.features[0, 1] == 5.0

    def test_impute_median(self):
        d = self._make([[np.nan, 1.0], [2.0, 1.0], [4.0, 1.5]])
        cleaned, report = ds.clean(
            d, ds.CleaningPolicy(missing_value_action="impute_median", drop_duplicates=False)
        )
        assert cleaned.features[0, 0] == 3.0
        assert report.cells_imputed == 1

    @pytest.mark.parametrize("action, rows, clamped", [
        ("drop_row", [[1.0, 5.0]], 0),
        ("clamp_zero", [[0.0, 5.0], [1.0, 5.0], [1.0, 0.0]], 2),
    ])
    def test_negative_action_every_feature(self, action, rows, clamped):
        d = self._make([[-1.0, 5.0], [1.0, 5.0], [1.0, -5.0]])
        cleaned, report = ds.clean(d, ds.CleaningPolicy(negative_action=action))
        assert cleaned.features.tolist() == rows
        assert report.rows_dropped_negative == 3 - len(rows)
        assert report.cells_clamped_negative == clamped

    def test_invariant_no_nan_inf(self):
        d = self._make([[np.nan, np.inf], [1.0, 2.0], [3.0, -1.0]])
        cleaned, _ = ds.clean(d, ds.CleaningPolicy(negative_action="drop_row"))
        assert np.isfinite(cleaned.features).all()

    def test_all_rows_dropped(self):
        d = self._make([[np.nan, 1.0]])
        with pytest.raises(AllRowsDropped):
            ds.clean(d, ds.CleaningPolicy())

    def test_row_order_preserved(self):
        d = self._make([[5.0, 0.0], [np.nan, 0.0], [1.0, 0.0]])
        cleaned, _ = ds.clean(d, ds.CleaningPolicy())
        assert cleaned.features[:, 0].tolist() == [5.0, 1.0]

    def test_infinity_clamp_in_a_negative_column(self):
        """+inf takes the column's largest finite value and -inf its
        smallest, also where every finite value is negative."""
        d = self._make([[-4.0, np.inf], [np.inf, -np.inf], [-1.5, 2.0]])
        cleaned, report = ds.clean(d, ds.CleaningPolicy(
            drop_duplicates=False, infinity_action="clamp_to_finite_max"))
        assert cleaned.features.tolist() == [[-4.0, 2.0], [-1.5, 2.0], [-1.5, 2.0]]
        assert report.cells_clamped_infinite == 3


def reference_clean(d, p):
    """clean as it read with one row-drop block per rule and a fill loop
    over every column. One line is corrected: the clamp takes its +inf mask
    before it writes, where the old loop wrote +inf as the column's largest
    finite value and then, if that value was negative, overwrote it with
    the smallest."""
    report = ds.CleaningReport(rows_in=d.n_rows)
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
        else:
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
        else:
            report.cells_clamped_infinite = int(inf_mask.sum())
            for j in range(X.shape[1]):
                col = X[:, j]
                m = np.isinf(col)
                if m.any():
                    finite = col[np.isfinite(col)]
                    hi = float(finite.max()) if finite.size else 0.0
                    lo = float(finite.min()) if finite.size else 0.0
                    pos = m & (col > 0)  # the corrected line
                    col[m & (col < 0)] = lo
                    col[pos] = hi

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
        seen = set()
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
    return ds.Dataset(X, y, list(d.class_names), list(d.feature_names)), report


# every policy: duplicates kept or dropped x 3 missing x 2 infinity x 3 negative actions
POLICIES = [ds.CleaningPolicy(dup, missing, inf, neg)
            for dup in (True, False)
            for missing in ds.CleaningPolicy.MISSING_ACTIONS
            for inf in ds.CleaningPolicy.INFINITY_ACTIONS
            for neg in ds.CleaningPolicy.NEGATIVE_ACTIONS]
CLEAN_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5, -4.0, 2.0, 3.0, 7.25, 1e308]


@st.composite
def dirty_datasets(draw):
    """Small datasets of NaN, +-inf, +-0.0, negatives and repeated rows; a
    column may hold no finite value, and some inputs lose every row."""
    n_rows, n_features = draw(st.integers(0, 10)), draw(st.integers(0, 4))
    cell = st.one_of(st.sampled_from(CLEAN_VALUES), st.floats(width=64))
    rows = draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features),
                         min_size=n_rows, max_size=n_rows))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4)):
        if i < n_rows and j < n_rows:
            rows[i] = list(rows[j])
    y = draw(st.lists(st.integers(0, 2), min_size=n_rows, max_size=n_rows))
    X = np.array(rows, dtype=np.float64).reshape(n_rows, n_features)
    return ds.Dataset(X, np.array(y, dtype=np.int64), ["a", "b", "c"],
                      [f"f{j}" for j in range(n_features)])


def _cleaned(clean, d, p):
    try:
        out, report = clean(d, p)
    except AllRowsDropped as exc:
        return "AllRowsDropped", str(exc)
    return (out.features.shape, out.features.view(np.int64).tobytes(), out.labels.dtype,
            out.labels.tobytes(), out.class_names, out.feature_names, report)


class TestCleanDifferential:
    @given(d=dirty_datasets())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_under_every_policy(self, d):
        """Features by bits, labels, every report field and AllRowsDropped
        match reference_clean under all 36 policies."""
        for p in POLICIES:
            assert _cleaned(ds.clean, d, p) == _cleaned(reference_clean, d, p), p


class TestSplit:
    def test_arithmetic(self):
        d = blob_dataset([10, 100], seed=1)
        train, test = ds.stratified_split(d, ds.SplitSpec(0.1, seed=5))
        assert np.sum(test.labels == 0) == 1
        assert np.sum(train.labels == 0) == 9

    def test_single_row_class_warns(self):
        d = blob_dataset([1, 30], seed=2)
        with pytest.warns(UserWarning):
            train, test = ds.stratified_split(d, ds.SplitSpec(0.5, seed=0))
        assert np.sum(train.labels == 0) == 1
        assert np.sum(test.labels == 0) == 0

    def test_eleven_rows_at_tenth(self):
        d = blob_dataset([11, 50], seed=2)
        train, test = ds.stratified_split(d, ds.SplitSpec(0.1, seed=0))
        assert np.sum(train.labels == 0) == 10
        assert np.sum(test.labels == 0) == 1

    def test_invalid_fraction(self):
        with pytest.raises(InvalidFraction):
            ds.SplitSpec(1.0)

    def test_determinism(self):
        d = blob_dataset([40, 20, 7], seed=9)
        a = ds.stratified_split(d, ds.SplitSpec(0.25, seed=11))
        b = ds.stratified_split(d, ds.SplitSpec(0.25, seed=11))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].labels, b[1].labels)

    @given(
        counts=st.lists(st.integers(2, 40), min_size=2, max_size=5),
        frac=st.floats(0.1, 0.5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, counts, frac, seed):
        d = blob_dataset(counts, seed=seed % 17)
        train, test = ds.stratified_split(d, ds.SplitSpec(frac, seed=seed))
        assert train.n_rows + test.n_rows == d.n_rows
        # per-class test counts follow round-half-up of the fraction
        for c, n_c in enumerate(counts):
            expect = min(max(int(np.floor(n_c * frac + 0.5)), 0), n_c - 1)
            assert np.sum(test.labels == c) == expect


class TestWeights:
    def test_binary_imbalanced(self):
        labels = np.array([0] * 90 + [1] * 10)
        w = ds.compute_sample_weights(labels, "inverse_frequency")
        assert w[0] == pytest.approx(100 / (2 * 90))
        assert w[-1] == pytest.approx(5.0)

    def test_balanced_identity(self):
        labels = np.array([0, 1, 2] * 10)
        w = ds.compute_sample_weights(labels, "inverse_frequency")
        assert np.allclose(w, 1.0)

    def test_three_class(self):
        labels = np.concatenate([np.full(60, 0), np.full(30, 1), np.full(10, 2)])
        w = ds.compute_sample_weights(labels, "inverse_frequency")
        assert w[0] == pytest.approx(100 / 180)
        assert w[60] == pytest.approx(100 / 90)
        assert w[-1] == pytest.approx(100 / 30)

    def test_none_scheme(self):
        assert ds.compute_sample_weights(np.array([0, 1]), "none").tolist() == [1.0, 1.0]

    def test_empty_labels(self):
        with pytest.raises(EmptyData):
            ds.compute_sample_weights(np.array([], dtype=np.int64))

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_ratio_property(self, labels):
        labels = np.array(labels)
        w = ds.compute_sample_weights(labels, "inverse_frequency")
        classes, counts = np.unique(labels, return_counts=True)
        # weight ratio between two classes = inverse count ratio
        for i in range(len(classes) - 1):
            wi = w[labels == classes[i]][0]
            wj = w[labels == classes[i + 1]][0]
            assert wi / wj == pytest.approx(counts[i + 1] / counts[i])

    def test_frequencies(self):
        d = blob_dataset([5, 3], seed=0)
        assert ds.class_frequencies(d) == {0: 5, 1: 3}


# export_csv, align_to and compute_sample_weights as they read before they
# looked classes up per array: row by row, in Python.


def reference_export_csv(d, path, label_column="label"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(d.feature_names + [label_column])
        for i in range(d.n_rows):
            cells = [repr(float(v)) for v in d.features[i]]
            writer.writerow(cells + [d.class_names[d.labels[i]]])


def reference_align_labels(d, class_names):
    index = {name: i for i, name in enumerate(class_names)}
    return np.array([index[d.class_names[c]] for c in d.labels], dtype=np.int64)


def reference_inverse_frequency(labels):
    classes, counts = np.unique(labels, return_counts=True)
    per_class = labels.size / (classes.size * counts.astype(np.float64))
    lookup = dict(zip(classes.tolist(), per_class.tolist()))
    return np.array([lookup[c] for c in labels.tolist()], dtype=np.float64)


CLASS_NAMES = ["Normal", "a,b", 'say "hi"', '"', ",", "x\ny", "é ü", "label", " pad ", "1.5"]


@st.composite
def datasets(draw):
    n_classes = draw(st.integers(1, 5))
    names = draw(st.permutations(CLASS_NAMES))[:n_classes]
    n_rows = draw(st.integers(1, 12))
    n_features = draw(st.integers(1, 4))
    values = st.floats(allow_nan=True, allow_infinity=True, width=64)
    X = np.array(draw(st.lists(values, min_size=n_rows * n_features,
                               max_size=n_rows * n_features)), dtype=np.float64)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows)),
                 dtype=np.int64)
    return ds.Dataset(X.reshape(n_rows, n_features), y, names,
                      [f"f{j}" for j in range(n_features)])


class TestClassLookups:
    @given(d=datasets(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_match_row_by_row_references(self, tmp_path_factory, d, data):
        out = tmp_path_factory.mktemp("export")
        ds.export_csv(d, str(out / "new.csv"))
        reference_export_csv(d, str(out / "old.csv"))
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

        extra = [n for n in CLASS_NAMES if n not in d.class_names][:data.draw(st.integers(0, 2))]
        target = data.draw(st.permutations(d.class_names + extra))
        aligned = ds.align_to(d, target)
        want = reference_align_labels(d, target)
        assert aligned.labels.dtype == want.dtype and np.array_equal(aligned.labels, want)
        assert aligned.class_names == target

        w = ds.compute_sample_weights(d.labels, "inverse_frequency")
        assert w.dtype == np.float64
        assert w.tobytes() == reference_inverse_frequency(d.labels).tobytes()

    def test_weights_bit_identical_at_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            labels = rng.integers(0, rng.integers(1, 12), size=rng.integers(1, 5000))
            assert (ds.compute_sample_weights(labels, "inverse_frequency").tobytes()
                    == reference_inverse_frequency(labels).tobytes())

    def test_names_with_commas_and_quotes_round_trip(self, tmp_path):
        names = ["a,b", 'say "hi"', '"', "x\ny", "é ü"]
        d = blob_dataset([3, 3, 2, 2, 2], seed=1)
        d = ds.Dataset(d.features, d.labels, names, d.feature_names)
        ds.export_csv(d, str(tmp_path / "names.csv"))
        back = ds.load_csv(str(tmp_path / "names.csv"), "label")
        assert back.class_names == [names[c] for c in dict.fromkeys(d.labels.tolist())]
        assert [back.class_names[c] for c in back.labels] == [names[c] for c in d.labels]
        assert _same_bits(back.features, d.features)
