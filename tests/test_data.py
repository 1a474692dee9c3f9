import csv

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
    """load_csv's feature matrix as its earlier cell-by-cell loop read it."""
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


CELLS = ["", " ", "NaN", "nan", " nan ", "-nan", "NAN", "1.5", " -2 ", "1e400", "-inf",
         "1_0", "0.1", "abc", "0x1"]


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
            assert got.shape == expect.shape
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))


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
