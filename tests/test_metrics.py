import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbcboost.errors import LabelOutOfRange, LengthMismatch
from sbcboost.metrics import (
    UNKNOWN,
    ClassReport,
    ConfusionMatrix,
    confusion,
    macro_f1,
    normalize_percent,
    per_class_report,
    summarize,
)


def brute_force_report(y_true, y_pred, n):
    """Independent per-class TP/FP/FN counting (oracle)."""
    out = []
    for c in range(n):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append((precision, recall, f1))
    return out


def reference_confusion(y_true, y_pred, n, has_unknown=False):
    """The per-row counting loop that metrics.confusion replaced (oracle)."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"{y_true.shape} vs {y_pred.shape}")
    if y_true.size and (y_true.min() < 0 or y_true.max() >= n):
        raise LabelOutOfRange("true label out of range")
    cols = n + 1 if has_unknown else n
    counts = np.zeros((n, cols), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        if p == UNKNOWN:
            if not has_unknown:
                raise LabelOutOfRange("UNKNOWN prediction without an unknown column")
            counts[t, n] += 1
        elif 0 <= p < n:
            counts[t, p] += 1
        else:
            raise LabelOutOfRange(f"predicted label {p} out of range")
    return counts


def reference_per_class_report(cm: ConfusionMatrix) -> list[ClassReport]:
    """The per-class loop that per_class_report replaced (oracle)."""
    out = []
    for c in range(cm.n_classes):
        tp = int(cm.counts[c, c])
        col = int(cm.counts[:, c].sum())
        row = int(cm.counts[c, :].sum())
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
        out.append(ClassReport(precision, recall, f1, row))
    return out


@st.composite
def confusion_matrices(draw):
    """Count matrices of 1 to 5 classes, with or without an Unknown column;
    counts reach 2**40 so that the divisions round."""
    n = draw(st.integers(1, 5))
    has_unknown = draw(st.booleans())
    cols = n + 1 if has_unknown else n
    counts = draw(st.lists(st.integers(0, 2**40) | st.integers(0, 3),
                           min_size=n * cols, max_size=n * cols))
    return ConfusionMatrix(np.array(counts, dtype=np.int64).reshape(n, cols), n, has_unknown)


@st.composite
def label_pairs(draw):
    """Labels in [0, n), or, in about half the draws of each side, in
    [-3, n + 1], which holds UNKNOWN and labels out of range."""
    n = draw(st.integers(1, 5))
    size = draw(st.integers(0, 30))
    sides = [st.integers(-3, n + 1) if draw(st.booleans()) else st.integers(0, n - 1)
             for _ in range(2)]
    y_true, y_pred = (draw(st.lists(s, min_size=size, max_size=size)) for s in sides)
    return y_true, y_pred, n, draw(st.booleans())


class TestConfusion:
    def test_diagonal(self):
        cm = confusion([0, 1, 2], [0, 1, 2], 3)
        assert np.array_equal(cm.counts, np.eye(3, dtype=int))

    def test_hand_case(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_unknown_column(self):
        cm = confusion([0, 1], [0, UNKNOWN], 2, has_unknown=True)
        assert cm.counts.shape == (2, 3)
        assert cm.counts[:, 2].sum() == 1

    def test_unknown_without_column_raises(self):
        with pytest.raises(LabelOutOfRange):
            confusion([0], [UNKNOWN], 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0], 2)

    @pytest.mark.parametrize("y_true", [[0, -1], [0, 2]], ids=["negative", "n"])
    def test_true_label_out_of_range(self, y_true):
        with pytest.raises(LabelOutOfRange, match="true label"):
            confusion(y_true, [0, 0], 2, has_unknown=True)

    @pytest.mark.parametrize("p, has_unknown", [(2, False), (2, True), (-2, False), (-2, True)],
                             ids=["n", "n_with_unknown_column", "negative",
                                  "negative_with_unknown_column"])
    def test_predicted_label_out_of_range(self, p, has_unknown):
        # n is not the Unknown column's label, even when that column exists
        with pytest.raises(LabelOutOfRange, match=f"predicted label {p} out of range"):
            confusion([0, 1, 1], [0, 1, p], 2, has_unknown=has_unknown)

    def test_first_bad_prediction_named(self):
        with pytest.raises(LabelOutOfRange, match="UNKNOWN"):
            confusion([0, 1, 1], [0, UNKNOWN, 7], 2)
        with pytest.raises(LabelOutOfRange, match="label 7"):
            confusion([0, 1, 1], [0, 7, UNKNOWN], 2)

    @settings(max_examples=300, deadline=None)
    @given(label_pairs())
    def test_matches_counting_loop(self, case):
        try:
            want = reference_confusion(*case)
        except LabelOutOfRange as exc:
            with pytest.raises(LabelOutOfRange, match=f"^{re.escape(str(exc))}$"):
                confusion(*case)
            return
        got = confusion(*case).counts
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_totals_conserved(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        cm = confusion(y_true, y_pred, 4)
        assert cm.total == 50


class TestReport:
    def test_hand_case(self):
        cm = confusion([0] * 5 + [1] * 5, [0] * 5 + [0, 0, 1, 1, 1], 2)
        assert cm.counts.tolist() == [[5, 0], [2, 3]]
        rep = per_class_report(cm)
        assert rep[0].precision == pytest.approx(5 / 7)
        assert rep[0].recall == 1.0
        assert rep[0].f1 == pytest.approx(10 / 12)
        assert rep[1].precision == 1.0
        assert rep[1].recall == pytest.approx(0.6)
        assert rep[1].f1 == pytest.approx(0.75)
        assert rep[1].support == 5

    def test_empty_column_zero_not_nan(self):
        cm = confusion([0, 0], [0, 0], 2)
        rep = per_class_report(cm)
        assert rep[1].precision == 0.0
        assert rep[1].recall == 0.0
        assert rep[1].f1 == 0.0

    def test_perfect_diagonal(self):
        cm = confusion([0, 1, 2, 2], [0, 1, 2, 2], 3)
        assert all(r.f1 == 1.0 for r in per_class_report(cm))

    @settings(max_examples=300, deadline=None)
    @given(confusion_matrices())
    def test_matches_per_class_loop(self, cm):
        # repr tells every float apart, -0.0 from 0.0 too, and an int support
        # from a numpy one
        assert repr(per_class_report(cm)) == repr(reference_per_class_report(cm))

    def test_against_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            length = int(rng.integers(1, 9))
            y_true = rng.integers(0, n, length)
            y_pred = rng.integers(0, n, length)
            rep = per_class_report(confusion(y_true, y_pred, n))
            oracle = brute_force_report(y_true, y_pred, n)
            for r, (p, rc, f1) in zip(rep, oracle):
                assert r.precision == pytest.approx(p)
                assert r.recall == pytest.approx(rc)
                assert r.f1 == pytest.approx(f1)


class TestSummary:
    def test_hand_case(self):
        cm = confusion([0] * 5 + [1] * 5, [0] * 5 + [0, 0, 1, 1, 1], 2)
        rep = per_class_report(cm)
        s = summarize(cm, rep)
        assert s.avg_f1 == pytest.approx((10 / 12 + 0.75) / 2)
        f1s = np.array([10 / 12, 0.75])
        assert s.std_f1 == pytest.approx(f1s.std())  # population convention
        assert s.accuracy == pytest.approx(0.8)

    def test_all_perfect(self):
        cm = confusion([0, 1], [0, 1], 2)
        s = summarize(cm, per_class_report(cm))
        assert s.avg_f1 == 1.0
        assert s.std_f1 == 0.0

    def test_population_std_convention(self):
        # explicit: divide-by-n, not n-1
        cm = confusion([0, 0, 1, 1], [0, 0, 1, 0], 2)
        rep = per_class_report(cm)
        s = summarize(cm, rep)
        f1s = np.array([r.f1 for r in rep])
        assert s.std_f1 == pytest.approx(np.sqrt(np.mean((f1s - f1s.mean()) ** 2)))


class TestNormalize:
    def test_even_row(self):
        cm = confusion([0, 0], [0, 1], 2)
        pct = normalize_percent(cm)
        assert pct[0].tolist() == [50.0, 50.0]

    def test_zero_row(self):
        cm = confusion([0], [0], 2)
        assert normalize_percent(cm)[1].tolist() == [0.0, 0.0]

    def test_rows_sum_100(self):
        rng = np.random.default_rng(1)
        cm = confusion(rng.integers(0, 3, 60), rng.integers(0, 3, 60), 3)
        pct = normalize_percent(cm)
        assert np.allclose(pct.sum(axis=1), 100.0, atol=1e-9)


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_present_only_ignores_absent_class(self):
        # class 2 absent from truth; present_only averages over 2 classes
        full = macro_f1([0, 1], [0, 1], 3, present_only=False)
        present = macro_f1([0, 1], [0, 1], 3, present_only=True)
        assert present == 1.0
        assert full == pytest.approx(2 / 3)
