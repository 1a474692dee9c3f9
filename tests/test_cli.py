import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sbcboost import cascade as casc
from sbcboost import cli
from sbcboost import data as ds
from sbcboost.bundle import ModelBundle
from sbcboost.errors import BundleError, ConfigError, MalformedRow, StageError
from sbcboost.gbt import GbtParams
from sbcboost.hpo import CvConfig, HalvingConfig, HpGrid

from conftest import blob_dataset


NAN = float("nan")
INF = float("inf")
# JSON nested past the parser's depth limit
DEEP_JSON = "[" * 200000 + "]" * 200000


def _tree(**changes):
    """A one-split tree on feature 0, as a bundle stores it."""
    tree = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
            "right": [2, -1, -1], "default_left": [True, True, True],
            "value": [0.0, 0.1, -0.1], "is_leaf": [False, True, True]}
    return dict(tree, **changes)


def _gbt_payload(objective, trees):
    return {"format_version": 1, "objective": objective,
            "n_classes": 1 if objective == "binary_logistic" else 2, "base_score": 0.0,
            "n_features": 2, "params": {}, "trees": trees}


def _bundle_text(kind="mcc", tree=None, fingerprint=None, **changes):
    """A hand-written bundle over two features and two classes: for mcc one
    round of two trees, for sbc two one-tree stages. ``changes`` replace
    payload keys; ``fingerprint`` replaces the fingerprint."""
    tree = tree or _tree()
    if kind == "mcc":
        payload = _gbt_payload("multiclass_softmax", [[tree, tree]])
    else:
        stage = _gbt_payload("binary_logistic", [[tree]])
        payload = {"format_version": 1, "class_at": [0, 1], "thresholds": [0.5, 0.5],
                   "last_stage_policy": {}, "metadata": [], "class_names": ["a", "b"],
                   "n_features": 2, "stages": [stage, stage]}
    payload.update(changes)
    if fingerprint is None:
        fingerprint = {"n_features": 2, "class_names": ["a", "b"]}
    return json.dumps({"bundle_version": 1, "kind": kind, "payload": payload,
                       "fingerprint": fingerprint})


@pytest.fixture
def prepared(tmp_path):
    """A small prepared 3-class train/test pair plus a config file."""
    d = blob_dataset([200, 60, 20], seed=21)
    train, test = ds.stratified_split(d, ds.SplitSpec(0.2, seed=1))
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    ds.export_csv(train, str(train_csv))
    ds.export_csv(test, str(test_csv))
    cfg = {
        "train_csv": str(train_csv),
        "test_csv": str(test_csv),
        "label_column": "label",
        "method": "mcc",
        "hpo": "fixed",
        "params": {"num_rounds": 5, "max_depth": 2, "seed": 0},
        "out_dir": str(tmp_path / "out"),
        "cv": {"folds": 2, "seed": 0},
        "halving": {"factor": 2, "min_resources": 40, "seed": 0},
        "grid": {"max_depth": [1, 2], "num_rounds": [3, 5]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg, cfg_path


class TestPrepare:
    def test_prepare_writes_split(self, tmp_path):
        d = blob_dataset([50, 20], seed=3)
        raw = tmp_path / "raw.csv"
        ds.export_csv(d, str(raw))
        out = tmp_path / "prep"
        rc = cli.main([
            "prepare", "--input", str(raw), "--out", str(out),
            "--test-fraction", "0.2", "--seed", "4", "--negative-action", "keep",
        ])
        assert rc == 0
        train = ds.load_csv(str(out / "train.csv"), "label")
        test = ds.load_csv(str(out / "test.csv"), "label")
        assert train.n_rows + test.n_rows == 70
        assert (out / "cleaning_report.txt").exists()

    def test_prepare_default_keeps_negative_rows(self, tmp_path):
        d = blob_dataset([50, 20], seed=3)
        assert (d.features < 0).any()
        raw = tmp_path / "raw.csv"
        ds.export_csv(d, str(raw))
        out = tmp_path / "prep"
        assert cli.main(["prepare", "--input", str(raw), "--out", str(out)]) == 0
        assert "rows_dropped_negative: 0" in (out / "cleaning_report.txt").read_text()
        train = ds.load_csv(str(out / "train.csv"), "label")
        test = ds.load_csv(str(out / "test.csv"), "label")
        assert train.n_rows + test.n_rows == 70

    def test_single_exemplar_message_alone_on_stderr(self, tmp_path):
        """The message is a log record: Python's last-resort handler writes it
        without data.py's path or source line."""
        raw = tmp_path / "raw.csv"
        raw.write_text("f0,label\n1.0,a\n" + "".join(f"{i}.5,b\n" for i in range(9)))
        proc = subprocess.run([sys.executable, "-m", "sbcboost.cli", "prepare", "--input",
                               str(raw), "--out", str(tmp_path / "prep")],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "class 'a' has a single exemplar; kept entirely in train\n"

    def test_prepare_deterministic(self, tmp_path):
        d = blob_dataset([40, 15], seed=5)
        raw = tmp_path / "raw.csv"
        ds.export_csv(d, str(raw))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["prepare", "--input", str(raw), "--out", str(out), "--seed", "9",
                      "--negative-action", "keep"])
            outs.append((out / "train.csv").read_bytes())
        assert outs[0] == outs[1]


class TestTrain:
    def test_mcc_fixed(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        rc = cli.main(["train", "--config", str(cfg_path)])
        assert rc == 0
        bundle = ModelBundle.load(str(tmp_path / "out" / "bundle.json"))
        assert bundle.kind == "mcc"
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_sbc_phgs_writes_trial_logs(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cfg = dict(cfg, method="sbc", hpo="phgs", out_dir=str(tmp_path / "out2"))
        p = tmp_path / "cfg2.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(p)])
        assert rc == 0
        bundle = ModelBundle.load(str(tmp_path / "out2" / "bundle.json"))
        assert bundle.kind == "sbc"
        assert len(bundle.model.stages) == 3
        for i in range(3):
            assert (tmp_path / "out2" / f"hpo_trials_stage{i}.jsonl").exists()

    def test_phgs_requires_sbc(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cfg = dict(cfg, hpo="phgs")
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG

    def test_fixed_requires_params(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cfg = dict(cfg)
        cfg.pop("params")
        p = tmp_path / "bad2.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG

    def test_tune_rejects_fixed(self, prepared):
        _, _, cfg_path = prepared
        assert cli.main(["tune", "--config", str(cfg_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, value", [
        ("cv", {"nfolds": 3}),
        ("cv", {"folds": 1}),
        ("cv", {"folds": 2.5}),
        ("halving", {"rate": 3}),
        ("halving", {"factor": 1}),
        ("last_stage", {"sorce": "all_others"}),
        ("last_stage", {"source": "bogus"}),
        ("grid", {"max_dept": [1, 2]}),
        ("grid", {"max_depth": [2, 1]}),
        ("grid", {"max_depth": [0, 1]}),
        ("grid", {"num_rounds": [2.5, 5]}),
        ("grid", {"max_depth": {"vals": [1, 2]}}),
        ("params", {"max_dept": 2}),
        ("params", {"num_rounds": 2.5}),
        ("grid_file", "no_such_grid.json"),
    ])
    def test_bad_section_is_config_error(self, prepared, capsys, section, value):
        """Every section a run reads is checked before a data file opens: a
        missing train_csv would exit 3. benchmark reads its sbc+hgs column's
        sections before its mcc+fixed column trains."""
        tmp_path, cfg, _ = prepared
        p = tmp_path / "bad_section.json"
        p.write_text(json.dumps(dict(cfg, method="sbc", hpo="hgs",
                                     train_csv=str(tmp_path / "missing.csv"),
                                     **{section: value})))
        for argv in (["train"], ["tune"], ["benchmark", "--methods", "mcc+fixed,sbc+hgs"]):
            assert cli.main(argv + ["--config", str(p)]) == cli.EXIT_CONFIG, argv
            assert f"config error: bad {section}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("method", ["mcc", "sbc"])
    @pytest.mark.parametrize("key, value", [
        ("weights", "bogus"),
        ("unknown_action", "bogus"),
        ("threshold", "abc"),
        ("threshold", 2.0),
        ("threshold", 0),
        ("threshold", True),
    ])
    def test_bad_top_level_value_is_config_error(self, prepared, method, key, value):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "bad_value.json"
        p.write_text(json.dumps(dict(cfg, method=method, **{key: value})))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG


def _with_unseen_class(tmp_path, cfg):
    """The test split with its rarest class renamed to one no bundle knows."""
    test = ds.load_csv(cfg["test_csv"], "label")
    names = test.class_names[:-1] + ["intruder"]
    path = tmp_path / "unseen.csv"
    ds.export_csv(ds.Dataset(test.features, test.labels, names, test.feature_names), str(path))
    return str(path)


class TestUnseenClass:
    def _check(self, rc, capsys):
        assert rc == cli.EXIT_EVAL
        assert "['intruder'] unknown to bundle" in capsys.readouterr().err

    def test_train(self, prepared, capsys):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "unseen.json"
        p.write_text(json.dumps(dict(cfg, test_csv=_with_unseen_class(tmp_path, cfg))))
        self._check(cli.main(["train", "--config", str(p)]), capsys)

    def test_evaluate(self, prepared, capsys):
        tmp_path, cfg, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        rc = cli.main(["evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--test", _with_unseen_class(tmp_path, cfg),
                       "--out", str(tmp_path / "eval")])
        self._check(rc, capsys)

    def test_benchmark(self, prepared, capsys):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "unseen.json"
        p.write_text(json.dumps(dict(cfg, test_csv=_with_unseen_class(tmp_path, cfg))))
        self._check(cli.main(["benchmark", "--config", str(p), "--methods", "mcc+fixed"]),
                    capsys)


class TestTestFeatureCount:
    """A test file whose feature count differs from the training data's."""

    @pytest.fixture
    def cfg_path(self, prepared):
        tmp_path, cfg, _ = prepared
        wide = tmp_path / "wide.csv"
        ds.export_csv(blob_dataset([10, 10, 10], n_features=3, seed=0), str(wide))
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(dict(cfg, test_csv=str(wide))))
        return p

    def test_train(self, cfg_path, capsys):
        assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_EVAL
        assert "wide.csv has 3" in capsys.readouterr().err

    def test_benchmark_fails_before_training(self, cfg_path, capsys):
        rc = cli.main(["benchmark", "--config", str(cfg_path), "--methods", "mcc+fixed,sbc+fixed"])
        assert rc == cli.EXIT_EVAL
        captured = capsys.readouterr()
        assert "wide.csv has 3" in captured.err
        assert captured.out == ""


class TestEvaluatePredict:
    @pytest.fixture
    def trained(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        return tmp_path, cfg

    def test_evaluate_outputs(self, trained):
        tmp_path, cfg = trained
        out = tmp_path / "eval"
        rc = cli.main([
            "evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
            "--test", cfg["test_csv"], "--out", str(out),
        ])
        assert rc == 0
        for f in ("summary.txt", "summary.json", "confusion.csv", "confusion_normalized.csv"):
            assert (out / f).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["avg_f1"] <= 1.0

    def test_evaluate_deterministic(self, trained):
        tmp_path, cfg = trained
        texts = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            cli.main([
                "evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
                "--test", cfg["test_csv"], "--out", str(out),
            ])
            doc = json.loads((out / "summary.json").read_text())
            doc.pop("timings")  # wall-clock, legitimately varies
            texts.append(json.dumps(doc))
        assert texts[0] == texts[1]

    def test_fingerprint_mismatch(self, trained, tmp_path_factory):
        tmp_path, cfg = trained
        other = tmp_path_factory.mktemp("other")
        bad = blob_dataset([10, 10], n_features=5, seed=0)
        bad_csv = other / "bad.csv"
        ds.export_csv(bad, str(bad_csv))
        rc = cli.main([
            "evaluate", "--bundle", str(tmp_path / "out" / "bundle.json"),
            "--test", str(bad_csv), "--out", str(other / "o"),
        ])
        assert rc == cli.EXIT_EVAL

    def test_predict_mcc_no_trace(self, trained, capsys):
        tmp_path, cfg = trained
        unl = tmp_path / "unlabeled.csv"
        test = ds.load_csv(cfg["test_csv"], "label")
        with open(unl, "w") as fh:
            for row in test.features[:5]:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        rc = cli.main(["predict", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--input", str(unl)])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 5
        assert "trace" not in lines[0]
        assert lines[0]["class"].startswith("class")

    @pytest.mark.parametrize("text, n_rows", [
        (",1.5\n2.0,3.0\n", 2),        # headerless, blank cell in row 0
        ("1.0,2.0\n,3.0\n", 2),        # blank cell in a later row
        ("f0,f1\n1.0,NaN\n", 1),       # header row
    ])
    def test_predict_missing_cells(self, trained, capsys, text, n_rows):
        tmp_path, _ = trained
        unl = tmp_path / "blanks.csv"
        unl.write_text(text)
        rc = cli.main(["predict", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--input", str(unl)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == n_rows

    def test_predict_ragged_file(self, trained):
        tmp_path, _ = trained
        unl = tmp_path / "ragged.csv"
        unl.write_text("1.0,2.0\n3.0\n")
        rc = cli.main(["predict", "--bundle", str(tmp_path / "out" / "bundle.json"),
                       "--input", str(unl)])
        assert rc == cli.EXIT_EVAL

    def test_predict_sbc_has_trace(self, prepared):
        tmp_path, cfg, _ = prepared
        cfg = dict(cfg, method="sbc", out_dir=str(tmp_path / "sbc_out"))
        p = tmp_path / "sbc.json"
        p.write_text(json.dumps(cfg))
        cli.main(["train", "--config", str(p)])
        test = ds.load_csv(cfg["test_csv"], "label")
        unl = tmp_path / "u.csv"
        with open(unl, "w") as fh:
            for row in test.features[:3]:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        out = tmp_path / "preds.jsonl"
        rc = cli.main(["predict", "--bundle", str(tmp_path / "sbc_out" / "bundle.json"),
                       "--input", str(unl), "--out", str(out)])
        assert rc == 0
        recs = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert all("trace" in r and len(r["trace"]) >= 1 for r in recs)


    @pytest.mark.parametrize("method", ["mcc", "sbc"])
    def test_predict_output_matches_joined_text(self, prepared, capsys, method):
        """predict writes line by line what it once joined into one string,
        to a file and to stdout alike."""
        tmp_path, cfg, _ = prepared
        cfg = dict(cfg, method=method, threshold=0.9, out_dir=str(tmp_path / method))
        p = tmp_path / f"{method}.json"
        p.write_text(json.dumps(cfg))
        cli.main(["train", "--config", str(p)])
        bundle_path = str(tmp_path / method / "bundle.json")
        X = ds.load_csv(cfg["test_csv"], "label").features
        unl = tmp_path / "u.csv"
        unl.write_text("".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
        want = reference_predict_text(ModelBundle.load(bundle_path), X)
        if method == "sbc":
            assert '"UNKNOWN"' in want and '"trace"' in want
        out = tmp_path / "preds.jsonl"
        capsys.readouterr()
        assert cli.main(["predict", "--bundle", bundle_path, "--input", str(unl),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("utf-8")
        assert cli.main(["predict", "--bundle", bundle_path, "--input", str(unl)]) == 0
        assert capsys.readouterr().out == want

    def test_failed_predict_writes_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "bundle.json"
        path.write_text(_bundle_text("sbc"))
        rows = tmp_path / "rows.csv"
        rows.write_text("0.0,2.0\n1.0,2.0\n")

        def fail(*args, **kwargs):
            raise StageError(0, "cannot route")

        monkeypatch.setattr(cli.casc, "predict_batch", fail)
        out = tmp_path / "preds.jsonl"
        rc = cli.main(["predict", "--bundle", str(path), "--input", str(rows), "--out", str(out)])
        assert rc == cli.EXIT_EVAL
        assert not out.exists()


def reference_predict_text(bundle, X):
    """predict's output as cmd_predict built it before it streamed: every
    record in a list, then one joined string."""
    names = bundle.class_names
    records = []
    if bundle.kind == "mcc":
        pred = bundle.model.predict_class(X)
        records = [{"row": i, "class": names[c]} for i, c in enumerate(pred)]
    else:
        for i, p in enumerate(casc.predict_batch(bundle.model, X, "emit_unknown")):
            records.append({
                "row": i,
                "class": "UNKNOWN" if p.is_unknown else names[p.class_id],
                "trace": [[s, round(prob, 6)] for s, prob in p.stage_trace],
            })
    return "\n".join(json.dumps(r) for r in records) + "\n"


# trace probabilities json.dumps spells apart, and ones on a 6th-place
# rounding boundary
PROBS = [NAN, INF, -INF, 0.0, -0.0, 1.0, 5e-7, 2.5e-7, 0.1234565, 0.9999995, 1.0000005]
# class names json.dumps escapes: quotes, backslashes, non-ASCII and control characters
NAME_CHARS = 'ab"\\\x00\x1f\t\n\u00e9\u2028\U0001f600 ,'


def reference_trace_lines(names, preds):
    return [json.dumps({"row": i, "class": "UNKNOWN" if p.is_unknown else names[p.class_id],
                        "trace": [[s, round(prob, 6)] for s, prob in p.stage_trace]}) + "\n"
            for i, p in enumerate(preds)]


class TestPredictLines:
    @given(names=st.lists(st.text(NAME_CHARS, max_size=5) | st.text(max_size=5),
                          min_size=1, max_size=4),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_match_json_dumps(self, names, data):
        """Each line, for either bundle kind, is json.dumps's text of the
        record that predict once built as a dict."""
        class_id = st.integers(0, len(names) - 1)
        ids = data.draw(st.lists(class_id, max_size=5))
        assert list(cli._class_lines(names, ids)) == [
            json.dumps({"row": i, "class": names[c]}) + "\n" for i, c in enumerate(ids)]
        cell = st.tuples(st.integers(0, 12), st.sampled_from(PROBS) | st.floats())
        preds = data.draw(st.lists(st.builds(casc.Prediction, st.none() | class_id,
                                             st.lists(cell, min_size=1, max_size=4)),
                                   max_size=5))
        assert list(cli._trace_lines(names, preds)) == reference_trace_lines(names, preds)

    def test_repeated_cells(self):
        """A cell met again is written as before; 0.0 and -0.0, one key of
        the cell texts, keep their own texts."""
        cells = [(0, 0.25), (1, -0.0), (1, 0.0), (1, -0.0), (0, 0.25), (2, NAN), (2, NAN),
                 (0, 1e-9), (0, -1e-9)]
        preds = [casc.Prediction(i % 2 or None, [cell]) for i, cell in enumerate(cells)]
        assert list(cli._trace_lines(["a", "b"], preds)) == reference_trace_lines(["a", "b"], preds)


class TestUnreadableInput:
    """Files the reader cannot decode or split, and paths it cannot open,
    end in a data error's exit code rather than a traceback."""

    def test_csv_not_utf8(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(b"f0,label\n1.0,a\n2.0,\xff\xfe\n")
        rc = cli.main(["prepare", "--input", str(raw), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_DATA
        assert "raw.csv is not UTF-8" in capsys.readouterr().err

    def test_field_over_csv_limit(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text('f0,label\n1.0,a\n"' + "9" * 131073 + '",b\n')
        with pytest.raises(MalformedRow) as exc:
            ds.load_csv(str(raw), "label")
        assert exc.value.row_index == 1
        rc = cli.main(["prepare", "--input", str(raw), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_DATA
        assert "raw.csv" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'{"train_csv": "\xff.csv"}')
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_input_is_a_directory(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text(_bundle_text())
        rc = cli.main(["predict", "--bundle", str(path), "--input", str(tmp_path)])
        assert rc == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestBenchmark:
    def test_no_weights_flag(self, prepared, capsys):
        """Each column takes its weights from its token alone."""
        _, _, cfg_path = prepared
        with pytest.raises(SystemExit) as exc:
            cli.main(["benchmark", "--config", str(cfg_path), "--methods", "mcc+fixed",
                      "--weights", "none"])
        assert exc.value.code == 2
        assert "--weights" in capsys.readouterr().err

    def test_two_columns(self, prepared, capsys):
        tmp_path, cfg, cfg_path = prepared
        rc = cli.main([
            "benchmark", "--config", str(cfg_path),
            "--methods", "mcc+fixed,sbc+fixed",
        ])
        assert rc == 0
        report = (tmp_path / "out" / "benchmark_report.tsv").read_text()
        lines = report.strip().splitlines()
        header = lines[0].split("\t")
        assert header[1:] == ["mcc+fixed", "sbc+fixed"]
        # 3 class rows + accuracy + avg + std + 3 timing rows
        assert len(lines) == 1 + 3 + 6
        assert lines[1].split("\t")[0].startswith("class0 | ")

    def test_hpo_columns(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        rc = cli.main([
            "benchmark", "--config", str(cfg_path),
            "--methods", "mcc+hgs,sbc+hgs+weights",
        ])
        assert rc == 0
        report = (tmp_path / "out" / "benchmark_report.tsv").read_text()
        assert "FAILED" not in report

    def test_emit_unknown_columns(self, prepared):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "unknown.json"
        p.write_text(json.dumps(dict(cfg, unknown_action="emit_unknown", threshold=0.99)))
        rc = cli.main(["benchmark", "--config", str(p), "--methods", "mcc+fixed,sbc+fixed"])
        assert rc == 0
        report = (tmp_path / "out" / "benchmark_report.tsv").read_text()
        assert "FAILED" not in report

    def test_repeated_column_is_config_error(self, prepared, capsys):
        """A token that parses to a column already listed would train the
        same model again."""
        tmp_path, _, cfg_path = prepared
        rc = cli.main(["benchmark", "--config", str(cfg_path),
                       "--methods", "mcc+fixed, MCC+FIXED,mcc+fixed"])
        assert rc == cli.EXIT_CONFIG
        assert "' MCC+FIXED' repeats an earlier column" in capsys.readouterr().err
        assert not (tmp_path / "out" / "benchmark_report.tsv").exists()

    def test_phgs_needs_sbc_before_loading(self, prepared, capsys):
        """A bad column ends the run while --methods is parsed, before the
        CSVs load (a missing train_csv would exit 3) or a column trains."""
        tmp_path, cfg, _ = prepared
        p = tmp_path / "no_train.json"
        p.write_text(json.dumps(dict(cfg, train_csv=str(tmp_path / "missing.csv"))))
        rc = cli.main(["benchmark", "--config", str(p), "--methods", "sbc+fixed,mcc+phgs"])
        assert rc == cli.EXIT_CONFIG
        assert "bad method column 'mcc+phgs'" in capsys.readouterr().err

    @pytest.mark.parametrize("update, methods", [
        ({"cv": {"nfolds": 3}}, "mcc+fixed,sbc+hgs"),
        ({}, "mcc+phgs"),
    ])
    def test_config_error_exits_2(self, prepared, update, methods):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "bad_benchmark.json"
        p.write_text(json.dumps(dict(cfg, **update)))
        rc = cli.main(["benchmark", "--config", str(p), "--methods", methods])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "out" / "benchmark_report.tsv").exists()

    def test_bad_halving_trains_nothing(self, prepared, capsys, monkeypatch):
        """The sbc+hgs column's halving section is read before the mcc+fixed
        column trains."""
        tmp_path, cfg, _ = prepared

        def no_training(*args, **kwargs):
            raise AssertionError("a column trained")

        for module, name in ((cli, "train_multiclass"), (casc, "train_cascade"),
                             (cli.hpo, "halving_grid_search"), (cli.hpo, "phgs_cascade")):
            monkeypatch.setattr(module, name, no_training)
        p = tmp_path / "bad_halving.json"
        p.write_text(json.dumps(dict(cfg, halving={"factor": 1})))
        rc = cli.main(["benchmark", "--config", str(p), "--methods", "mcc+fixed,sbc+hgs"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: bad halving: ")
        assert not (tmp_path / "out").exists()


class TestBundle:
    def test_round_trip_predictions(self, prepared):
        tmp_path, cfg, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        path = str(tmp_path / "out" / "bundle.json")
        bundle = ModelBundle.load(path)
        test = ds.load_csv(cfg["test_csv"], "label")
        before = bundle.model.predict_proba(test.features)
        bundle.save(path + ".copy")
        again = ModelBundle.load(path + ".copy")
        assert np.array_equal(before, again.model.predict_proba(test.features))

    @pytest.mark.parametrize("text", [
        '{"bundle_version": 99}',
        '{not json',
        '{"bundle_version": 1, "payload": {}, "fingerprint": {}}',
        '{"bundle_version": 1, "kind": "mcc", "fingerprint": {}}',
        '{"bundle_version": 1, "kind": "xgb", "payload": {}, "fingerprint": {}}',
        '{"bundle_version": 1, "kind": "mcc", "payload": {"format_version": 1}, '
        '"fingerprint": {}}',
        _bundle_text(tree=_tree(value=[0.0, 0.1])),
        _bundle_text(tree={key: [] for key in _tree()}),
        # node 2 points back at leaf 1: no cycle, but not a preorder tree
        _bundle_text(tree=_tree(feature=[0, -1, 0], left=[1, -1, 1], right=[2, -1, 1],
                                is_leaf=[False, True, False])),
        _bundle_text(tree=_tree(right=[9, -1, -1])),
        _bundle_text(tree=_tree(right=[-1, -1, -1])),
        _bundle_text(tree=_tree(feature=[7, -1, -1])),
        _bundle_text(tree=_tree(feature=[10**30, -1, -1])),
        _bundle_text(tree=_tree(is_leaf=[True, True, True])),
        _bundle_text(objective="softmax"),
        _bundle_text(trees=[[_tree()]]),
        _bundle_text("sbc", thresholds=[0.5, 1.5]),
        _bundle_text("sbc", thresholds=[0.5]),
        _bundle_text("sbc", stages=[_gbt_payload("multiclass_softmax", [[_tree(), _tree()]])] * 2),
        _bundle_text(fingerprint={}),
        _bundle_text(fingerprint={"n_features": 3, "class_names": ["a", "b"]}),
        _bundle_text("sbc", fingerprint={"n_features": 2, "class_names": ["a"]}),
        _bundle_text("sbc", class_at=[-1, 1]),
        _bundle_text("sbc", class_at=[1, 1]),
        _bundle_text(tree=_tree(value=[0.0, NAN, -0.1])),
        _bundle_text(tree=_tree(threshold=[NAN, 0.0, 0.0])),
        _bundle_text(base_score=NAN),
        _bundle_text("sbc", tree=_tree(value=[0.0, NAN, NAN])),
        _bundle_text("sbc", stages=[dict(_gbt_payload("binary_logistic", [[_tree()]]),
                                         base_score=NAN)] * 2),
        _bundle_text(base_score=INF),
        _bundle_text("sbc", stages=[dict(_gbt_payload("binary_logistic", [[_tree()]]),
                                         base_score=-INF)] * 2),
    ], ids=["version", "not_json", "no_kind", "no_payload", "unknown_kind", "bad_payload",
            "tree_lengths", "empty_tree", "child_before_parent", "child_out_of_range",
            "one_child", "feature_range", "huge_index", "is_leaf", "objective", "group_size",
            "threshold_range", "threshold_count", "multiclass_stage", "empty_fingerprint",
            "fingerprint_n_features", "fingerprint_class_names", "class_at_negative",
            "class_at_repeated", "nan_value", "nan_threshold", "nan_base_score",
            "sbc_nan_value", "sbc_nan_base_score", "inf_base_score", "sbc_inf_base_score"])
    def test_bad_bundle_exits_5(self, tmp_path, capsys, text):
        path = tmp_path / "bundle.json"
        path.write_text(text)
        rows = tmp_path / "rows.csv"
        rows.write_text("1.0,2.0\n")
        rc = cli.main(["predict", "--bundle", str(path), "--input", str(rows)])
        assert rc == cli.EXIT_EVAL
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mcc", "sbc"])
    def test_hand_written_bundle_predicts(self, tmp_path, capsys, kind):
        path = tmp_path / "bundle.json"
        path.write_text(_bundle_text(kind))
        rows = tmp_path / "rows.csv"
        rows.write_text("0.0,2.0\n1.0,2.0\n")
        rc = cli.main(["predict", "--bundle", str(path), "--input", str(rows)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_infinite_margin_predicts_its_class(self, tmp_path, capsys):
        """Class b's 1e308 leaves sum past the largest double over two rounds:
        its margin is inf, and inf beats every finite margin. numpy's overflow
        warning is no fault, so it must not reach stderr."""
        huge = _tree(value=[0.0, 1e308, 1e308])
        path = tmp_path / "bundle.json"
        path.write_text(_bundle_text(trees=[[_tree(), huge]] * 2, params={"learning_rate": 1.0}))
        rows = tmp_path / "rows.csv"
        rows.write_text("0.0,2.0\n1.0,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["predict", "--bundle", str(path), "--input", str(rows)]) == 0
        captured = capsys.readouterr()
        assert [json.loads(line)["class"] for line in captured.out.splitlines()] == ["b", "b"]
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_bundle_nested_too_deep(self, prepared, capsys, command):
        tmp_path, cfg, _ = prepared
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        argv = {"predict": ["--input", cfg["test_csv"]],
                "evaluate": ["--test", cfg["test_csv"], "--out", str(tmp_path / "eval")]}[command]
        assert cli.main([command, "--bundle", str(path)] + argv) == cli.EXIT_EVAL
        assert f"{path}: not a JSON file" in capsys.readouterr().err

    def test_cyclic_tree_fails_on_load(self, tmp_path):
        # the root is its own child: predict would walk it forever
        path = tmp_path / "bundle.json"
        path.write_text(_bundle_text(tree=_tree(left=[0, -1, -1], right=[0, -1, -1])))
        with pytest.raises(BundleError, match="child"):
            ModelBundle.load(str(path))

    def test_failed_save_keeps_old_bundle(self, prepared, monkeypatch):
        tmp_path, _, cfg_path = prepared
        cli.main(["train", "--config", str(cfg_path)])
        out = tmp_path / "out"
        before = (out / "bundle.json").read_bytes()
        bundle = ModelBundle.load(str(out / "bundle.json"))

        def dump_then_fail(doc, fh):
            fh.write('{"bundle_version": 1, "kind": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            bundle.save(str(out / "bundle.json"))
        assert (out / "bundle.json").read_bytes() == before
        assert not list(out.glob("*.tmp"))


# A fuzz CSV starts valid: two feature columns of numbers (plus a label for
# prepare), then takes up to four mutations. The bad pieces are cells that do
# not parse, bytes that are not UTF-8, NUL, a quoted field over csv's
# 131072-character limit, and quoted cells holding a comma or a newline.
FUZZ_NUMBERS = [b"1.0", b"-2", b"0", b"3.5", b"7", b"1e308", b"-1e308", b"inf", b"nan"]
FUZZ_CELLS = [b"", b" ", b"1e400", b"9" * 400, b"abc", b"label", b"\xff\xfe", b"\x00",
              b'"' + b"9" * 131073 + b'"', b'"1,5"', b'"x\ny"', b'"q""q"']
FUZZ_HEADERS = [[b"label"], [b"f0", b"f0", b"label"], [b"f0", b"label", b"label"],
                [b'"f0"', b"f1", b'"la""bel"'], [b"1.0", b"2.0"], []]


@st.composite
def fuzz_csv(draw, labeled):
    number = st.sampled_from(FUZZ_NUMBERS)
    rows = draw(st.lists(st.lists(number, min_size=2, max_size=2), min_size=1, max_size=8))
    lines = [[b"f0", b"f1"]] + rows
    if labeled:
        lines = [line + [name] for line, name in
                 zip(lines, [b"label"] + draw(st.lists(st.sampled_from([b"a", b"b", b" a"]),
                                                       min_size=len(rows), max_size=len(rows))))]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["cell", "drop", "extra", "blank", "header", "bytes"]))
        if kind == "cell" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(st.sampled_from(FUZZ_CELLS))
        elif kind == "drop":
            lines[i] = lines[i][:-1]
        elif kind == "extra":
            lines[i] = lines[i] + [draw(number)]
        elif kind == "blank":
            lines.insert(i, [])
        elif kind == "header":
            lines[0] = list(draw(st.sampled_from(FUZZ_HEADERS)))
        else:
            lines.insert(i, [draw(st.binary(max_size=12))])
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    return end.join(b",".join(line) for line in lines) + end


class TestCliFuzz:
    @given(data=st.data(), command=st.sampled_from(["prepare", "mcc", "sbc"]))
    @settings(max_examples=200, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_mutated_csv_exits_with_a_code(self, tmp_path_factory, data, command):
        """prepare, and predict on a two-feature bundle, end every mutated
        CSV with a documented exit code; no exception escapes."""
        d = tmp_path_factory.mktemp("fuzz")
        path = d / "in.csv"
        path.write_bytes(data.draw(fuzz_csv(labeled=command == "prepare")))
        if command == "prepare":
            argv = ["prepare", "--input", str(path), "--out", str(d / "out")]
        else:
            (d / "bundle.json").write_text(_bundle_text(command))
            argv = ["predict", "--bundle", str(d / "bundle.json"), "--input", str(path),
                    "--out", str(d / "preds.jsonl")]
        assert cli.main(argv) in (0, 2, 3, 4, 5)


def _mask_times(text):
    """``text`` with the digits of its timing rows, and of the wall times its
    JSON records, masked: wall times vary."""
    text = re.sub(r'("(?:seconds|train_seconds|hpo_s|train_s|test_s)": )[^,}\n]+', r"\1#", text)
    return re.sub(r"(?m)^((?:HPO|Train|Test) time|hpo_s|train_s|test_s)\b(.*)$",
                  lambda m: m.group(1) + re.sub(r"\d", "#", m.group(2)), text)


@pytest.fixture
def noisy(prepared):
    """``prepared`` with overlapping classes, so that F1 varies by column."""
    tmp_path, cfg, cfg_path = prepared
    train, test = ds.stratified_split(blob_dataset([200, 60, 20], seed=21, scale=5.0),
                                      ds.SplitSpec(0.2, seed=1))
    ds.export_csv(train, cfg["train_csv"])
    ds.export_csv(test, cfg["test_csv"])
    return tmp_path, cfg, cfg_path


BENCHMARK_TSV = """\
class ( name | train | test )\tmcc+fixed\tsbc+fixed\tsbc+phgs\t sbc+hgs+weights
class0 | 160 | 40\t0.9398\t0.9500\tFAILED\tFAILED
class1 | 48 | 12\t0.7826\t0.8462\tFAILED\tFAILED
class2 | 16 | 4\t0.6667\t0.6667\tFAILED\tFAILED
Accuracy\t0.8929\t0.9107\tFAILED\tFAILED
Average F1\t0.7963\t0.8209\tFAILED\tFAILED
Std-dev F1\t0.1119\t0.1170\tFAILED\tFAILED
HPO time\t#.###\t#.###\tFAILED\tFAILED
Train time\t#.###\t#.###\tFAILED\tFAILED
Test time\t#.###\t#.###\tFAILED\tFAILED
"""

BENCHMARK_STDERR = """\
FAILED sbc+phgs: stage 1: fold 16 degenerate: validation part has a single class
FAILED  sbc+hgs+weights: stage 1: fold 16 degenerate: validation part has a single class
"""

TRAIN_STDOUT = """\
Accuracy    0.8929
Average F1  0.7963
Std-dev F1  0.1119
HPO time    #.###
Train time  #.###
Test time   #.###
bundle written to {out}/bundle.json
"""

TRAIN_SUMMARY = """\
class                          precision    recall        f1  support
class0                            0.9070    0.9750    0.9398       40
class2                            1.0000    0.5000    0.6667        4
class1                            0.8182    0.7500    0.7826       12

Accuracy    0.8929
Average F1  0.7963
Std-dev F1  0.1119
hpo_s       #.###
train_s     #.###
test_s      #.###
"""


class TestPinnedText:
    """benchmark's table and train's report, as text, timing digits masked."""

    def test_benchmark_with_failed_columns(self, noisy, capsys):
        tmp_path, cfg, _ = noisy
        p = tmp_path / "folds17.json"
        # 17 folds leave a cascade stage's CV fold one class: its columns fail
        p.write_text(json.dumps(dict(cfg, cv={"folds": 17, "seed": 0})))
        rc = cli.main(["benchmark", "--config", str(p),
                       "--methods", "mcc+fixed,sbc+fixed,sbc+phgs, sbc+hgs+weights"])
        assert rc == 0
        captured = capsys.readouterr()
        assert _mask_times(captured.out) == BENCHMARK_TSV
        assert captured.err == BENCHMARK_STDERR
        report = (tmp_path / "out" / "benchmark_report.tsv").read_text()
        assert _mask_times(report) == BENCHMARK_TSV

    def test_train_with_test_csv(self, noisy, capsys):
        tmp_path, _, cfg_path = noisy
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert _mask_times(capsys.readouterr().out) == TRAIN_STDOUT.format(out=out)
        assert _mask_times((out / "summary.txt").read_text()) == TRAIN_SUMMARY

    def test_train_without_test_csv(self, noisy, capsys):
        tmp_path, cfg, _ = noisy
        cfg = dict(cfg, method="sbc")
        cfg.pop("test_csv")
        p = tmp_path / "no_test.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(p)]) == 0
        assert _mask_times(capsys.readouterr().out) == (
            "HPO time    #.###\nTrain time  #.###\nTest time   #.###\n"
            f"bundle written to {tmp_path / 'out'}/bundle.json\n")


# a child that runs the CLI, pinned to one CPU before sbcboost is imported
# when its first argument is "pin"
PINNABLE_CLI = """\
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from sbcboost.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
class TestPinnedRun:
    """A run whose children each see one CPU writes the same bytes as one
    whose children see them all, wall times masked: the unpinned mcc fit
    grows each round's trees in a fork pool, the pinned one in order."""

    STEPS = [
        ["prepare", "--input", "raw.csv", "--out", "prep", "--test-fraction", "0.25"],
        ["train", "--config", "mcc.json"],
        ["tune", "--config", "sbc.json"],
        ["evaluate", "--bundle", "sbc/bundle.json", "--test", "prep/test.csv", "--out", "eval"],
        ["predict", "--bundle", "mcc/bundle.json", "--input", "features.csv",
         "--out", "mcc.jsonl"],
        ["predict", "--bundle", "sbc/bundle.json", "--input", "features.csv",
         "--out", "sbc.jsonl"],
    ]

    @staticmethod
    def _run(cwd, pin, d):
        """Every step's output, stdout and stderr, masked, in ``cwd``."""
        ds.export_csv(d, str(cwd / "raw.csv"))
        np.savetxt(cwd / "features.csv", d.features[::7], delimiter=",", fmt="%.17g")
        common = {"train_csv": "prep/train.csv", "test_csv": "prep/test.csv",
                  "cv": {"folds": 2, "seed": 0}}
        (cwd / "mcc.json").write_text(json.dumps(dict(
            common, method="mcc", hpo="fixed", out_dir="mcc",
            params={"num_rounds": 3, "max_depth": 3, "subsample": 0.7, "seed": 4})))
        (cwd / "sbc.json").write_text(json.dumps(dict(
            common, method="sbc", hpo="phgs", out_dir="sbc",
            halving={"factor": 2, "min_resources": 40, "seed": 0},
            grid={"max_depth": [1, 2], "num_rounds": [2, 4]})))
        got = {}
        for i, argv in enumerate(TestPinnedRun.STEPS):
            proc = subprocess.run([sys.executable, "-c", PINNABLE_CLI, pin] + argv,
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  env=_child_env(), cwd=cwd, timeout=300)
            assert proc.returncode == 0, proc.stderr
            got[f"step {i} stdout"] = _mask_times(proc.stdout)
            got[f"step {i} stderr"] = proc.stderr
        for path in sorted(cwd.rglob("*")):
            if path.is_file():
                got[str(path.relative_to(cwd))] = _mask_times(path.read_text())
        return got

    def test_same_bytes_pinned_and_unpinned(self, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: an unpinned mcc fit would start no pool")
        d = blob_dataset([240, 80, 40, 16], seed=8, scale=3.0)
        runs = {}
        for pin in ("pin", "all"):
            (tmp_path / pin).mkdir()
            runs[pin] = self._run(tmp_path / pin, pin, d)
        assert runs["pin"] == runs["all"]
        assert "mcc/bundle.json" in runs["pin"] and "sbc/hpo_trials_stage0.jsonl" in runs["pin"]


# _parse_method as it once read its suffix from a table, plus the rule that
# phgs needs sbc; the grammar must accept and reject the same tokens, with the
# same message.
REFERENCE_METHOD_COLUMNS = {
    "fixed": ("fixed", "none"),
    "gs": ("gs", "none"),
    "gs+weights": ("gs", "inverse_frequency"),
    "hgs": ("hgs", "none"),
    "hgs+weights": ("hgs", "inverse_frequency"),
    "phgs": ("phgs", "none"),
    "phgs+weights": ("phgs", "inverse_frequency"),
}


def reference_parse_method(token):
    parts = token.strip().lower().split("+", 1)
    method = parts[0]
    rest = parts[1] if len(parts) > 1 else "fixed"
    if method not in ("mcc", "sbc") or rest not in REFERENCE_METHOD_COLUMNS:
        raise ConfigError(f"bad method column {token!r}")
    hpo_mode, weights = REFERENCE_METHOD_COLUMNS[rest]
    if hpo_mode == "phgs" and method != "sbc":
        raise ConfigError(f"bad method column {token!r}")
    return method, hpo_mode, weights


METHOD_PARTS = ["mcc", "SBC", " sbc ", "sbc", "fixed", "gs", "HGS", "phgs", "weights",
                "Weights ", "", "x", "mcc ", " "]


def _outcome(parse, token):
    try:
        return parse(token)
    except ConfigError as exc:
        return str(exc)


def test_parse_method_matches_table():
    """Every token of one to four parts joined by '+': 41,370 in all."""
    tokens = ["+".join(parts) for n in range(1, 5)
              for parts in itertools.product(METHOD_PARTS, repeat=n)]
    assert len(tokens) == 41370
    assert [t for t in tokens
            if _outcome(cli._parse_method, t) != _outcome(reference_parse_method, t)] == []
    assert sum(type(_outcome(cli._parse_method, t)) is tuple for t in tokens) == 32


SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _child_env():
    """This environment, with the package under test first on the path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))


class TestConfigValues:
    """Config values that ended in a traceback, read a file descriptor or
    trained a broken model are config errors (exit 2)."""

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"])
    def test_top_level_not_an_object(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("train_csv", None), ("out_dir", 7),
                                            ("label_column", 3)])
    def test_value_not_a_string(self, prepared, capsys, key, value):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(cfg, **{key: value})))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG
        assert f"{key} must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("train_csv", 0), ("test_csv", 1),
                                            ("train_csv", True)])
    def test_int_path_is_no_file_descriptor(self, prepared, key, value):
        """Run as a child process: opening fd 0 or 1 would read or close this
        process's own stdin or stdout."""
        tmp_path, cfg, _ = prepared
        p = tmp_path / "fd.json"
        p.write_text(json.dumps(dict(cfg, **{key: value})))
        proc = subprocess.run([sys.executable, "-m", "sbcboost.cli", "train", "--config", str(p)],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=_child_env(), cwd=tmp_path, timeout=120)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert f"{key} must be a string" in proc.stderr

    @pytest.mark.parametrize("method, section, key, value", [
        ("mcc", "params", "l2_lambda", NAN),
        ("mcc", "params", "min_child_weight", NAN),
        ("sbc", "params", "l2_lambda", INF),
        ("sbc", "last_stage", "negatives_per_positive", NAN),
        ("sbc", "last_stage", "negatives_per_positive", INF),
    ])
    def test_non_finite_number(self, prepared, capsys, method, section, key, value):
        tmp_path, cfg, _ = prepared
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(dict(cfg, method=method,
                                     **{section: dict(cfg.get(section, {}), **{key: value})})))
        assert cli.main(["train", "--config", str(p)]) == cli.EXIT_CONFIG
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "bundle.json").exists()

    def test_huge_finite_negatives_per_positive(self, prepared):
        """A ratio whose negative count overflows to inf samples the whole
        majority class, as any count past its size does."""
        tmp_path, cfg, _ = prepared
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(dict(cfg, method="sbc", last_stage={
            "source": "majority_only", "negatives_per_positive": 1e308})))
        assert cli.main(["train", "--config", str(p)]) == 0
        counts = np.bincount(ds.load_csv(cfg["train_csv"], "label").labels)
        bundle = ModelBundle.load(str(tmp_path / "out" / "bundle.json"))
        assert bundle.model.metadata[-1].train_size == counts.min() + counts.max()

    @pytest.mark.parametrize("argv", [["train"], ["benchmark", "--methods", "mcc"]],
                             ids=["train", "benchmark"])
    def test_config_nested_too_deep(self, tmp_path, capsys, argv):
        p = tmp_path / "cfg.json"
        p.write_text(DEEP_JSON)
        assert cli.main(argv + ["--config", str(p)]) == cli.EXIT_CONFIG
        assert f"cannot read config {p}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tune", "benchmark"])
    def test_grid_nested_too_deep(self, prepared, capsys, command):
        """tune reads it as the config's grid_file, benchmark from --grid."""
        tmp_path, cfg, _ = prepared
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        p = tmp_path / "grid_cfg.json"
        if command == "tune":
            p.write_text(json.dumps(dict(cfg, method="sbc", hpo="hgs", grid_file=str(deep))))
            argv = ["tune", "--config", str(p)]
        else:
            p.write_text(json.dumps(cfg))
            argv = ["benchmark", "--config", str(p), "--methods", "sbc+hgs", "--grid", str(deep)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "bad grid_file" in capsys.readouterr().err

    @pytest.mark.parametrize("method, hpo_mode", [("mcc", "hgs"), ("mcc", "gs"), ("sbc", "hgs")])
    def test_huge_fold_count(self, prepared, capsys, method, hpo_mode):
        """Folds past the row count are all empty, so a fold count numpy
        cannot hold fails on its first single-class fold, as 1000 does."""
        tmp_path, cfg, _ = prepared
        errors = []
        for folds in (1000, 10**30):
            p = tmp_path / "folds.json"
            p.write_text(json.dumps(dict(cfg, method=method, hpo=hpo_mode, cv={"folds": folds})))
            assert cli.main(["train", "--config", str(p)]) == cli.EXIT_TRAIN
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "degenerate" in errors[0]

    @pytest.mark.parametrize("command, hpo_mode, section", [
        ("train", "fixed", "last_stage"), ("tune", "phgs", "cv"), ("tune", "phgs", "halving"),
    ])
    def test_negative_seed(self, prepared, capsys, command, hpo_mode, section):
        """numpy's generators reject a negative seed: a traceback for the last
        stage's sampling, a training error inside a search."""
        tmp_path, cfg, _ = prepared
        p = tmp_path / "seed.json"
        p.write_text(json.dumps(dict(cfg, method="sbc", hpo=hpo_mode,
                                     **{section: dict(cfg.get(section, {}), seed=-1)})))
        assert cli.main([command, "--config", str(p)]) == cli.EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err


# A fuzzed config is a small valid one with one top-level key, or one field
# of a section, replaced by an arbitrary JSON value. Ints stay small, so no
# value asks for a long fit; strings are relative names, so every file the
# command writes lands in the example's own directory.
FUZZ_CONFIG = {
    "train_csv": "train.csv", "test_csv": "test.csv", "label_column": "label",
    "method": "sbc", "hpo": "fixed", "params": {"num_rounds": 2, "max_depth": 2, "seed": 0},
    "out_dir": "out", "cv": {"folds": 2, "seed": 0},
    "halving": {"factor": 2, "min_resources": 20, "seed": 0},
    "grid": {"max_depth": [1, 2]},
    "last_stage": {"source": "majority_only", "negatives_per_positive": 1.0, "seed": 0},
}
FUZZ_TOP_KEYS = sorted(FUZZ_CONFIG) + ["grid_file", "weights", "threshold", "unknown_action"]
FUZZ_FIELDS = [(section, name) for section, fields in (
    ("params", ["num_rounds", "learning_rate", "max_depth", "min_child_weight", "l2_lambda",
                "subsample", "seed"]),
    ("cv", ["folds", "metric", "seed"]),
    ("halving", ["factor", "min_resources", "seed"]),
    ("last_stage", ["source", "negatives_per_positive", "seed"]),
    ("grid", ["max_depth", "num_rounds", "learning_rate"]),
) for name in fields]
FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0, 1e308, NAN, INF, -INF]),
    st.sampled_from(["", "x", "label", "train.csv", "sbc", "mcc", "hgs", "phgs", "none",
                     "inverse_frequency", "emit_unknown", "all_others", "accuracy"]),
)
FUZZ_JSON = st.one_of(
    FUZZ_SCALARS, st.lists(FUZZ_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["values", "prune", "folds", "seed"]), FUZZ_SCALARS,
                    max_size=2))


@pytest.fixture(scope="module")
def fuzz_split(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_split")
    train, test = ds.stratified_split(blob_dataset([50, 20, 10], seed=4, scale=4.0),
                                      ds.SplitSpec(0.25, seed=0))
    ds.export_csv(train, str(d / "train.csv"))
    ds.export_csv(test, str(d / "test.csv"))
    return d


class TestConfigFuzz:
    @given(data=st.data(), command=st.sampled_from(["train", "benchmark"]))
    @settings(max_examples=300, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_mutated_config_exits_with_a_code(self, tmp_path_factory, fuzz_split, data,
                                             command):
        """train, and benchmark of an mcc and an sbc+hgs column, end every
        mutated config with a documented exit code; no exception escapes."""
        cfg = json.loads(json.dumps(FUZZ_CONFIG))
        if data.draw(st.booleans()):
            cfg[data.draw(st.sampled_from(FUZZ_TOP_KEYS))] = data.draw(FUZZ_JSON)
        else:
            section, name = data.draw(st.sampled_from(FUZZ_FIELDS))
            cfg[section][name] = data.draw(FUZZ_JSON)
        d = tmp_path_factory.mktemp("fuzz_cfg")
        for name in ("train.csv", "test.csv"):
            (d / name).write_bytes((fuzz_split / name).read_bytes())
        (d / "cfg.json").write_text(json.dumps(cfg))
        argv = [command, "--config", "cfg.json"]
        if command == "benchmark":
            argv += ["--methods", "mcc+fixed,sbc+hgs"]
        cwd = os.getcwd()
        os.chdir(d)
        try:
            assert cli.main(argv) in (0, 2, 3, 4, 5)
        finally:
            os.chdir(cwd)


def reference_validate_config(cfg):
    """cli._validate_config as it checked a config after _load_config (oracle)."""
    method = cfg.get("method", "mcc")
    hpo_mode = cfg.get("hpo", "fixed")
    if method not in cli.METHODS:
        raise ConfigError(f"method must be mcc or sbc, got {method!r}")
    if hpo_mode not in cli.HPO_MODES:
        raise ConfigError(f"hpo must be one of {'/'.join(cli.HPO_MODES)}, got {hpo_mode!r}")
    if hpo_mode == "phgs" and method != "sbc":
        raise ConfigError("hpo=phgs requires method=sbc")
    if hpo_mode == "fixed" and "params" not in cfg:
        raise ConfigError("hpo=fixed requires explicit params")
    if "train_csv" not in cfg:
        raise ConfigError("config needs train_csv")
    for key, allowed in (("weights", ds.WEIGHT_SCHEMES), ("unknown_action", casc.UNKNOWN_ACTIONS)):
        if key in cfg and cfg[key] not in allowed:
            raise ConfigError(f"{key} must be one of {'/'.join(allowed)}, got {cfg[key]!r}")
    threshold = cfg.get("threshold", casc.DEFAULT_THRESHOLD)
    if type(threshold) not in (int, float) or not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be a number in (0, 1), got {threshold!r}")


def reference_search_space(cfg, hpo_mode, n_rows):
    """cli._search_space, with _grid_from_cfg, as they read a search's grid
    and halving sections (oracle)."""
    if "grid_file" in cfg:
        grid = cli._from_section(cfg, "grid_file",
                                 lambda p: cli._checked_grid(HpGrid.from_file(p)))
    else:
        grid = cli._from_section(cfg, "grid", lambda m: cli._checked_grid(HpGrid.from_mapping(m)),
                                 cli.DEFAULT_GRID)
    if hpo_mode == "gs":
        return HpGrid(grid.values, {}), HalvingConfig(min_resources=n_rows)
    if hpo_mode == "hgs":
        grid = HpGrid(grid.values, {})
    return grid, cli._from_section(cfg, "halving", lambda s: HalvingConfig(**s))


def reference_sections(cfg, n_rows):
    """What _validate_config and _train_one once read from a config, in their
    order: (method, hpo mode, weights, params, cv, grid, halving, policy,
    threshold), halving under gs as one rung of ``n_rows`` (oracle)."""
    reference_validate_config(cfg)
    method = cfg.get("method", "mcc")
    hpo_mode = cfg.get("hpo", "fixed")
    params = cli._from_section(cfg, "params", lambda s: GbtParams(**s))
    cv = cli._from_section(cfg, "cv", lambda s: CvConfig(**s))
    threshold = float(cfg.get("threshold", casc.DEFAULT_THRESHOLD))
    grid = hc = policy = None
    if hpo_mode != "fixed":
        grid, hc = reference_search_space(cfg, hpo_mode, n_rows)
    if method == "sbc":
        policy = cli._from_section(cfg, "last_stage", lambda s: casc.LastStagePolicy(**s))
    return (method, hpo_mode, cfg.get("weights", "none"), params, cv, grid, hc, policy,
            threshold)


def _run_sections(cfg, n_rows):
    """reference_sections' tuple, read through cli._read_run."""
    run = cli._read_run(cfg)
    halving = run.halving or (HalvingConfig(min_resources=n_rows) if run.hpo_mode == "gs"
                              else None)
    return (run.method, run.hpo_mode, run.weights, run.params, run.cv, run.grid, halving,
            run.policy, run.threshold)


RUN_PAIRS = [("mcc", h) for h in ("fixed", "gs", "hgs")] + \
    [("sbc", h) for h in ("fixed", "gs", "hgs", "phgs")]


class TestReadRunDifferential:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_matches_reference(self, tmp_path_factory, data):
        """TestConfigFuzz's single-key mutations, on each method and search:
        _read_run accepts what the old reads accepted, raises their messages,
        and reads the same values. Both read the config _load_config gives."""
        n_rows = 75
        path = tmp_path_factory.mktemp("run_cfg") / "cfg.json"
        if data.draw(st.booleans()):
            mutation = (data.draw(st.sampled_from(FUZZ_TOP_KEYS)), None)
        else:
            mutation = data.draw(st.sampled_from(FUZZ_FIELDS))
        value = data.draw(FUZZ_JSON)
        for method, hpo_mode in RUN_PAIRS:
            cfg = json.loads(json.dumps(dict(FUZZ_CONFIG, method=method, hpo=hpo_mode)))
            key, name = mutation
            if name is None:
                cfg[key] = value
            else:
                cfg[key][name] = value
            path.write_text(json.dumps(cfg))
            outcomes = []
            for read in (reference_sections, _run_sections):
                try:
                    outcomes.append(read(cli._load_config(str(path), argparse.Namespace()),
                                         n_rows))
                except ConfigError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (method, hpo_mode)


# A fuzzed bundle is _bundle_text's mcc or sbc bundle with one field, at any
# depth, replaced by an arbitrary JSON value or dropped, or the whole document
# wrapped in nesting, past the parser's depth limit among other depths.
FUZZ_BUNDLE_SCALARS = st.one_of(
    FUZZ_SCALARS,
    st.sampled_from([10**30, -10**30, 1e308, "a", "b", "binary_logistic", "multiclass_softmax"]),
)
FUZZ_BUNDLE_JSON = st.one_of(
    FUZZ_BUNDLE_SCALARS, st.lists(FUZZ_BUNDLE_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["format_version", "n_features", "class_names", "value"]),
                    FUZZ_BUNDLE_SCALARS, max_size=2))


def _json_paths(doc, path=()):
    """The key path to every value inside a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


@pytest.fixture(scope="module")
def fuzz_rows(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_rows")
    (d / "rows.csv").write_text("0.0,2.0\n1.0,2.0\n")
    (d / "test.csv").write_text("f0,f1,label\n0.0,2.0,a\n1.0,2.0,b\n")
    return d


class TestBundleFuzz:
    @given(data=st.data(), kind=st.sampled_from(["mcc", "sbc"]))
    @settings(max_examples=400, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_mutated_bundle_exits_with_a_code(self, tmp_path_factory, fuzz_rows, data, kind):
        """predict and evaluate end every mutated bundle with a documented
        exit code; no exception escapes."""
        doc = json.loads(_bundle_text(kind))
        action = data.draw(st.sampled_from(["replace", "drop", "nest"]))
        if action == "nest":
            depth = data.draw(st.sampled_from([1, 100, 5000, 200000]))
            text = "[" * depth + json.dumps(doc) + "]" * depth
        else:
            *path, key = data.draw(st.sampled_from(list(_json_paths(doc))))
            holder = doc
            for step in path:
                holder = holder[step]
            if action == "drop":
                del holder[key]
            else:
                holder[key] = data.draw(FUZZ_BUNDLE_JSON)
            text = json.dumps(doc)
        d = tmp_path_factory.mktemp("fuzz_bundle")
        (d / "bundle.json").write_text(text)
        bundle = str(d / "bundle.json")
        for argv in (["predict", "--bundle", bundle, "--input", str(fuzz_rows / "rows.csv"),
                      "--out", str(d / "preds.jsonl")],
                     ["evaluate", "--bundle", bundle, "--test", str(fuzz_rows / "test.csv"),
                      "--out", str(d / "eval")]):
            assert cli.main(argv) in (0, 2, 3, 4, 5)
