import os
import re
import subprocess
import sys
from pathlib import Path

import sbcboost
from sbcboost import data as ds

from conftest import blob_dataset

ROOT = Path(__file__).resolve().parents[1]


def _readme_library_example() -> str:
    """The python block under README.md's ``## Library`` heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    d = blob_dataset([60, 25, 10], seed=2)
    train, test = ds.stratified_split(d, ds.SplitSpec(0.3, seed=0))
    ds.export_csv(train, str(tmp_path / "train.csv"))
    ds.export_csv(test, str(tmp_path / "test.csv"))
    monkeypatch.chdir(tmp_path)
    exec(compile(_readme_library_example(), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "Accuracy" in out and "Average F1" in out
    for name in train.class_names:
        assert name in out


def test_import_loads_no_submodule():
    code = ("import sys, sbcboost; print(sbcboost.__version__); "
            "print(sorted(m for m in sys.modules if m.startswith('sbcboost.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] == sbcboost.__version__
    assert out[1] == "[]"
