import json
import os
import runpy

import pytest

from cosum.sample_corpus import SAMPLE_PAIRS

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


def test_run_demo_writes_both_summary_files(tmp_path, capsys):
    run = runpy.run_path(os.path.join(SCRIPTS, "run_demo.py"))["run"]
    run(str(tmp_path))
    for label in ("codec", "base"):
        with open(tmp_path / f"generated_{label}.json") as fh:
            assert len(json.load(fh)) == len(SAMPLE_PAIRS) == 4
    assert "outputs in" in capsys.readouterr().out


def test_run_demo_exits_non_zero_on_failure(tmp_path, capsys):
    cosum = runpy.run_path(os.path.join(SCRIPTS, "run_demo.py"))["cosum"]
    with pytest.raises(SystemExit) as exc:
        cosum(["train", "--reviews", str(tmp_path / "none.jsonl"), "--out", "m.json"])
    assert exc.value.code == "cosum train failed with exit code 1"
