import json

import pytest


def test_run_demo_writes_both_summary_files(demo, tmp_path, capsys):
    demo["run"](str(tmp_path))
    for label in ("codec", "base"):
        with open(tmp_path / f"generated_{label}.json") as fh:
            assert len(json.load(fh)) == len(demo["SAMPLE_PAIRS"]) == 4
    assert "outputs in" in capsys.readouterr().out


def test_run_demo_exits_non_zero_on_failure(demo, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        demo["cosum"](["train", "--reviews", str(tmp_path / "none.jsonl"), "--out", "m.json"])
    assert exc.value.code == "cosum train failed with exit code 1"
