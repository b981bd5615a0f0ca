"""scripts/golden.py refuses the directories that would let a comparison
pass without comparing fresh outputs: a write into a directory that
already holds files, whose stale files a failed step would leave behind,
and a comparison with a missing or empty directory, which has no file to
differ.  A differing JSON list names its differing entries.  The script
is loaded by path; no test here writes the outputs."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_write_refuses_a_directory_that_holds_files(golden, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(golden, "_run", lambda *a, **k: pytest.fail("ran a step"))
    old = _outputs(tmp_path / "old", {"curves/default/ex3_1_sf.csv": "stale\n"})
    assert golden.main([str(old)]) == 2
    assert "is not an empty directory" in capsys.readouterr().err
    assert [p.name for p in old.rglob("*") if p.is_file()] == ["ex3_1_sf.csv"]
    not_a_dir = _outputs(tmp_path, {"file": "x"}) / "file"
    assert golden.main([str(not_a_dir)]) == 2


def test_write_accepts_a_new_or_empty_directory(golden, tmp_path, monkeypatch):
    # every step stubbed out: only the directory check and the records run
    done = subprocess.CompletedProcess([], 0, stdout=b"")
    monkeypatch.setattr(golden, "_run", lambda *a, **k: done)
    (tmp_path / "empty").mkdir()
    for outdir in (tmp_path / "empty", tmp_path / "new" / "dir"):
        assert golden.main([str(outdir)]) == 0
        assert (outdir / "reproduce_all.exit").read_text() == "0\n"
    # a second run into the same directory is refused
    assert golden.main([str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("a, b", [("missing", "missing"), ("empty", "run"), ("run", "empty"),
                                  ("run", "missing")])
def test_compare_refuses_a_missing_or_empty_directory(golden, tmp_path, capsys, a, b):
    _outputs(tmp_path / "run", {"verdicts.json": "[]\n"})
    (tmp_path / "empty" / "curves").mkdir(parents=True)
    assert golden.main(["--compare", str(tmp_path / a), str(tmp_path / b)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "holds no file" in out.err


def test_compare_counts_common_files_and_differences(golden, tmp_path, capsys):
    files = {"verdicts.json": "[]\n", "curves/default/ex3_1_sf.csv": "x,value\n"}
    a = _outputs(tmp_path / "a", files)
    b = _outputs(tmp_path / "b", files)
    assert golden.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "2 common files, 0 differences\n"
    (b / "verdicts.json").write_text("[1]\n")
    assert golden.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == ("differs: verdicts.json\n  [0]\n"
                                       "2 common files, 1 differences\n")


def test_compare_names_the_differing_entries_of_a_json_list(golden, tmp_path, capsys):
    rows = [{"id": "T3.1", "case": "valid 0", "held": True},
            {"fixture": "ex3.1", "held": True},
            {"scan": "t310", "index": 4, "held": True}, [1.0]]
    a = _outputs(tmp_path / "a", {"checkers.json": json.dumps(rows), "kernel.json": "{}",
                                  "g17_edges.csv": "x\n"})
    rows[1]["held"], rows[2]["held"] = False, False
    b = _outputs(tmp_path / "b", {"checkers.json": json.dumps(rows + [{"case": "extra"}]),
                                  "kernel.json": '{"a": 1}', "g17_edges.csv": "y\n"})
    assert golden.main(["--compare", str(a), str(b)]) == 1
    # an object or a file that is no JSON differs as a whole
    assert capsys.readouterr().out == (
        "differs: checkers.json\n  [1] fixture='ex3.1'\n  [2] scan='t310' index=4\n"
        "  [4] case='extra'\ndiffers: g17_edges.csv\ndiffers: kernel.json\n"
        "3 common files, 3 differences\n")
