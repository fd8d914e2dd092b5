"""The scripts under ``tools/`` still run on this tree.

Each is run as a subprocess, as from the command line, at the smallest
sizes: ``layer_ladder.py --against`` the tree itself (so the comparison of
results runs too) and against a copy whose log is off by one (so a
difference is caught), and ``time_cap.py`` on one short ``expand`` call.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)


def test_layer_ladder_compares_the_tree_with_itself():
    proc = _run("tools/layer_ladder.py", "--tables", "log", "--log-orders", "5", "9",
                "--repeat", "1", "--against", str(ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "log change" in proc.stdout


def test_layer_ladder_catches_a_tree_that_differs(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    core = tmp_path / "src" / "ellformal" / "formal_group.py"
    text = core.read_text()
    assert text.count("    return values\n") == 1  # the end of _log_core
    core.write_text(text.replace("    return values\n", "    return [v + 1 for v in values]\n"))
    proc = _run("tools/layer_ladder.py", "--tables", "log", "--log-orders", "5", "9",
                "--repeat", "1", "--against", str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "the two trees differ: log " in proc.stderr
    assert re.search(r"^the two trees differ: honda ", proc.stderr, re.M), proc.stderr


def test_time_cap_times_one_call():
    proc = _run("tools/time_cap.py", "expand", "--order", "5", "--what", "fe")
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"\d+\.\d\d s\n", proc.stdout), proc.stdout
