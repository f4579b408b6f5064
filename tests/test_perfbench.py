"""The benchmark harness against the program: ``perfbench/selfcheck.py``
drives every workload's commands at tiny sizes, so a change to a command,
flag or output that the benchmark reads fails here."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checkout_files():
    """(path, mtime) of every file in the checkout outside .git."""
    return {(p, p.stat().st_mtime_ns) for p in ROOT.rglob("*")
            if p.is_file() and p.relative_to(ROOT).parts[0] != ".git"}


def test_selfcheck_passes_in_a_copy(tmp_path):
    # selfcheck writes .perfbench/ under its copy's root, and the copy's own
    # src/ is the program it imports
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = checkout_files()
    res = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert checkout_files() == before
