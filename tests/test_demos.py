"""Smoke test of the demos: each runs to the end as a script of its own
and writes nothing into the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def checkout_files() -> dict:
    """Path -> (size, mtime) of every file outside .git and the caches
    that imports and pytest make."""
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            stat = (Path(dirpath) / name).stat()
            files[os.path.join(dirpath, name)] = (stat.st_size, stat.st_mtime_ns)
    return files


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_writes_nothing_into_the_checkout(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = checkout_files()
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert checkout_files() == before
    assert list(tmp_path.iterdir()) == []
