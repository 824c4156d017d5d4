"""Smoke runs of the example scripts at a tiny size."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_scripts_run_at_tiny_size(tmp_path):
    lines = _run("relay_demo.py", "--n", "256")
    assert [line.split(":")[0] for line in lines] == ["normal ", "delayed"]
    assert all("key bits" in line and "pool consumed" in line for line in lines)

    out = tmp_path / "sweep.csv"
    lines = _run("sweep_key_rates.py", "--n", "256", "--steps", "2", "--out", str(out))
    assert lines[0].startswith("e=0.000  ")
    assert lines[1].startswith("e=0.110  ")
    assert lines[2] == f"wrote 2 rows to {out}"
    assert lines[3].startswith("correlated-lines reference rate at e=0.05: ")
    assert len(out.read_text().splitlines()) == 3
