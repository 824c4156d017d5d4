"""The CI workflow names only tests that exist."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_every_test_id_in_the_workflow_is_collected():
    # a renamed or deleted test would leave its job running nothing for it
    ids = re.findall(r"tests/\S+\.py::\w+", WORKFLOW.read_text())
    assert ids
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    missing = [i for i in ids if not any(c == i or c.startswith(i + "[") for c in collected)]
    assert missing == []
