"""Golden replay corpus: seeded reports and session JSON keep their bytes.

The digests in ``tests/golden.json`` come from ``scripts/regen_golden.py``,
which also defines the command lines and session sizes behind them.
"""

import importlib.util
import json
from pathlib import Path

from delayedpa import reports

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "regen_golden.py"


def _regen_golden():
    spec = importlib.util.spec_from_file_location("regen_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_digests_unchanged():
    golden = json.loads((ROOT / "tests" / "golden.json").read_text())
    regen = _regen_golden()
    reports_by_name = regen.golden_reports()
    current = regen.digests(reports_by_name)
    changed = sorted(name for name in golden.keys() | current.keys()
                     if golden.get(name) != current.get(name))
    assert not changed, (
        f"golden digests changed for {changed}; if the change is intended, "
        "rewrite tests/golden.json with `python scripts/regen_golden.py` "
        "and say so in CHANGES.md"
    )
    # the corpus hashes reports.dumps' bytes, so a faster writer is checked
    # by it only while those bytes are the sorted, indented JSON it pins
    for name, report in reports_by_name.items():
        assert reports.dumps(report) == json.dumps(report, indent=2, sort_keys=True) + "\n", name
