"""Smoke runs of the example scripts at a tiny size."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def _bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPTS / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_compare_verdict_arithmetic():
    verdict = _bench_compare().verdict
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # quartiles 12.25 and 16.75 by linear interpolation, so the IQR is 4.5
    head = [b + 5 for b in base]
    v = verdict(base, head, "higher", 0.25)
    assert v["base"] == {"median": 14.5, "iqr": 4.5} and v["bound"] == 0.25
    assert v["head"]["median"] == 19.5 and v["head_wins"] == 10 and v["pairs"] == 10
    assert v["ratio"] == 19.5 / 14.5 and v["gain_holds"]
    # a gap of 4 is under the base IQR, though every pair is won
    assert not verdict(base, [b + 4 for b in base], "higher", 0.25)["gain_holds"]
    # 9 of 10 wins is enough (median gap 5), 8 are not
    nine = [b + 6 for b in base[:9]] + [base[9] - 1]
    assert verdict(base, nine, "higher", 0.25)["head_wins"] == 9
    assert verdict(base, nine, "higher", 0.25)["gain_holds"]
    eight = [b + 6 for b in base[:8]] + [base[8] - 1, base[9] - 1]
    assert not verdict(base, eight, "higher", 0.25)["gain_holds"]
    # for a time, lower is better and ties are not wins
    lower = verdict(head, base, "lower", 0.25)
    assert lower["head_wins"] == 10 and lower["gain_holds"]
    assert verdict(base, base, "lower", 0.25)["head_wins"] == 0
    # fewer than ten pairs never make a claim
    assert not verdict(base[:9], head[:9], "higher", 0.25)["gain_holds"]
    with pytest.raises(ValueError):
        verdict(base, head[:9], "higher", 0.25)


def test_bench_compare_bound_status():
    verdict = _bench_compare().verdict
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # IQR 4.5 is 31% of the median 14.5: wider than a bound of 0.25
    assert verdict(base, base, "higher", 0.25)["bound_status"] == "unresolved"
    assert verdict(base, base, "higher", 0.4)["bound_status"] == "within"
    # a wide spread is resolved when every head run beats every base run
    assert verdict(base, [b + 10 for b in base], "higher", 0.25)["bound_status"] == "within"
    assert verdict(base, [b - 10 for b in base], "lower", 0.25)["bound_status"] == "within"
    # a median worse by more than the bound is worse, whatever the spread
    assert verdict(base, [b - 4 for b in base], "higher", 0.25)["bound_status"] == "worse"
    assert verdict(base, [b + 4 for b in base], "lower", 0.25)["bound_status"] == "worse"
    assert verdict(base, [b + 3 for b in base], "lower", 0.4)["bound_status"] == "within"


def test_bench_compare_flags_setup_noise():
    module = _bench_compare()
    verdict, floor = module.verdict, module.NOISE["setup_s"]
    assert floor == 0.15
    base = [0.20] * 10
    # a 10% gap either way is noise for setup_s, 20% is not
    assert verdict(base, [0.22] * 10, "lower", 0.25, floor)["noise"]
    assert verdict(base, [0.18] * 10, "lower", 0.25, floor)["noise"]
    assert not verdict(base, [0.24] * 10, "lower", 0.25, floor)["noise"]
    # metrics without a noise floor are never flagged
    assert not verdict(base, [0.22] * 10, "lower", 0.25)["noise"]


def test_bench_compare_requires_seed_104729(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_compare.py"), "--base", "HEAD", "--head", "HEAD",
         "--workload", "sim-large", "--seeds", "1,2", "--label", "x"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "--seeds must include 104729" in proc.stderr


def test_bench_compare_scale_runs_both_sides_at_a_tiny_size(tmp_path, monkeypatch):
    # both sides run this checkout, so every report must match
    module = _bench_compare()
    assert len(module.SCALE_RUNS) == 22 and module.SCALE_RUNS[-1] == "integrated-2c:3000000"
    root = SCRIPTS.parent
    monkeypatch.setattr(module, "_checkout", lambda rev, made: (root, {"rev": rev}))
    monkeypatch.setattr(module, "SCALE_RUNS", ("dqkd:2000", "relay:2000"))
    monkeypatch.setattr(module, "SCALE_ROUNDS", 1)
    out = tmp_path / "scale.json"
    argv = ["--scale", "--base", "A", "--head", "B", "--label", "tiny", "--out", str(out)]
    assert module.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "scale" and doc["base"] == {"rev": "A"} and doc["head"] == {"rev": "B"}
    assert [(e["protocol"], e["n"]) for e in doc["entries"]] == [("dqkd", 2000), ("relay", 2000)]
    for entry in doc["entries"]:
        assert entry["argv"] == module.scale_argv(entry["protocol"], 2000)
        assert len(entry["base"]) == len(entry["head"]) == 1 and entry["same_report"]
        assert all(run["exit"] == 0 for run in entry["base"] + entry["head"])
        for name in ("wall_s", "peak_rss_mb"):
            assert entry[name]["base"] > 0 and entry[name]["ratio"] > 0
    assert "--noise-bwd" in module.scale_argv("dqkd", 10) and "--noise-bwd" not in module.scale_argv("relay", 10)


def test_bench_compare_needs_a_workload_without_scale():
    with pytest.raises(SystemExit):
        _bench_compare().main(["--base", "HEAD", "--head", "HEAD", "--label", "x"])
