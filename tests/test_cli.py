import contextlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayedpa
import delayedpa.suites
from delayedpa import cli, reports
from delayedpa.cli import SUITES, build_parser, main
from delayedpa.gf2 import BitVector
from delayedpa.ledger import KeyLedger, key_length
from delayedpa.protocols import (
    Bb84Config,
    ChannelModel,
    DqkdConfig,
    IntegratedConfig,
    RelayConfig,
    run_bb84,
    run_dqkd,
)
from delayedpa.security import MAX_ABAR_DIM, MAX_QUANTUM_DIM
from oracles import matvec, toeplitz_from_seed

SCHEMA = json.loads(
    (Path(delayedpa.__file__).parent / "schemas" / "report.schema.json").read_text()
)


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    report = json.loads(out) if out.strip() else None
    return code, report, out, err


def check_schema(report):
    jsonschema.validate(report, SCHEMA)


# --------------------------------------------------------------- keyrate

def test_keyrate_noiseless(capsys):
    code, report, _, _ = run_cli(
        ["keyrate", "--n", "1000", "--eb-roundtrip", "0", "--ep", "0"], capsys
    )
    assert code == 0
    assert report["key_ledger"]["n_key"] == 1000
    check_schema(report)


def test_keyrate_abort_exit_code(capsys):
    code, report, _, _ = run_cli(
        ["keyrate", "--n", "1000", "--eb-roundtrip", "0.25", "--ep", "0.25"], capsys
    )
    assert code == 2
    assert report["abort"] is True
    assert report["key_ledger"]["n_key"] < 0
    check_schema(report)


def test_keyrate_desk_value(capsys):
    code, report, _, _ = run_cli(
        ["keyrate", "--n", "1000", "--eb-roundtrip", "0.05", "--ep", "0.05"], capsys
    )
    assert code == 0
    assert report["key_ledger"]["n_key"] == 426
    check_schema(report)


def test_keyrate_single_line_rate(capsys):
    code, report, _, _ = run_cli(
        ["keyrate", "--n", "1000", "--eb-roundtrip", "0.1", "--ep", "0.05",
         "--eb-single", "0.05"], capsys
    )
    assert code == 0
    assert abs(report["single_line_rate"] - 0.2446) < 5e-4
    check_schema(report)


def test_keyrate_rejects_bad_rate(capsys):
    code, report, _, err = run_cli(
        ["keyrate", "--n", "1000", "--eb-roundtrip", "0.7", "--ep", "0"], capsys
    )
    assert code == 3
    assert report is None
    assert "error" in err


def test_unknown_flag_rejected(capsys):
    code, _, _, _ = run_cli(["keyrate", "--n", "10", "--bogus", "1"], capsys)
    assert code == 3


# --------------------------------------------------------------- simulate

def test_simulate_dqkd_roundtrip_rate(capsys):
    code, report, _, _ = run_cli(
        ["simulate", "dqkd", "--n", "10000", "--n-test", "2000",
         "--noise-fwd", "bsc:0.02", "--noise-bwd", "bsc:0.02", "--seed", "7"],
        capsys,
    )
    assert code == 0
    est = report["error_estimate"]
    assert abs(est["e_roundtrip"] - 0.0392) < 3 * est["se_roundtrip"]
    check_schema(report)


def test_simulate_bb84_intercept_resend_aborts(capsys):
    code, report, _, _ = run_cli(
        ["simulate", "bb84", "--n", "10000", "--n-test", "2000",
         "--eve", "intercept-resend", "--seed", "7"],
        capsys,
    )
    assert code == 2
    est = report["error_estimate"]
    assert abs(est["e_b"] - 0.25) < 3 * est["se_b"]
    assert report["abort"] is True
    check_schema(report)


def test_simulate_relay_digests_match(capsys):
    code, report, _, _ = run_cli(
        ["simulate", "relay", "--n", "1024", "--seed", "1"], capsys
    )
    assert code == 0
    assert report["seed"] == 1
    assert report["bob_key_digest"] == report["charlie_key_digest"]
    assert report["pool_consumed"] == 1024
    check_schema(report)


def test_simulate_unknown_protocol(capsys):
    code, _, _, _ = run_cli(["simulate", "teleport", "--n", "10"], capsys)
    assert code == 3


def test_simulate_config_file(tmp_path, capsys):
    cfg = {
        "protocol": "dqkd",
        "n": 500,
        "n_test": 100,
        "channels": {"forward": {"kind": "bsc", "param": 0.01}},
        "seed": 11,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, report, _, _ = run_cli(["simulate", "dqkd", "--config", str(path)], capsys)
    assert code == 0
    assert report["seed"] == 11
    assert report["config"]["channels"]["forward"]["param"] == 0.01
    check_schema(report)


def test_simulate_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, stdout, _ = run_cli(
        ["simulate", "bb84", "--n", "300", "--n-test", "80", "--seed", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout == ""
    report = json.loads(out.read_text())
    assert report["protocol"] == "bb84"
    check_schema(report)


def test_simulate_replay_is_byte_identical(capsys):
    args = ["simulate", "dqkd", "--n", "400", "--n-test", "100",
            "--noise-fwd", "bsc:0.03", "--seed", "42"]
    code1, report1, text1, _ = run_cli(args, capsys)
    code2, report2, text2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    strip = lambda r: {k: v for k, v in r.items() if k != "timing"}
    assert json.dumps(strip(report1), sort_keys=True) == json.dumps(strip(report2), sort_keys=True)


def test_simulate_fresh_seed_is_replayable(capsys):
    base = ["simulate", "bb84", "--n", "200", "--n-test", "60"]
    code1, report1, _, _ = run_cli(base, capsys)
    assert code1 == 0
    seed = report1["seed"]
    code2, report2, _, _ = run_cli(base + ["--seed", str(seed)], capsys)
    assert code2 == 0
    strip = lambda r: {k: v for k, v in r.items() if k != "timing"}
    assert strip(report1) == strip(report2)


def test_simulate_relay_fresh_seed_is_replayable(capsys):
    base = ["simulate", "relay", "--n", "256", "--n-test", "64"]
    code1, report1, _, _ = run_cli(base, capsys)
    assert code1 == 0
    code2, report2, _, _ = run_cli(base + ["--seed", str(report1["seed"])], capsys)
    assert code2 == 0
    strip = lambda r: {k: v for k, v in r.items() if k != "timing"}
    assert json.dumps(strip(report1), sort_keys=True) == json.dumps(strip(report2), sort_keys=True)
    check_schema(report1)


_REPLAY_CASES = {
    "bb84": ["bb84", "--noise-fwd", "depolarizing:0.04"],
    "dqkd": ["dqkd", "--noise-fwd", "bsc:0.02", "--noise-bwd", "bsc:0.03"],
    "integrated-2": ["integrated-2", "--noise-fwd", "bsc:0.02"],
    "integrated-2b": ["integrated-2b", "--noise-fwd", "bsc:0.02"],
    "integrated-2c": ["integrated-2c", "--noise-fwd", "bsc:0.02", "--noise-bwd", "depolarizing:0.04"],
    "integrated-2d": ["integrated-2d", "--noise-fwd", "depolarizing:0.04", "--noise-bwd", "bsc:0.02"],
    "relay": ["relay", "--noise-fwd", "bsc:0.02"],
    "bb84-intercept-resend": ["bb84", "--eve", "intercept-resend"],
    "dqkd-intercept-resend-backward": ["dqkd", "--eve", "intercept-resend:backward"],
}


@pytest.mark.parametrize("case", list(_REPLAY_CASES.values()), ids=list(_REPLAY_CASES))
def test_simulate_replay_every_protocol(capsys, case):
    args = ["simulate", *case, "--n", "600", "--n-test", "200", "--seed", "5"]
    code1, report1, text1, _ = run_cli(args, capsys)
    code2, report2, text2, _ = run_cli(args, capsys)
    assert code1 == code2
    assert code1 == (2 if report1["abort"] else 0)
    assert report1["seed"] == 5
    check_schema(report1)
    assert text1 == reports.dumps(report1) and text2 == reports.dumps(report2)
    strip = lambda r: {k: v for k, v in r.items() if k != "timing"}
    assert reports.dumps(strip(report1)) == reports.dumps(strip(report2))


def _assert_one_line_config_error(code, out, err):
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "error" in err


def test_simulate_bb84_without_quantum_memory_aborts_on_too_few_sifted_bits(capsys):
    # about half of the 10 + 256 signals sent survive sifting: too few to
    # take the 256 test bits and leave a key
    code, report, _, _ = run_cli(
        ["simulate", "bb84", "--n", "10", "--no-quantum-memory", "--seed", "1"], capsys
    )
    assert code == 2
    assert report["abort"] is True
    assert report["abort_reason"] == "insufficient sifted bits"
    assert report["error_estimate"] is None and report["key_digest"] is None
    check_schema(report)


@pytest.mark.parametrize("protocol", ["bb84", "integrated-2"])
def test_simulate_aborts_when_one_basis_gets_no_test_bit(capsys, protocol):
    # two test signals in the same basis at this seed leave the other basis
    # with none to estimate from
    code, report, _, _ = run_cli(
        ["simulate", protocol, "--n", "50", "--n-test", "2", "--seed", "2"], capsys
    )
    assert code == 2
    assert report["abort"] is True
    assert report["abort_reason"] == "insufficient test bits in one basis"
    assert report["error_estimate"] is None and report["key_digest"] is None
    check_schema(report)


def test_simulate_config_with_a_json_syntax_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 10,')
    code, _, out, err = run_cli(["simulate", "bb84", "--config", str(path)], capsys)
    _assert_one_line_config_error(code, out, err)
    assert f"config file {path} is not valid JSON: " in err
    assert "line 1 column 10 (char 9)" in err


@pytest.mark.parametrize("flags", [["--n", "-1"], ["--n", "5", "--n-test", "1"]])
def test_simulate_relay_refuses_n_and_n_test_as_bb84_does(capsys, flags):
    # --n -1 used to be reported as an exhausted pool of -4 bits
    code, _, out, err = run_cli(["simulate", "relay", *flags, "--seed", "1"], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "need n >= 1 and n_test >= 2" in err


def test_simulate_rejects_negative_seed_flag(capsys):
    code, _, out, err = run_cli(["simulate", "bb84", "--n", "100", "--seed", "-1"], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "seed" in err


def test_simulate_rejects_negative_seed_in_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"protocol": "dqkd", "n": 100, "seed": -1}))
    code, _, out, err = run_cli(["simulate", "dqkd", "--config", str(path)], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "seed" in err


@pytest.mark.parametrize("protocol", ["bb84", "dqkd", "integrated-2b", "relay"])
def test_simulate_pa_seed_needs_n_minus_1_bits(capsys, protocol):
    argv = ["simulate", protocol, "--n", "300", "--noise-fwd", "bsc:0.02", "--seed", "3"]
    code, report, _, _ = run_cli(argv, capsys)
    ledger = report["key_ledger"]
    assert code == 0 and ledger["n"] == 300 and ledger["n_pa"] < 300
    # the plain Toeplitz family's n + n_pa - 1 bits are refused in one line
    old = 300 + ledger["n_pa"] - 1
    code, _, out, err = run_cli([*argv, "--pa-seed", f"{old}:" + "0" * ((old + 3) // 4)], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "does not match required n - 1 = 299" in err
    code, report, _, _ = run_cli([*argv, "--pa-seed", "299:" + "f" * 74 + "7"], capsys)
    assert code == 0
    assert report["pa_seed"] == {"bits": 299, "hex": "f" * 74 + "7"}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_wrong_length_pa_seed_exits_3_before_the_run(tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(cli, "run_dqkd", lambda cfg: pytest.fail("run_dqkd was called"))
    argv = ["simulate", "dqkd", "--n", "1000000", "--seed", "7"]
    if source == "flag":
        argv += ["--pa-seed", "5:00"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pa": {"seed": {"bits": 5, "hex": "00"}}}))
        argv += ["--config", str(path)]
    code, _, out, err = run_cli(argv, capsys)
    _assert_one_line_config_error(code, out, err)
    assert "pa_seed length 5 does not match required n - 1 = 999999" in err


# int() would read each BITS below as 12 or raise its own message
@pytest.mark.parametrize("text", ["1_2:000", "+12:000", " 12:000", "12 :000", "１２:000", "x:00", "0x1:0"])
def test_pa_seed_rejects_int_literal_syntax(capsys, text):
    code, _, out, err = run_cli(["simulate", "dqkd", "--n", "13", "--seed", "7", "--pa-seed", text], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "pa seed must look like BITS:HEX" in err


def test_simulate_bb84_without_quantum_memory_hashes_with_a_seed_prefix(capsys):
    # the sifted key length is random, so a supplied seed has the configured
    # n - 1 bits and the hash takes its first (sifted n) - 1
    argv = ["simulate", "bb84", "--no-quantum-memory", "--n", "300", "--noise-fwd", "bsc:0.02",
            "--seed", "3"]
    code, report, _, _ = run_cli(argv, capsys)
    n_key, n_pa = report["key_ledger"]["n"], report["key_ledger"]["n_pa"]
    assert code == 0 and 0 < n_pa < n_key < 300
    assert report["pa_seed"]["bits"] == n_key - 1  # a drawn seed keeps the sifted length
    sifted = f"{n_key - 1}:" + "0" * ((n_key + 2) // 4)
    code, _, out, err = run_cli([*argv, "--pa-seed", sifted], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "does not match required n - 1 = 299" in err
    seed = BitVector.random(299, random.Random(4))
    code, report, _, _ = run_cli([*argv, "--pa-seed", f"299:{seed.to_hex()}"], capsys)
    assert code == 0
    prefix = seed.cut(0, n_key - 1)
    assert report["pa_seed"] == {"bits": n_key - 1, "hex": prefix.to_hex()}
    cfg = Bb84Config(n=300, channel=ChannelModel.bsc(0.02), seed=3, quantum_memory=False)
    raw = run_bb84(cfg).raw_key_alice
    # the [I | T] oracle with T the dense Toeplitz matrix of the prefix
    t = toeplitz_from_seed(prefix, n_pa, n_key - n_pa)
    key = raw.cut(0, n_pa) ^ matvec(t, raw.cut(n_pa, n_key))
    assert report["key_digest"] == reports.key_digest(key)


def test_simulate_rejects_non_object_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"protocol": "dqkd", "n": 100}]))
    code, _, out, err = run_cli(["simulate", "dqkd", "--config", str(path)], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "JSON object" in err


@pytest.mark.parametrize(
    "text, names",
    [
        ('{"n": 100, "channels": []}', "channels must be a JSON object"),
        ('{"n": 100, "channels": {"forward": {"kind": "bsc", "param": null}}}',
         "channels.forward param must be a number"),
        ('{"n": 100, "channels": {"forward": {"kind": "bsc", "param": 1e400}}}',
         "channels.forward param must be a number"),
        ('{"n": 100, "channels": {"forward": null}}', "channels.forward must be a JSON object"),
        ('{"n": 100, "channels": {"forwrad": {"kind": "bsc", "param": 0.1}}}',
         "unknown channels key 'forwrad'"),
        ('{"n": 100, "channels": {"forward": {"kind": "bsc", "p": 0.1}}}',
         "unknown channels.forward key 'p'"),
        ('{"n": 100, "eve": null}', "eve must be a JSON object"),
        ('{"n": 100, "eve": {"kind": "intercept-resend", "lines": "forward"}}', "eve lines must be a list"),
        ('{"n": 1e400}', "n must be an integer"),
        ('{"n": 100.0}', "n must be an integer"),
        ('{"n": true}', "n must be an integer"),
        ('{"n": 100000000000000000000000000000}', "limits exceeded"),
        # n check signals for every 1 - cf code signals: about 1e16 here, which
        # used to reach the allocation and end in a traceback
        ('{"n": 10000000, "check_fraction": 0.999999999}', "limits exceeded: dqkd would send"),
        # a float seed used to run as its integer part, so two seeds aliased
        ('{"n": 100, "seed": 1.7}', "seed must be an integer"),
        ('{"n": 100, "n_test": "50"}', "n_test must be an integer"),
        # the string "no" used to be truthy and run with memory
        ('{"n": 100, "quantum_memory": "no"}', "quantum_memory must be true or false"),
        ('{"n": 100, "delayed": 0}', "delayed must be true or false"),
        ('{"n": 100, "check_fraction": "half"}', "check_fraction must be a number"),
        # a typo used to be ignored and run with the default
        ('{"n": 100, "n_tset": 50}', "unknown config key 'n_tset'"),
        ('{"n": 100, "pa": {"seed": "xyz"}}', "pa.seed must be a JSON object"),
        ('{"n": 100, "pa": {"seed": {"bits": "8", "hex": "00"}}}', "pa.seed needs integer bits"),
    ],
    ids=["channels-list", "param-null", "param-huge", "channel-null", "channels-key-typo",
         "channel-key-typo", "eve-null", "eve-lines-string", "n-overflow", "n-float", "n-bool",
         "n-huge", "check-fraction-near-1", "seed-float", "n-test-string", "flag-string", "flag-int",
         "check-fraction-string", "key-typo", "pa-seed-string", "pa-seed-bits-string"],
)
def test_simulate_rejects_malformed_config(tmp_path, capsys, text, names):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    # a bound that names dqkd is dqkd's own: bb84 and relay would run that probe
    for protocol in ("dqkd",) if "dqkd" in names else ("bb84", "dqkd", "relay"):
        code, _, out, err = run_cli(["simulate", protocol, "--config", str(path)], capsys)
        _assert_one_line_config_error(code, out, err)
        assert names in err


@pytest.mark.parametrize(
    "protocol, flags, key",
    [
        ("relay", ["--eve", "intercept-resend"], "eve"),
        ("relay", ["--no-quantum-memory"], "quantum_memory"),
        ("bb84", ["--pool", "500"], "pool"),
        ("bb84", ["--check-fraction", "0.9"], "check_fraction"),
        ("bb84", ["--noise-bwd", "bsc:0.1"], "channels.backward"),
        ("bb84", ["--normal-scheme"], "delayed"),
        ("integrated-2c", ["--check-fraction", "0.5"], "check_fraction"),
    ],
)
def test_simulate_refuses_a_key_the_protocol_does_not_take(capsys, protocol, flags, key):
    # such a key used to run unused, yet the report echoed it in its config
    code, _, out, err = run_cli(["simulate", protocol, "--n", "300", "--seed", "1", *flags], capsys)
    _assert_one_line_config_error(code, out, err)
    assert f"{protocol} takes no config key {key!r}" in err


@pytest.mark.parametrize("protocol", ["integrated-2", "integrated-2b"])
@pytest.mark.parametrize("channel", ["bsc:0.3", "depolarizing:0.1"])
def test_classical_backward_line_refuses_a_noisy_channel(capsys, protocol, channel):
    # the run never read the channel, yet the report echoed it
    argv = ["simulate", protocol, "--n", "300", "--seed", "1"]
    code, _, out, err = run_cli(argv + ["--noise-bwd", channel], capsys)
    _assert_one_line_config_error(code, out, err)
    assert f"{protocol} has a classical backward line" in err
    assert run_cli(argv + ["--noise-bwd", "noiseless"], capsys)[0] == 0


def test_relay_pool_bound_holds_written_or_derived():
    # the pool a relay run would hold is bounded alike whether the document
    # names it or it defaults to 4n; build_config only, no run is started
    base = {"protocol": "relay", "n": reports.MAX_SIGNALS, "seed": 1}
    assert reports.build_config(base).pool_size == reports.MAX_SIGNALS
    with pytest.raises(ValueError, match="limits exceeded: config pool"):
        reports.build_config({**base, "pool": 4 * reports.MAX_SIGNALS})
    assert reports.build_config({**base, "n": 100}).pool_size == 400


@pytest.mark.parametrize("key", ["n", "seed"])
def test_build_config_refuses_a_document_without_n_or_seed(key):
    doc = {"protocol": "bb84", "n": 100, "seed": 5}
    del doc[key]
    with pytest.raises(ValueError, match=f"config needs {key}"):
        reports.build_config(doc)


@pytest.mark.parametrize("protocol", reports.PROTOCOLS)
def test_build_config_leaves_unset_fields_at_the_config_defaults(protocol):
    # only n, seed and, for relay, the derived pool are written without a key
    doc = {"protocol": protocol, "n": 100, "seed": 5}
    config_type, extra = {
        "bb84": (Bb84Config, {}),
        "dqkd": (DqkdConfig, {}),
        "relay": (RelayConfig, {"pool_size": 400}),
    }.get(protocol, (IntegratedConfig, {"variant": protocol.partition("-")[2]}))
    assert reports.build_config(doc) == config_type(n=100, seed=5, **extra)


def test_simulate_config_flags_merge_after_shape_check(tmp_path, capsys):
    # --noise-fwd writes into channels, which must be an object first
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 100, "channels": []}')
    code, _, out, err = run_cli(
        ["simulate", "dqkd", "--config", str(path), "--noise-fwd", "bsc:0.1", "--seed", "1"], capsys
    )
    _assert_one_line_config_error(code, out, err)
    assert "channels must be a JSON object" in err


# --------------------------------------------------------------- verify

def test_verify_rejects_negative_seed(capsys):
    code, _, out, err = run_cli(["verify", "--suite", "table1", "--seed", "-1"], capsys)
    _assert_one_line_config_error(code, out, err)
    assert "seed" in err



@pytest.mark.parametrize("suite", SUITES)
def test_verify_unset_flags_take_the_suite_defaults(suite, monkeypatch, capsys):
    name = "suite_" + suite.replace("-", "_")
    fn = getattr(delayedpa.suites, name)
    seeded = {} if suite == "table1" else {"seed": 11}
    calls = []
    monkeypatch.setattr(delayedpa.suites, name, lambda **kwargs: calls.append(kwargs) or fn(**kwargs))
    code, report, _, _ = run_cli(["verify", "--suite", suite, "--seed", "11"], capsys)
    assert calls == [seeded]
    payload, passed = fn(**seeded)
    assert code == 0 and passed
    # compared as JSON, which holds tuples as lists
    assert report["payload"] == json.loads(json.dumps(payload))


# each flag verify takes, by the suite parameter it sets, with a value in range
_SUITE_FLAG_VALUES = {
    "n": ("--n", 3), "n_pa": ("--npa", 1), "trials": ("--trials", 2), "abar_dim": ("--abar-dim", 2),
    "draws": ("--draws", 100), "alpha": ("--alpha", 0.5), "quantum_trials": ("--quantum-trials", 1),
    "quantum_n": ("--quantum-n", 2), "quantum_dim": ("--quantum-dim", 1),
    "eve_bank_path": ("--eve-bank", "bank.json"),
}


def _suite_params(suite):
    return inspect.signature(getattr(delayedpa.suites, "suite_" + suite.replace("-", "_"))).parameters


@pytest.mark.parametrize("suite", SUITES)
def test_verify_passes_each_set_flag_its_suite_takes(suite, monkeypatch, capsys):
    params = _suite_params(suite)
    flags = {name: value for name, (_, value) in _SUITE_FLAG_VALUES.items() if name in params}
    flags["seed"] = 4
    argv = ["verify", "--suite", suite, "--seed", "4"]
    for name, (option, value) in _SUITE_FLAG_VALUES.items():
        if name in params:
            argv += [option, str(value)]
    name = "suite_" + suite.replace("-", "_")
    calls = []
    monkeypatch.setattr(delayedpa.suites, name, lambda **kwargs: calls.append(kwargs) or ({}, True))
    code, _, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert calls == [{key: flags[key] for key in params}]


@pytest.mark.parametrize("suite", SUITES)
def test_verify_refuses_each_flag_its_suite_does_not_take(suite, capsys):
    # such a flag used to run unused; --seed is every suite's, table1's too
    params = _suite_params(suite)
    others = [(option, value) for name, (option, value) in _SUITE_FLAG_VALUES.items() if name not in params]
    assert others
    for option, value in others:
        code, _, out, err = run_cli(["verify", "--suite", suite, option, str(value), "--seed", "1"], capsys)
        _assert_one_line_config_error(code, out, err)
        assert f"{suite} takes no flag {option}" in err


def test_verify_table1(capsys):
    code, report, _, _ = run_cli(["verify", "--suite", "table1"], capsys)
    assert code == 0
    assert report["passed"] is True
    assert report["payload"]["passed_cases"] == 8
    check_schema(report)


def test_verify_preimage_uniformity(capsys):
    code, report, _, _ = run_cli(
        ["verify", "--suite", "preimage-uniformity", "--draws", "8000", "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert report["passed"] is True
    assert report["payload"]["p_value"] >= 0.001
    check_schema(report)


def test_verify_failure_exits_4_with_one_report(capsys):
    # the fit's p-value at seed 1 (0.898) is below alpha, so the suite fails
    code, report, out, err = run_cli(
        ["verify", "--suite", "preimage-uniformity", "--alpha", "0.999", "--seed", "1"], capsys
    )
    assert code == 4
    assert err == ""
    assert report["passed"] is False
    assert report["payload"]["p_value"] < 0.999
    assert out == reports.dumps(report)
    check_schema(report)


@pytest.mark.parametrize("error", [KeyError, ZeroDivisionError])
def test_a_bug_inside_a_run_keeps_its_traceback(monkeypatch, capsys, error):
    # only ValueError and OSError are config errors; anything else is a bug
    def broken(cfg):
        raise error("bug")

    monkeypatch.setattr(cli, "run_dqkd", broken)
    with pytest.raises(error):
        main(["simulate", "dqkd", "--n", "300", "--seed", "1"])
    assert capsys.readouterr().out == ""


def test_verify_protocol_2c2d(capsys):
    code, report, _, _ = run_cli(
        ["verify", "--suite", "protocol-2c2d", "--trials", "20", "--abar-dim", "4",
         "--seed", "6"],
        capsys,
    )
    assert code == 0
    assert report["payload"]["max_delta_z"] <= 1e-10
    assert report["payload"]["max_delta_x"] <= 1e-10
    check_schema(report)


def test_verify_delayed_pa_small(capsys):
    code, report, _, _ = run_cli(
        ["verify", "--suite", "delayed-pa", "--n", "3", "--npa", "1",
         "--quantum-trials", "3", "--seed", "8"],
        capsys,
    )
    assert code == 0
    assert report["payload"]["classical"]["max_gap"] <= 1e-12
    assert report["payload"]["quantum"]["max_gap"] <= 1e-9
    check_schema(report)


def test_verify_limits_exceeded(capsys):
    code, _, _, err = run_cli(
        ["verify", "--suite", "delayed-pa", "--n", "9", "--npa", "2"], capsys
    )
    assert code == 3
    assert "error" in err


def test_verify_custom_eve_bank(tmp_path, capsys):
    bank = [
        {"name": "only-parity", "rule": "parity"},
        {"name": "explicit", "rule": "table", "n": 2,
         "table": [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]},
    ]
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank))
    code, report, _, _ = run_cli(
        ["verify", "--suite", "delayed-pa", "--n", "2", "--npa", "1",
         "--eve-bank", str(path), "--quantum-trials", "2", "--seed", "9"],
        capsys,
    )
    assert code == 0
    assert report["passed"] is True


@pytest.mark.parametrize(
    "bank, names",
    [
        ([1, 2], "entry 0"),
        ([{"name": 3, "rule": "parity"}], "name"),
        ([{"name": "x", "params": {}}], "rule"),
        ([{"name": "x", "rule": "bit", "params": [1]}], "params"),
        ([{"name": "a", "rule": "bit", "params": {"index": "a"}}], "'a': index"),
        ([{"name": "a", "rule": "noisy-copy", "params": {"flip_prob": "x"}}], "'a': flip_prob"),
        ([{"name": "a", "rule": "table", "n": 2}], "'a': a table rule"),
        ([{"name": "a", "rule": "table", "table": [[1.0]] * 4}], "'a': a table rule"),
        ([{"name": "a", "rule": "table", "n": 2, "table": None}], "'a': table must"),
        # a typo would otherwise run the rule at its default flip_prob
        ([{"name": "a", "rule": "noisy-copy", "params": {"flip_porb": 0.5}}],
         "'a': unknown params key 'flip_porb'"),
        ([{"name": "a", "rule": "blind", "params": {"index": 0}}],
         "'a': unknown params key 'index'"),
        ([{"name": "a", "rule": "noisy-copy", "parms": {"flip_prob": 0.5}}],
         "'a': unknown key 'parms'"),
        ([{"name": "a", "rule": "table", "n": 2, "table": [[math.nan, 1.0]] + [[1.0, 0.0]] * 3}],
         "'a': table entries"),
        ([{"name": "a", "rule": "table", "n": 2, "table": [[1.5, -0.5]] + [[1.0, 0.0]] * 3}],
         "'a': table entries"),
        ([{"name": "a", "rule": "table", "n": 2, "table": [[1.0, 0.0]] * 3 + [[0.5, 0.4]]}],
         "'a': table row 3"),
        ([{"name": "a", "rule": "table", "n": 2, "table": [[1.0, 0.0]] * 3}],
         "'a': table must be a list of 4 rows"),
        ([{"name": "a", "rule": "table", "n": 2, "table": [[1.0, 0.0]] * 3 + [[1.0]]}],
         "'a': table must"),
        ([{"name": "a", "rule": "table", "n": 10**9, "table": [[1.0]]}], "'a': a table rule"),
        ([{"name": "a", "rule": "nope"}], "'a': unknown view rule"),
        # a bank with no model for the swept widths would certify nothing
        ([], "no model"),
        ([{"name": "a", "rule": "table", "n": 3, "table": [[1.0]] * 8}], "no model"),
    ],
    ids=["entry-not-object", "name-not-string", "rule-missing", "params-not-object",
         "index-not-integer", "flip-prob-not-number", "table-missing", "table-n-missing",
         "table-not-rows", "params-key-typo", "params-key-foreign-to-rule", "entry-key-typo",
         "table-nan", "table-outside-unit-interval", "table-row-sum", "table-row-count",
         "table-ragged", "table-n-huge", "rule-unknown", "bank-empty", "bank-no-model-at-width"],
)
def test_verify_rejects_malformed_eve_bank(tmp_path, capsys, bank, names):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank))
    code, _, out, err = run_cli(
        ["verify", "--suite", "delayed-pa", "--n", "2", "--npa", "1",
         "--eve-bank", str(path), "--quantum-trials", "0", "--seed", "9"],
        capsys,
    )
    _assert_one_line_config_error(code, out, err)
    assert names in err


def test_verify_eve_bank_with_a_json_syntax_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 10,')
    code, _, out, err = run_cli(["verify", "--suite", "delayed-pa", "--eve-bank", str(path)], capsys)
    _assert_one_line_config_error(code, out, err)
    assert f"view-model bank {path} is not valid JSON: " in err
    assert "line 1 column 10 (char 9)" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["verify", "--suite", "protocol-2c2d", "--abar-dim", "0", "--seed", "1"], "abar_dim"),
        (["verify", "--suite", "delayed-pa", "--n", "2", "--npa", "1",
          "--quantum-n", "1", "--seed", "1"], "quantum_n"),
        (["verify", "--suite", "delayed-pa", "--n", "2", "--npa", "1",
          "--quantum-dim", "0", "--seed", "1"], "quantum_dim"),
        (["keyrate", "--n", "1000", "--eb-roundtrip", "0.1", "--ep", "0.05",
          "--eb-single", "0.3"], "e_b"),
        # 10 draws over 2048 cells: the chi-square gate could not fail
        (["verify", "--suite", "preimage-uniformity", "--n", "12", "--npa", "1",
          "--draws", "10", "--seed", "1"], "draws"),
        # sweeps that would check no case at all
        (["verify", "--suite", "delayed-pa", "--n", "1", "--npa", "1",
          "--quantum-trials", "0", "--seed", "1"], "n must be at least 2"),
        (["verify", "--suite", "delayed-pa", "--n", "3", "--npa", "0",
          "--quantum-trials", "0", "--seed", "1"], "n_pa"),
        (["verify", "--suite", "protocol-2c2d", "--trials", "-3", "--seed", "1"], "trials"),
        # alpha <= 0 passes any p-value; alpha >= 1 or nan is a config error, not a failure
        (["verify", "--suite", "preimage-uniformity", "--alpha", "-1", "--seed", "1"], "alpha"),
        (["verify", "--suite", "preimage-uniformity", "--alpha", "0", "--seed", "1"], "alpha"),
        (["verify", "--suite", "preimage-uniformity", "--alpha", "nan", "--seed", "1"], "alpha"),
        (["verify", "--suite", "preimage-uniformity", "--alpha", "2", "--seed", "1"], "alpha"),
        (["verify", "--suite", "delayed-pa", "--n", "2", "--npa", "1",
          "--quantum-trials", "-5", "--seed", "1"], "quantum_trials"),
        # dimensions whose trial arrays would run to tens of GiB: refused
        # before the suite allocates anything
        (["verify", "--suite", "protocol-2c2d", "--abar-dim", "100000", "--trials", "1",
          "--seed", "1"], "abar_dim"),
        (["verify", "--suite", "delayed-pa", "--n", "2", "--npa", "1",
          "--quantum-dim", "100000", "--quantum-trials", "1", "--seed", "1"], "quantum_dim"),
        (["simulate", "dqkd", "--n", "100", "--check-fraction", "1", "--seed", "1"],
         "error: check_fraction must be in (0, 1)"),
        (["verify", "--suite", "preimage-uniformity", "--n", "13", "--npa", "1"],
         "error: limits exceeded: uniformity suite enumerates up to n = 12"),
        (["keyrate", "--n", "-1", "--eb-roundtrip", "0.1", "--ep", "0.1"],
         "error: n must be nonnegative"),
    ],
    ids=["abar-dim-0", "quantum-n-1", "quantum-dim-0", "eb-single-above-quarter",
         "preimage-too-few-draws", "delayed-pa-n-1", "delayed-pa-npa-0",
         "protocol-2c2d-negative-trials", "alpha-negative", "alpha-0", "alpha-nan", "alpha-2",
         "quantum-trials-negative", "abar-dim-huge", "quantum-dim-huge",
         "check-fraction-1", "preimage-uniformity-n-13", "keyrate-n-negative"],
)
def test_out_of_range_arguments_exit_3(capsys, argv, names):
    code, _, out, err = run_cli(argv, capsys)
    _assert_one_line_config_error(code, out, err)
    assert names in err


def test_verify_delayed_pa_accepts_zero_quantum_trials(capsys):
    code, report, _, _ = run_cli(
        ["verify", "--suite", "delayed-pa", "--n", "2", "--npa", "1",
         "--quantum-trials", "0", "--seed", "9"],
        capsys,
    )
    assert code == 0
    assert report["payload"]["quantum"]["trials"] == 0


def test_verify_delayed_pa_sweeps_width_seven(tmp_path, capsys):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps([{"name": "blind", "rule": "blind"}, {"name": "parity", "rule": "parity"}]))
    code, report, _, _ = run_cli(
        ["verify", "--suite", "delayed-pa", "--n", "7", "--npa", "1", "--quantum-trials", "0",
         "--eve-bank", str(path), "--seed", "3"],
        capsys,
    )
    assert code == 0
    # one row space per nonzero row at n_pa = 1, against both models
    assert report["payload"]["classical"]["cases"] == 2 * sum((1 << n) - 1 for n in range(2, 8))


# --------------------------------------------------------------- reports

def test_report_dicts_equal_asdict():
    without_roundtrip = run_bb84(Bb84Config(n=300, n_test=80, seed=3)).estimate
    with_roundtrip = run_dqkd(DqkdConfig(n=300, n_test=80, seed=3)).estimate
    assert without_roundtrip.e_roundtrip is None
    assert with_roundtrip.e_roundtrip is not None
    for est in (without_roundtrip, with_roundtrip):
        assert reports.fields_doc(est) == asdict(est)
    ledger = key_length(1000, 0.25, 0.25)
    assert ledger.abort
    assert reports.fields_doc(ledger) == asdict(ledger)


@pytest.mark.parametrize("cfg", [
    DqkdConfig(n=300, n_test=80, seed=3),
    DqkdConfig(n=300, n_test=80, forward=ChannelModel.bsc(0.3), backward=ChannelModel.bsc(0.3), seed=3),
    DqkdConfig(n=20, n_test=2, check_fraction=0.1, seed=17),
], ids=["completed", "aborted-with-ledger", "aborted-before-ledger"])
def test_ledger_csv_columns_follow_the_ledger(cfg):
    t = run_dqkd(cfg)
    header = reports.ledger_csv_header()
    assert header == ["protocol", "seed", *(f.name for f in fields(KeyLedger))]
    doc = reports.fields_doc(t.ledger) or dict.fromkeys(header[2:])
    assert reports.ledger_csv_row(t) == [t.protocol, t.seed, *(doc[name] for name in header[2:])]


@pytest.mark.parametrize("argv", [
    ["keyrate", "--n", "100", "--eb-roundtrip", "0", "--ep", "0"],
    ["simulate", "bb84", "--n", "100", "--seed", "1"],
    ["verify", "--suite", "table1", "--seed", "1"],
], ids=["keyrate", "simulate", "verify"])
def test_unwritable_out_exits_3(tmp_path, capsys, argv):
    code, _, out, err = run_cli([*argv, "--out", str(tmp_path / "missing" / "x.json")], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"delayedpa {argv[0]}: error: ")


@pytest.mark.parametrize("where", ["directory", "missing-directory", "writable"])
@pytest.mark.parametrize("module, worker, argv", [
    (cli, "key_length", ["keyrate", "--n", "100", "--eb-roundtrip", "0", "--ep", "0"]),
    (cli, "run_bb84", ["simulate", "bb84", "--n", "100", "--seed", "1"]),
    (delayedpa.suites, "suite_table1", ["verify", "--suite", "table1", "--seed", "1"]),
], ids=["keyrate", "simulate", "verify"])
def test_unwritable_out_is_found_before_any_work(tmp_path, capsys, monkeypatch, module, worker, argv, where):
    calls = []
    real = getattr(module, worker)

    def counted(*args, **kwargs):
        calls.append(worker)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, worker, counted)
    out = {
        "directory": tmp_path,
        "missing-directory": tmp_path / "missing" / "x.json",
        "writable": tmp_path / "x.json",
    }[where]
    code, _, stdout, err = run_cli([*argv, "--out", str(out)], capsys)
    if where == "writable":
        assert code == 0 and calls == [worker]
        check_schema(json.loads(out.read_text()))
    else:
        _assert_one_line_config_error(code, stdout, err)
        assert calls == []


def test_config_error_leaves_out_path_untouched(tmp_path, capsys):
    existing = tmp_path / "kept.json"
    existing.write_text("kept")
    absent = tmp_path / "absent.json"
    for out in (existing, absent):
        code, _, stdout, err = run_cli(
            ["simulate", "bb84", "--n", "100", "--seed", "-1", "--out", str(out)], capsys
        )
        _assert_one_line_config_error(code, stdout, err)
    assert existing.read_text() == "kept"
    assert not absent.exists()


# --------------------------------------------------------------- parser reuse

def test_parser_reuse_keeps_no_flag_state(capsys):
    bb84 = ["simulate", "bb84", "--n", "300", "--seed", "3"]
    code, report, _, _ = run_cli([*bb84, "--no-quantum-memory"], capsys)
    assert code == 0 and report["config"]["quantum_memory"] is False
    code, report, _, _ = run_cli(bb84, capsys)
    assert code == 0 and "quantum_memory" not in report["config"]
    assert report["sift"]["retained"] == report["sift"]["sent"]


def test_parser_reuse_restores_defaults(capsys):
    suite = ["verify", "--suite", "protocol-2c2d", "--abar-dim", "2", "--seed", "3"]
    code, report, _, _ = run_cli([*suite, "--trials", "3"], capsys)
    assert code == 0 and report["payload"]["trials"] == 3
    code, report, _, _ = run_cli(suite, capsys)
    assert code == 0 and report["payload"]["trials"] == 100


def test_parser_reuse_after_usage_error(capsys):
    code, _, _, _ = run_cli(["keyrate", "--n", "10", "--bogus", "1"], capsys)
    assert code == 3
    code, report, _, _ = run_cli(["keyrate", "--n", "10", "--eb-roundtrip", "0", "--ep", "0"], capsys)
    assert code == 0 and report["key_ledger"]["n_key"] == 10


def _help(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_reused_parser_help_matches_fresh_parser(capsys):
    run_cli(["keyrate", "--n", "10", "--eb-roundtrip", "0", "--ep", "0"], capsys)
    assert _help(main, ["--help"], capsys) == build_parser().format_help()
    for command in ("keyrate", "simulate", "verify"):
        fresh = _help(build_parser().parse_args, [command, "--help"], capsys)
        assert _help(main, [command, "--help"], capsys) == fresh


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for n in range(1, 21):
            run_cli(["keyrate", "--n", str(n), "--eb-roundtrip", "0", "--ep", "0"], capsys)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_main_reads_sys_argv_at_call_time(monkeypatch, capsys):
    for n in (10, 20):
        monkeypatch.setattr(sys, "argv", ["delayedpa", "keyrate", "--n", str(n),
                                          "--eb-roundtrip", "0", "--ep", "0"])
        code, report, _, _ = run_cli(None, capsys)
        assert code == 0 and report["key_ledger"]["n"] == n


# --------------------------------------------------------------- fuzz

_VALID_TABLE = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
_CELLS = st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5, math.nan, math.inf, None, "x", {}])
_BANK_ENTRY = st.one_of(
    st.sampled_from([
        {"name": "blind", "rule": "blind"},
        {"name": "bit", "rule": "bit", "params": {"index": -1}},
        {"name": "noisy", "rule": "noisy-parity", "params": {"flip_prob": 0.1}},
        {"name": "table", "rule": "table", "n": 2, "table": _VALID_TABLE},
        {"name": "typo", "rule": "noisy-copy", "parms": {"flip_prob": 0.1}},
        {"name": 7, "rule": "blind"},
        {"rule": "blind"},
        [],
    ]),
    st.builds(lambda rule: {"name": "r", "rule": rule}, st.sampled_from(["nope", "", "table", 3])),
    st.builds(
        lambda rule, key, value: {"name": "p", "rule": rule, "params": {key: value}},
        st.sampled_from(["noisy-copy", "bit", "parity"]),
        st.sampled_from(["flip_prob", "flip_porb", "index"]),
        st.sampled_from([0, -1, 0.25, 1.5, 2, math.nan, "x", True, None, [0.5]]),
    ),
    st.builds(
        lambda n, table: {"name": "t", "rule": "table", "n": n, "table": table},
        st.sampled_from([2, 2, 3, 0, -1, True, "2", None, 10**9]),
        st.one_of(
            st.lists(st.lists(_CELLS, min_size=1, max_size=3), max_size=9),
            st.sampled_from([None, "x", 1.0, [[[1.0]]], [[{}]], _VALID_TABLE]),
        ),
    ),
)
_BANK = st.one_of(st.lists(_BANK_ENTRY, max_size=3), st.sampled_from([{}, 1, "x", None]))


# flag: (in-range values, out-of-range values)
_VERIFY_FLAGS = {
    "--quantum-n": ((2, 3, 4), (1, 5)),
    "--quantum-dim": ((1, 2, 4), (0, MAX_QUANTUM_DIM + 1)),
    "--quantum-trials": ((0, 1, 3), (-1,)),
    "--trials": ((1, 5), (0, -1)),
    "--abar-dim": ((1, 4), (0, MAX_ABAR_DIM + 1)),
    "--draws": ((200, 2000), (10, 0, -1)),
    "--alpha": (("1e-6", "0.5"), ("-1", "0", "1", "2", "nan", "inf")),
    "--seed": ((0, 7, 104729, 2**32 - 1), (-1,)),
}


@st.composite
def _verify_argv(draw, suite):
    # only flags the suite takes: any other is refused before the suite runs
    params = _suite_params(suite)
    takes = {option for name, (option, _) in _SUITE_FLAG_VALUES.items() if name in params}
    argv = ["verify", "--suite", suite]
    n_pa = draw(st.none() | st.integers(-1, 3))
    # keep each case fast: n <= 4 once n_pa >= 2 (delayed-pa's default is 2),
    # and n <= 3 at n_pa = 3, where the default width 4 would sweep 2,520
    # (4, 3) matrices
    if n_pa is not None and n_pa < 2:
        n = draw(st.none() | st.integers(-1, 5))
    elif n_pa == 3:
        n = draw(st.integers(-1, 3))
    else:
        n = draw(st.none() | st.integers(-1, 4))
    for flag, value in (("--n", n), ("--npa", n_pa)):
        if value is not None and flag in takes:
            argv += [flag, str(value)]
    # at most one flag out of range, so most cases reach the bank and the suite
    broken = draw(st.sampled_from((None,) * len(_VERIFY_FLAGS) + tuple(_VERIFY_FLAGS)))
    for flag, (good, bad) in _VERIFY_FLAGS.items():
        if flag in takes or flag == "--seed":
            argv += [flag, str(draw(st.sampled_from(bad if flag == broken else good)))]
    return argv


@st.composite
def _verify_case(draw):
    # only delayed-pa reads a bank
    bank = draw(st.none() | _BANK)
    suite = "delayed-pa" if bank is not None else draw(st.sampled_from(SUITES))
    return draw(_verify_argv(suite)), bank


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_verify_case())
def test_verify_fuzz_exits_cleanly(tmp_path_factory, case):
    argv, bank = case
    if bank is not None:
        path = tmp_path_factory.mktemp("bank") / "bank.json"
        path.write_text(json.dumps(bank))
        argv = argv + ["--eve-bank", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 3, 4), (argv, bank, err)
    if code == 3:
        _assert_one_line_config_error(code, out, err)
    else:
        check_schema(json.loads(out))


# flag: (in-range values, out-of-range values)
_SIMULATE_FLAGS = {
    "--n": ((1, 40, 150), (0, -1)),
    "--n-test": ((2, 30, 90), (1, 0, -1)),
    "--noise-fwd": (("noiseless", "bsc:0.02", "depolarizing:0.1", "bsc:0.6"),
                    ("bsc", "bsc:x", "bsc:1.5", "bsc:nan", "flip:0.1")),
    "--noise-bwd": (("noiseless", "bsc:0.05", "depolarizing:0.2"), ("depolarizing:-0.1",)),
    "--eve": (("none", "intercept-resend", "intercept-resend:backward",
               "intercept-resend:forward,backward"), ("clone", "intercept-resend:sideways")),
    "--seed": ((0, 7, 104729, 2**32 - 1), (-1,)),
    "--check-fraction": (("0.3", "0.5", "0.8"), ("0", "1", "nan", "-0.5")),
    "--pool": ((600, 2000), (1, -1)),
    "--pa-seed": ((), ("12:abc", "x", "3:zz", "4:")),
}
_CONFIG_VALUE = st.sampled_from(
    [None, True, False, 1.7, math.inf, -1, 0, 3, 64, 10**30, "x", "auto", [], {}, 0.5,
     {"forward": {"kind": "bsc", "param": 0.05}}, {"backward": {"kind": "depolarizing"}},
     {"forward": {"kind": "bsc", "param": None}}, {"kind": "intercept-resend", "lines": ["backward"]},
     {"kind": "intercept-resend", "lines": "forward"}, {"seed": "auto"}, {"seed": {"bits": 3}}]
)
_CONFIG_DOC = st.one_of(
    st.dictionaries(
        st.sampled_from(["n", "n_test", "channels", "eve", "seed", "pa", "check_fraction",
                         "pool", "delayed", "quantum_memory", "protocol", "n_tset"]),
        _CONFIG_VALUE, max_size=5,
    ),
    st.sampled_from([[], 3, "x", None]),
)


@st.composite
def _simulate_case(draw):
    argv = ["simulate", draw(st.sampled_from(reports.PROTOCOLS))]
    # at most one flag out of range, so most cases reach the run
    broken = draw(st.sampled_from((None,) * len(_SIMULATE_FLAGS) + tuple(_SIMULATE_FLAGS)))
    for flag, (good, bad) in _SIMULATE_FLAGS.items():
        if flag == broken:
            argv += [flag, str(draw(st.sampled_from(bad)))]
        elif good and draw(st.booleans()):
            argv += [flag, str(draw(st.sampled_from(good)))]
    for flag in ("--normal-scheme", "--no-quantum-memory"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv, draw(st.none() | _CONFIG_DOC)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_simulate_case())
def test_simulate_fuzz_exits_cleanly(tmp_path_factory, case):
    argv, doc = case
    if doc is not None:
        path = tmp_path_factory.mktemp("config") / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, doc, err)
    if code == 3:
        _assert_one_line_config_error(code, out, err)
    else:
        report = json.loads(out)
        check_schema(report)
        assert report["abort"] is (code == 2)


# --------------------------------------------------------------- subprocess

def _child_env():
    """This environment with the tested package's parent directory first on
    PYTHONPATH, so a child process imports it without an install."""
    env = dict(os.environ)
    src = str(Path(delayedpa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "delayedpa", "keyrate", "--n", "100",
         "--eb-roundtrip", "0", "--ep", "0"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["key_ledger"]["n_key"] == 100
    check_schema(report)


def test_subprocess_replay_byte_identical():
    args = [sys.executable, "-m", "delayedpa", "simulate", "relay",
            "--n", "256", "--n-test", "64", "--seed", "17"]
    first = subprocess.run(args, capture_output=True, text=True, env=_child_env())
    second = subprocess.run(args, capture_output=True, text=True, env=_child_env())
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    strip = lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "timing"}, sort_keys=True
    )
    assert strip(first.stdout) == strip(second.stdout)


def test_every_command_runs_without_scipy():
    # scipy is only the tests' oracle: with its import blocked, every command
    # and every verify suite still runs and exits with its documented code
    script = "\n".join([
        "import contextlib, io, sys",
        "sys.modules['scipy'] = None",
        "from delayedpa import cli",
        "runs = [",
        "    (['keyrate', '--n', '1000', '--eb-roundtrip', '0.05', '--ep', '0.05'], 0),",
        "    (['keyrate', '--n', '1000', '--eb-roundtrip', '0.25', '--ep', '0.25'], 2),",
        "    (['simulate', 'dqkd', '--n', '2000', '--seed', '1'], 0),",
        "    (['verify', '--suite', 'table1'], 0),",
        "    (['verify', '--suite', 'preimage-uniformity', '--draws', '2000', '--seed', '1'], 0),",
        "    (['verify', '--suite', 'protocol-2c2d', '--trials', '5', '--seed', '1'], 0),",
        "    (['verify', '--suite', 'delayed-pa', '--n', '3', '--npa', '2',",
        "      '--quantum-trials', '2', '--seed', '1'], 0),",
        "]",
        "for argv, expected in runs:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = cli.main(argv)",
        "    assert code == expected, (argv, code)",
        "assert sys.modules['scipy'] is None",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
