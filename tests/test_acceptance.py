"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
from mpmath import mp, mpf

from delayedpa.gf2 import BitVector
from delayedpa.ledger import key_length, two_way_rate_single_line
from delayedpa.protocols import (
    Bb84Config,
    DqkdConfig,
    EveModel,
    ChannelModel,
    IntegratedConfig,
    RelayConfig,
    decode_key_bit,
    run_bb84,
    run_dqkd,
    run_integrated,
    run_relay,
)
from delayedpa.security import (
    bank_tables,
    delayed_pa_epsilons_quantum,
    load_eve_bank,
    random_eve_states,
)
from delayedpa.suites import suite_preimage_uniformity, suite_table1
from oracles import (
    _full_rank_matrix,
    build_2d_state,
    delayed_pa_epsilons,
    enumerate_pa_matrices,
    matvec,
    random_matrix,
    random_pure_state,
    sample_preimage,
    single_signal_roundtrip,
    verify_2c_2d,
)

mp.dps = 40


def oracle_entropy(e) -> mpf:
    e = mpf(e)
    if e == 0 or e == 1:
        return mpf(0)
    return -e * mp.log(e, 2) - (1 - e) * mp.log(1 - e, 2)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_additive_pa_properties():
    with criterion(1, "additive PA property suite"):
        rng = random.Random(1001)
        # additivity: 1000 random (A, u, v) with widths up to 256, exact
        for _ in range(1000):
            cols = rng.randint(2, 256)
            rows = rng.randint(1, min(cols - 1, 128))
            a = random_matrix(rows, cols, rng)
            u = BitVector.random(cols, rng)
            v = BitVector.random(cols, rng)
            assert matvec(a, u ^ v) == matvec(a, u) ^ matvec(a, v)
        # preimage sampler: every draw satisfies f(m) = m'
        for _ in range(50):
            cols = rng.randint(4, 96)
            rows = rng.randint(1, min(cols - 1, 32))
            a = _full_rank_matrix(rows, cols, rng)
            for _ in range(20):
                y = BitVector.random(rows, rng)
                x = sample_preimage(a, y, rng)
                assert matvec(a, x) == y
        # uniformity: chi-square at alpha = 0.001, n = 8, n_pa = 3, 32000 draws
        payload, passed = suite_preimage_uniformity(n=8, n_pa=3, draws=32000, alpha=0.001, seed=1002)
        assert passed, payload
        assert payload["cells"] == 32
        assert payload["samples_outside_preimage"] == 0
        assert payload["p_value"] >= 0.001


def test_criterion_2_security_equivalence():
    with criterion(2, "delayed-PA security equivalence"):
        bank = load_eve_bank()
        assert len(bank) >= 5
        cases = 0
        for n in range(2, 5):
            tables = bank_tables(bank, n)
            for n_pa in range(1, min(2, n - 1) + 1):
                for matrix in enumerate_pa_matrices(n, n_pa):
                    for name, table in tables:
                        eps_key, eps_msg = delayed_pa_epsilons(matrix, table)
                        assert abs(eps_key - eps_msg) <= 1e-12, (n, n_pa, name)
                        cases += 1
        assert cases >= 277 * 5
        # quantum variant: 50 random adversary models, n <= 3, dim <= 4
        nprng = np.random.default_rng(2001)
        pyrng = random.Random(2002)
        for _ in range(50):
            n = pyrng.randint(2, 3)
            n_pa = pyrng.randint(1, n - 1)
            matrix = _full_rank_matrix(n_pa, n, pyrng)
            states = random_eve_states(n, 4, nprng)
            eps_key, eps_msg = delayed_pa_epsilons_quantum(matrix.row_words, states)
            assert abs(eps_key - eps_msg) <= 1e-9


def test_criterion_3_protocol_2c_2d_equivalence():
    with criterion(3, "protocol 2c/2d density-matrix equivalence"):
        rng = np.random.default_rng(3001)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            psi = random_pure_state((2, dim), ("A", "Abar"), rng)
            dz, dx = verify_2c_2d(psi)
            assert dz <= 1e-10
            assert dx <= 1e-10
            swap = np.abs(build_2d_state(psi, "xz").mat - build_2d_state(psi, "zx").mat).max()
            assert swap <= 1e-12


def test_criterion_4_encoding_table_roundtrip():
    with criterion(4, "encoding-table round trip"):
        # protocol fast path, exhaustive over the 8 (basis, op) cases
        for basis in ("x", "z"):
            for op in ("I", "X", "Y", "Z"):
                for bob_bit in (0, 1):
                    assert single_signal_roundtrip(basis, bob_bit, op) == decode_key_bit(basis, op)
        # independent matrix-based route
        payload, passed = suite_table1()
        assert passed
        assert payload["passed_cases"] == 8


def test_criterion_5_key_rate_reproduction():
    with criterion(5, "key-rate reproduction"):
        n = 10**4
        rates = [round(0.01 * i, 2) for i in range(12)]  # 0.00 .. 0.11
        for e_rt in rates:
            for e_p in rates:
                ledger = key_length(n, e_rt, e_p)
                n_pa = math.floor(n * (1 - float(oracle_entropy(e_p))))
                n_ec = math.ceil(n * float(oracle_entropy(e_rt)))
                assert abs(ledger.n_key - (n_pa - n_ec)) <= 1, (e_rt, e_p)
        # correlated-lines special case at e_b = e_p = 0.05; the oracle gives
        # 1 - h(0.1) - h(0.05) = 0.244607...
        oracle_rate = float(1 - oracle_entropy(0.1) - oracle_entropy(0.05))
        got = two_way_rate_single_line(0.05, 0.05)
        assert abs(got - oracle_rate) <= 1e-12
        assert abs(got - 0.2446) < 5e-4


def test_criterion_6_monte_carlo_physics():
    with criterion(6, "Monte-Carlo physics"):
        # two-way run with independent bsc(0.02) per line
        t = run_dqkd(
            DqkdConfig(
                n=10**4, n_test=2000,
                forward=ChannelModel.bsc(0.02), backward=ChannelModel.bsc(0.02),
                seed=6001,
            )
        )
        est = t.estimate
        assert abs(est.e_roundtrip - 0.0392) <= 3 * est.se_roundtrip
        # intercept-resend on the forward line: rates near 1/4 and abort
        t2 = run_bb84(
            Bb84Config(n=10**4, n_test=2000, eve=EveModel.intercept_resend("forward"), seed=6002)
        )
        assert abs(t2.estimate.e_b - 0.25) <= 3 * t2.estimate.se_b
        assert abs(t2.estimate.e_p - 0.25) <= 3 * t2.estimate.se_p
        assert t2.abort
        # sift comparison: the two-way run keeps every encode-mode bit, the
        # original one-way flavor keeps about half
        t3 = run_dqkd(DqkdConfig(n=10**4, n_test=2000, seed=6003))
        assert t3.sift_retained == t3.sift_sent
        t4 = run_bb84(Bb84Config(n=10**4, n_test=500, seed=6004, quantum_memory=False))
        frac = t4.sift_retained / t4.sift_sent
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / t4.sift_sent)


def test_criterion_7_end_to_end_equivalence_chain():
    with criterion(7, "end-to-end equivalence chain"):
        seed = 7001
        lengths = set()
        for variant in ("2", "2b", "2c", "2d"):
            t = run_integrated(IntegratedConfig(variant=variant, n=2000, n_test=400, seed=seed))
            assert not t.abort
            lengths.add(len(t.alice_key))
            assert len(t.alice_key) == t.ledger.n_pa
            assert t.alice_key == t.bob_key == t.m_prime
            if variant in ("2b", "2c"):
                assert t.recovered_via_key == t.m_prime
                assert t.recovered_via_rawkey == t.m_prime
            if variant == "2d":
                assert t.recovered_via_rawkey == t.m_prime
        assert len(lengths) == 1  # same secret length N_PA across variants
        # relay: identical Bob/Charlie keys; pool ledger n (delayed) vs N_PA (normal)
        delayed = run_relay(
            RelayConfig(n=1024, pool_size=4096, n_test=256, channel=ChannelModel.bsc(0.03), seed=7002)
        )
        normal = run_relay(
            RelayConfig(n=1024, pool_size=4096, n_test=256, channel=ChannelModel.bsc(0.03),
                        seed=7002, delayed=False)
        )
        for t in (delayed, normal):
            assert not t.abort
            assert t.bob_key == t.charlie_key
        assert delayed.pool_consumed == 1024
        assert normal.pool_consumed == normal.qkd.ledger.n_pa < 1024


def _strip_timing(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_8_cli_determinism():
    with criterion(8, "CLI replay determinism"):
        base = [sys.executable, "-m", "delayedpa", "simulate", "dqkd",
                "--n", "500", "--n-test", "120", "--noise-fwd", "bsc:0.02"]
        first = subprocess.run(base, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        seed = json.loads(first.stdout)["seed"]
        replay = subprocess.run(base + ["--seed", str(seed)], capture_output=True, text=True)
        assert replay.returncode == 0, replay.stderr
        assert _strip_timing(first.stdout) == _strip_timing(replay.stdout)
        # a verify suite replays the same way
        vbase = [sys.executable, "-m", "delayedpa", "verify", "--suite", "protocol-2c2d",
                 "--trials", "10", "--abar-dim", "4", "--seed", "88"]
        r1 = subprocess.run(vbase, capture_output=True, text=True)
        r2 = subprocess.run(vbase, capture_output=True, text=True)
        assert r1.returncode == r2.returncode == 0
        assert _strip_timing(r1.stdout) == _strip_timing(r2.stdout)
