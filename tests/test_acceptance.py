"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line for its criterion; criteria with a
stated runtime budget assert it.  The checks themselves live in
rittcalc.verify so the CLI `verify all` runs the same battery.
"""

import json
import time

from rittcalc import cli, verify

SEED = verify.DEFAULT_SEED


def _report(num: str, checks: list, elapsed: float = None, budget: float = None):
    ok = all(c["pass"] for c in checks)
    line = f"ACCEPTANCE criterion-{num}: {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f" ({elapsed:.1f}s)"
    print(line)
    for c in checks:
        assert c["pass"], f"criterion-{num} check failed: {c}"
    if budget is not None:
        assert elapsed < budget, f"criterion-{num} exceeded {budget}s: {elapsed:.1f}s"


def test_criterion_01_identities():
    t0 = time.perf_counter()
    checks = verify.criterion_1_identities(SEED)
    _report("01-identities", checks, time.perf_counter() - t0, budget=10.0)


def test_criterion_02_contour_oracle():
    t0 = time.perf_counter()
    checks = verify.criterion_2_contour_oracle(SEED)
    _report("02-contour-oracle", checks, time.perf_counter() - t0, budget=60.0)


def test_criterion_03_fractional_powers():
    checks = verify.criterion_3_frac_power(SEED)
    _report("03-fractional-powers", checks)


def test_criterion_04_transfer_principle():
    checks = verify.criterion_4_transfer(SEED)
    _report("04-transfer-principle", checks)


def test_criterion_05_square_functions():
    t0 = time.perf_counter()
    checks = verify.criterion_5_square_functions(SEED)
    _report("05-square-functions", checks, time.perf_counter() - t0, budget=3.0)


def test_criterion_06_rademacher():
    checks = verify.criterion_6_rademacher(SEED)
    _report("06-rademacher", checks)


def test_criterion_07_rbound():
    t0 = time.perf_counter()
    checks = verify.criterion_7_rbound(SEED)
    _report("07-rbound", checks, time.perf_counter() - t0, budget=1.0)


def test_criterion_08_similarity():
    t0 = time.perf_counter()
    checks = verify.criterion_8_similarity(SEED)
    _report("08-similarity", checks, time.perf_counter() - t0, budget=1.0)


def test_criterion_09_c512_relation():
    t0 = time.perf_counter()
    checks = verify.criterion_9_c512(SEED)
    _report("09-c512-relation", checks, time.perf_counter() - t0, budget=1.0)


def test_criterion_10_growth_witness():
    t0 = time.perf_counter()
    checks = verify.criterion_10_growth_witness(SEED)
    _report("10-growth-witness", checks, time.perf_counter() - t0, budget=30.0)


def test_criterion_11_gallery():
    t0 = time.perf_counter()
    checks = verify.criterion_11_gallery(SEED)
    _report("11-gallery", checks, time.perf_counter() - t0, budget=3.0)


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = cli.main(["verify", "all", "--seed", str(SEED), "--out", str(a),
                    "--no-timestamp"])
    rc2 = cli.main(["verify", "all", "--seed", str(SEED), "--out", str(b),
                    "--no-timestamp"])
    same = a.read_bytes() == b.read_bytes()
    passed = (rc1 == 0) and (rc2 == 0) and same
    checks = [{"name": "verify-all-byte-identical", "pass": passed,
               "observed": float(not same), "bound": 0.0}]
    _report("12-determinism", checks)
    rep = json.loads(a.read_text())
    assert rep["result"]["pass"] is True
