import json
import re

import numpy as np
import pytest

from rittcalc import cli
from rittcalc.jsonutil import matrix_to_json


@pytest.fixture
def tdir(tmp_path):
    with open(tmp_path / "T.json", "w") as fh:
        json.dump(matrix_to_json(np.diag([0.5, 0.9])), fh)
    import scipy.io

    scipy.io.mmwrite(str(tmp_path / "T2.mtx"),
                     np.array([[0.5, 0.3], [0.0, 0.2]]))
    scipy.io.mmwrite(str(tmp_path / "C.mtx"),
                     np.array([[0.5 + 0.1j, 0.0], [0.0, 0.2]]))
    return tmp_path


def run(args):
    return cli.main([str(a) for a in args])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_analyze_report(tdir):
    out = tdir / "rep.json"
    assert run(["analyze", tdir / "T.json", "--out", out, "--no-timestamp"]) == 0
    rep = load(out)
    assert rep["schema"] == "ritt-calc/1"
    assert rep["seed"] == 0xC0FFEE
    assert rep["result"]["verdict"] == "ritt"
    assert rep["result"]["type_alpha"] == 0.0
    assert "timestamp" not in rep


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_renders_an_overflow_as_inf_and_the_angle_as_not_stolz(tmp_path):
    # the overflow is reported in the JSON, with no numpy warning on stderr
    import scipy.io

    scipy.io.mmwrite(str(tmp_path / "big.mtx"), np.diag([1e300, 0.5]), precision=17)
    out = tmp_path / "rep.json"
    assert run(["analyze", tmp_path / "big.mtx", "--out", out, "--no-timestamp"]) == 0
    res = load(out)["result"]
    assert res["verdict"] == "not-ritt" and res["type_alpha"] == "not-Stolz"
    assert res["power_bound"] == res["increment_bound"] == "inf"
    assert res["decay"] == ["inf"] * 4


def test_analyze_reads_matrix_market_complex(tdir):
    out = tdir / "rep.json"
    assert run(["analyze", tdir / "C.mtx", "--out", out, "--no-timestamp",
                "--N", 64]) == 0
    assert load(out)["result"]["verdict"] == "ritt"


def test_funcalc_matches_direct(tdir):
    out = tdir / "rep.json"
    assert run(["funcalc", tdir / "T2.mtx", "--phi", "poly:0,1,-1",
                "--out", out, "--no-timestamp"]) == 0
    rep = load(out)
    entries = rep["result"]["value"]["entries"]
    T = np.array([[0.5, 0.3], [0.0, 0.2]])
    direct = (T - T @ T).reshape(-1)
    got = np.array([complex(re, im) for re, im in entries])
    assert np.max(np.abs(got - direct)) <= max(rep["result"]["error_estimate"], 1e-8)


def test_sqfun_constant_and_series(tdir):
    out = tdir / "rep.json"
    assert run(["sqfun", tdir / "T.json", "--constant", "--out", out,
                "--no-timestamp"]) == 0
    rep = load(out)
    assert abs(rep["result"]["sf_constant"] - 2.0 / 3.0) <= 1e-9
    csv = tdir / "terms.csv"
    assert run(["sqfun", tdir / "T.json", "--csv", csv, "--out", out,
                "--no-timestamp"]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "k,term"
    assert len(lines) > 4


def test_verify_identities_pass_and_exit_codes(tdir):
    out = tdir / "rep.json"
    assert run(["verify", "identities", "--out", out, "--no-timestamp"]) == 0
    rep = load(out)
    assert rep["result"]["pass"] is True
    assert all(c["pass"] for s in rep["result"]["suites"] for c in s["checks"])


def test_verify_deterministic_bytes(tdir):
    a, b = tdir / "a.json", tdir / "b.json"
    run(["verify", "identities", "--seed", 7, "--out", a, "--no-timestamp"])
    run(["verify", "identities", "--seed", 7, "--out", b, "--no-timestamp"])
    assert a.read_bytes() == b.read_bytes()


def test_gallery_markov_flip(tdir):
    out = tdir / "rep.json"
    assert run(["gallery", "markov", "--flip", "--N", 64, "--out", out,
                "--no-timestamp"]) == 0
    rep = load(out)
    assert rep["result"]["analysis"]["verdict"] == "not-ritt"
    assert any("minus-one" in f for f in rep["result"]["instance"]["flags"])


def test_gallery_conditional_basis(tdir):
    out = tdir / "rep.json"
    assert run(["gallery", "conditional-basis", "--n", 8, "--kappa", 1000,
                "--out", out, "--no-timestamp"]) == 0
    assert load(out)["result"]["equivalence_ratio"] >= 1e2


def test_gallery_conditional_basis_past_the_gram_walk(tdir):
    # rho = 1 - 2^-14: the Gram series needs 2^19 terms, far past the walk
    out = tdir / "rep.json"
    assert run(["gallery", "conditional-basis", "--n", 14, "--kappa", 1000,
                "--out", out, "--no-timestamp"]) == 0
    res = load(out)["result"]
    assert res["sf_constant"] == pytest.approx(117.8623230, rel=1e-9)
    assert res["contraction_norm"] <= 1.0 + 1e-8


def test_plotdata_resolvent_and_checks(tdir):
    rep = tdir / "rep.json"
    run(["analyze", tdir / "T.json", "--N", 64, "--out", rep, "--no-timestamp"])
    csv = tdir / "r.csv"
    assert run(["plotdata", rep, "--series", "resolvent_sup", "--out", csv]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "beta,sup" and len(lines) >= 2
    vrep = tdir / "v.json"
    run(["verify", "identities", "--out", vrep, "--no-timestamp"])
    assert run(["plotdata", vrep, "--series", "checks", "--out", csv]) == 0
    assert csv.read_text().startswith("suite,name,pass,observed,bound")


def test_ingestion_error_exit_3(tdir):
    assert run(["analyze", tdir / "missing.json"]) == 3
    bad = tdir / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", bad]) == 3


def test_main_builds_its_parser_once_per_process(tdir):
    cli._parser.cache_clear()
    for i, extra in enumerate((["--seed", 5], [])):
        assert run(["analyze", tdir / "T.json", "--out", tdir / f"{i}.json",
                    "--no-timestamp", "--N", 16, *extra]) == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the second call sees the defaults, not the options of the first
    assert load(tdir / "0.json")["seed"] == 5
    assert load(tdir / "1.json")["seed"] == 0xC0FFEE


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-subcommand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["funcalc", "T.json", "--phi", "bogus"],
     "argument --phi: 'bogus': unknown function spec 'bogus'"),
    (["funcalc", "T.json", "--phi", "frac:-1"],
     "argument --phi: 'frac:-1': delta must be positive"),
    (["sqfun", "T.json", "--m", "0"], "argument --m: '0': must be >= 1"),
    (["analyze", "T.json", "--N", "0"], "argument --N: '0': must be >= 1"),
    (["gallery", "conditional-basis", "--kappa-grid", "1,x"],
     "argument --kappa-grid: '1,x': could not convert string to float: 'x'"),
    (["gallery", "conditional-basis", "--n", "1"],
     "argument --n: '1': conditional-basis needs n >= 2"),
    (["gallery", "c0-witness", "--n", "13"], "argument --n: '13': c0-witness needs n <= 12"),
    (["gallery", "schur", "--n", "0"], "argument --n: '0': must be >= 1"),
    (["gallery", "schur", "--p", "0.5", "--N", "4"],
     "argument --p: '0.5': p must lie in [1, inf), got 0.5"),
    (["sqfun", "T.json", "--tail-tol", "0"], "argument --tail-tol: '0': tail_tol must be positive"),
    (["gallery", "schur", "--delta", "-0.5"], "argument --delta: '-0.5': must lie in [0, 2]"),
    (["gallery", "schur", "--delta", "2.5"], "argument --delta: '2.5': must lie in [0, 2]"),
    (["gallery", "schur", "--delta", "nan"], "argument --delta: 'nan': must lie in [0, 2]"),
], ids=["phi-unknown", "phi-frac-negative", "sqfun-m-0", "analyze-N-0", "kappa-grid-1,x",
        "conditional-basis-n-1", "c0-witness-n-13", "schur-n-0", "schur-p-0.5", "sqfun-tail-tol-0",
        "schur-delta-negative", "schur-delta-above-2", "schur-delta-nan"])
def test_option_values_the_library_rejects_are_usage_errors(tdir, capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        run([tdir / a if a == "T.json" else a for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"error: {message}")


@pytest.mark.parametrize("delta", ["0", "2"])
def test_gallery_schur_takes_the_ends_of_the_delta_range(tdir, delta):
    out = tdir / "rep.json"
    assert run(["gallery", "schur", "--n", 2, "--N", 8, "--delta", delta,
                "--out", out, "--no-timestamp"]) == 0
    assert 0.0 <= load(out)["result"]["instance"]["params"]["delta"] <= 2.0


def test_sqfun_schatten_space_with_x(tdir):
    import scipy.io

    scipy.io.mmwrite(str(tdir / "S.mtx"), np.diag([0.5, 0.5, 0.5, 0.5]))
    scipy.io.mmwrite(str(tdir / "X.mtx"), np.eye(2))
    out = tdir / "rep.json"
    assert run(["sqfun", tdir / "S.mtx", "--space", "schatten:3:2",
                "--x", tdir / "X.mtx", "--out", out, "--no-timestamp"]) == 0
    rep = load(out)
    expected = (2.0 / 3.0) * 2.0 ** (1.0 / 3.0)
    assert abs(rep["result"]["value"] - expected) <= 1e-8


def test_funcalc_exits_1_when_not_converged(tmp_path):
    import scipy.io

    from rittcalc import ritt

    T = np.array([[0.5 + 0.3j, 40.0], [0.0, 0.5 - 0.3j]])
    scipy.io.mmwrite(str(tmp_path / "P.mtx"), T, precision=17)
    beta = ritt.spectral_type(T) + 1e-3
    out = tmp_path / "rep.json"
    assert run(["funcalc", tmp_path / "P.mtx", "--phi", "poly:0,0,1,-1",
                "--beta", repr(beta), "--out", out, "--no-timestamp"]) == 1
    assert load(out)["result"]["converged"] is False


def test_analyze_lp3_default_config_runs_the_ascent(tmp_path):
    # default RittConfig apart from N, resolvent stage included: every lp
    # norm here goes through the stacked Boyd ascent
    import scipy.io

    T = np.array([[0.5, 0.3, 0.1], [0.0, 0.2, 0.4], [0.0, 0.0, 0.3]])
    scipy.io.mmwrite(str(tmp_path / "T.mtx"), T)
    out = tmp_path / "rep.json"
    assert run(["analyze", tmp_path / "T.mtx", "--space", "lp:3", "--N", 8,
                "--out", out, "--no-timestamp"]) == 0
    res = load(out)["result"]
    assert res["verdict"] == "ritt"
    assert res["norms_exact"] is False
    assert len(res["resolvent_sup"]) == 3


def test_analyze_refused_resolvent_node_is_inconclusive(tmp_path):
    import scipy.io

    scipy.io.mmwrite(str(tmp_path / "J.mtx"), np.array([[0.5, 1e30], [0.0, 0.5]]),
                     precision=17)
    out = tmp_path / "rep.json"
    assert run(["analyze", tmp_path / "J.mtx", "--N", 8, "--out", out,
                "--no-timestamp"]) == 0
    res = load(out)["result"]
    assert res["verdict"] == "inconclusive"
    assert any("refused" in r and "rcond=" in r for r in res["reasons"])


@pytest.mark.parametrize("T, message", [
    (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]), "eigenvalue 1 is defective"),
    # the Gram series refuses the radius before it sums, the loops as terms grow
    (np.diag([1.5, 0.5]), "diverge|rho=1.5"),
], ids=["jordan-at-1", "radius-1.5"])
@pytest.mark.parametrize("extra", [[], ["--constant", "--m", "2"], ["--constant", "--space", "lp:3"]],
                         ids=["value", "constant-m2", "constant-lp3"])
def test_sqfun_refusal_is_one_stderr_line_and_exit_1(tmp_path, capsys, T, message, extra):
    with open(tmp_path / "T.json", "w") as fh:
        json.dump(matrix_to_json(T), fh)
    out = tmp_path / "out.json"
    assert run(["sqfun", tmp_path / "T.json", "--out", out] + extra) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rittcalc: refused: ")
    assert re.search(message, lines[0])
    assert not out.exists() and captured.out == ""


# a spec with a trailing field names no other size: it is refused before any model is built
TRAILING_SPECS = ["hilbert:3", "sup:9", "lp:3:1,1,1,1:junk", "schatten:2:2:7"]


@pytest.mark.parametrize("command", ["analyze", "sqfun"])
@pytest.mark.parametrize("spec", ["schatten:3:3", "lp:3:1,2", "schatten:2:1"] + TRAILING_SPECS)
def test_space_of_the_wrong_size_is_an_ingestion_error(tmp_path, capsys, command, spec):
    import scipy.io

    scipy.io.mmwrite(str(tmp_path / "T.mtx"), 0.5 * np.eye(4))
    assert run([command, tmp_path / "T.mtx", "--space", spec]) == 3
    err = capsys.readouterr().err
    assert "ingestion error" in err and spec in err
    assert ("trailing fields" if spec in TRAILING_SPECS else "size 4") in err


@pytest.mark.parametrize("space, x, sizes", [
    ("hilbert", np.ones((3, 1)), ("size 3", "dimension 4")),
    ("lp:3", np.ones((1, 5)), ("size 5", "dimension 4")),
    ("schatten:3:2", np.ones((3, 3)), ("2x2", "(3, 3)")),
    ("schatten:3:2", np.ones((9, 1)), ("2x2", "(9,)")),
])
def test_sqfun_x_of_the_wrong_size_is_an_ingestion_error(tmp_path, capsys, space, x, sizes):
    import scipy.io

    scipy.io.mmwrite(str(tmp_path / "T.mtx"), 0.5 * np.eye(4))
    scipy.io.mmwrite(str(tmp_path / "X.mtx"), x)
    assert run(["sqfun", tmp_path / "T.mtx", "--space", space, "--x", tmp_path / "X.mtx"]) == 3
    err = capsys.readouterr().err
    assert "ingestion error" in err and all(s in err for s in sizes)


@pytest.mark.parametrize("shape", [(4, 1), (1, 4)])
def test_sqfun_reads_a_row_or_column_as_the_flat_schatten_element(tdir, shape):
    import scipy.io

    scipy.io.mmwrite(str(tdir / "S.mtx"), np.diag([0.5, 0.5, 0.5, 0.5]))
    scipy.io.mmwrite(str(tdir / "X.mtx"), np.eye(2))
    scipy.io.mmwrite(str(tdir / "F.mtx"), np.eye(2).reshape(shape))
    values = []
    for x in ("X.mtx", "F.mtx"):
        out = tdir / "rep.json"
        assert run(["sqfun", tdir / "S.mtx", "--space", "schatten:3:2", "--x", tdir / x,
                    "--out", out, "--no-timestamp"]) == 0
        values.append(load(out)["result"]["value"])
    assert values[0] == values[1] == pytest.approx((2.0 / 3.0) * 2.0 ** (1.0 / 3.0), abs=1e-8)


@pytest.mark.parametrize("command, extra", [("analyze", []), ("sqfun", []),
                                            ("funcalc", ["--phi", "poly:0,1,-1"])])
@pytest.mark.parametrize("entries, reason", [
    (np.ones((2, 3)), "2x3, not a square operator"),
    (np.array([[0.5, np.nan], [0.0, 0.2]]), "non-finite entries"),
], ids=["2x3", "nan"])
def test_bad_operator_file_is_an_ingestion_error(tmp_path, capsys, command, extra,
                                                 entries, reason):
    path = tmp_path / "T.json"
    with open(path, "w") as fh:
        json.dump(matrix_to_json(entries), fh)
    assert run([command, path, *extra]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ingestion error" in err
    assert str(path) in err and reason in err


@pytest.mark.parametrize("t, reason", [
    (np.ones((2, 3)) * 0.5, "square real matrix"),
    (np.array([[0.5, 1.5], [0.0, 0.2]]), "lie in [-1, 1]"),
    (np.array([[0.5, 0.1 + 0.9j], [0.0, 0.2]]), "square real matrix"),
], ids=["2x3", "outside", "complex"])
def test_bad_schur_symbol_is_an_ingestion_error(tmp_path, capsys, t, reason):
    import scipy.io

    path = tmp_path / "t.mtx"
    scipy.io.mmwrite(str(path), t)
    assert run(["gallery", "schur", "--t", path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ingestion error" in err
    assert f"--t {path}" in err and reason in err
